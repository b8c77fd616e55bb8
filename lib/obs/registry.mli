(** Counter and histogram registry.

    Counters and histograms are keyed by name *per context* so consumers
    can attribute (how many yields did the primary take vs the
    scavengers?) and merged on demand for aggregate views. Histograms
    are log-bucketed (bucket [i] holds values [v] with
    [2^(i-1) <= v < 2^i]; bucket 0 holds [v <= 0]), so recording is O(1)
    and merging is bucket-wise addition — the shape CoroBase-style
    per-coroutine accounting needs at simulation speed. *)

type t

type counter

type histogram

val create : unit -> t

(** Get-or-create; the same [(name, ctx)] pair always returns the same
    counter. Use [ctx = -1] for context-less (global) series. *)
val counter : t -> ctx:int -> string -> counter

val incr : ?by:int -> counter -> unit

val histogram : t -> ctx:int -> string -> histogram

val observe : histogram -> int -> unit

(** {2 Reading} *)

(** Sum of a counter across all contexts; 0 when never written. *)
val total : t -> string -> int

(** Per-context values of a counter, sorted by context id.
    Exported for [test_runtime] only. *)
val by_ctx : t -> string -> (int * int) list

(** Bucket-wise merge of a histogram across all contexts; [None] when
    never written.
    Exported for [test_obs] only. *)
val merged : t -> string -> histogram option

(** Exported for [test_obs] only. *)
val hist_count : histogram -> int

(** Exported for [test_obs] only. *)
val hist_sum : histogram -> int

(** All registered series names (counters and histograms), sorted.
    Exported for [test_smp] only. *)
val names : t -> string list

val reset : t -> unit

(** {2 Namespaces}

    SMP runs register per-core series under ["<prefix><i>.<name>"]
    (e.g. ["core3.steals"]). The namespace view groups them back
    together: per-index values next to a machine-wide aggregate,
    without the writer having to maintain both. *)

(** Indices [i] for which some ["<prefix><i>.<name>"] series exists,
    sorted.
    Exported for [test_smp] only. *)
val namespace_indices : t -> prefix:string -> int list

(** Bare series names appearing under the namespace, sorted.
    Exported for [test_smp] only. *)
val namespace_names : t -> prefix:string -> string list

(** [namespace_total t ~prefix name] sums ["<prefix><i>.<name>"] over
    all indices (counters; 0 when absent).
    Exported for [test_smp] only. *)
val namespace_total : t -> prefix:string -> string -> int

(** [{aggregate: {name: total}, per: {"<i>": {name: total}}}] over the
    namespace's counters. *)
val namespace_json : t -> prefix:string -> Stallhide_util.Json.t

(** Stable machine-readable dump: counters as
    [{total, by_ctx}] and histograms as
    [{count, sum, max, p50, p99, buckets}] (merged across contexts). *)
val to_json : t -> Stallhide_util.Json.t

(** Prometheus text-exposition rendering of the same registry: each
    counter becomes ["stallhide_<name>{ctx=\"<i>\"} v"] lines (one per
    context), each histogram (merged across contexts) the standard
    cumulative [_bucket{le=...}] / [_sum] / [_count] triplet with [le]
    bounds at the log-bucket uppers. Dots/dashes in names map to
    underscores ("load.stall" → "stallhide_load_stall"), so distinct
    registry names that differ only in separator collide — fine for
    the fixed series vocabulary this simulator emits. *)
val to_prometheus : t -> string
