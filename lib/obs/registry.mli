(** Counter and histogram registry.

    Counters are keyed by name *per context*, so consumers can
    attribute (how many yields did the primary take vs the
    scavengers?) and sum on demand for aggregate views. Histograms are
    keyed by name alone: every reader wants the distribution across
    contexts. They are log-bucketed (bucket [i] holds values [v] with
    [2^(i-1) <= v < 2^i]; bucket 0 holds [v <= 0]), so recording is
    O(1) at simulation speed. *)

type t

type counter

type histogram

val create : unit -> t

(** Get-or-create; the same [(name, ctx)] pair always returns the same
    counter. Use [ctx = -1] for context-less (global) series. *)
val counter : t -> ctx:int -> string -> counter

val incr : ?by:int -> counter -> unit

(** Get-or-create; the same name always returns the same histogram. *)
val histogram : t -> string -> histogram

val observe : histogram -> int -> unit

(** {2 Reading} *)

(** Sum of a counter across all contexts; 0 when never written.
    Exported for [test_faults], [test_obs], [test_runtime], [test_txn], [test_verify] only. *)
val total : t -> string -> int

(** Per-context values of a counter, sorted by context id.
    Exported for [test_runtime] only. *)
val by_ctx : t -> string -> (int * int) list

(** Stable machine-readable dump: counters as
    [{total, by_ctx}] and histograms as
    [{count, sum, max, p50, p99, buckets}]. *)
val to_json : t -> Stallhide_util.Json.t

(** Prometheus text-exposition rendering of the same registry: each
    counter becomes ["stallhide_<name>{ctx=\"<i>\"} v"] lines (one per
    context), each histogram the standard cumulative
    [_bucket{le=...}] / [_sum] / [_count] triplet with [le] bounds at
    the log-bucket uppers. Dots/dashes in names map to
    underscores ("load.stall" → "stallhide_load_stall"), so distinct
    registry names that differ only in separator collide — fine for
    the fixed series vocabulary this simulator emits. *)
val to_prometheus : t -> string
