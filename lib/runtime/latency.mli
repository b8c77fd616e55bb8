(** Per-operation latency recording and summarizing.

    A recorder turns [Opmark] retirements into operation latencies: for
    each context, the latency of an operation is the cycle distance from
    the previous opmark; the first opmark of a context only arms the
    recorder (a context's dispatch time is scheduler business the PMU
    cannot see). Latency includes time spent yielded away — which is
    precisely the latency impact §3.3's asymmetric concurrency is
    designed to control.

    A recorder keeps flat per-context arrays indexed by context id and
    grown on demand: the cycle of each context's last opmark, and its
    latencies in an [int array] that doubles from small, so a context's
    storage stays in proportion to what it records. Context ids must
    be non-negative, and should be small (lane numbers and the like):
    the per-context arrays span every id up to the largest seen. *)

type recorder

val recorder : unit -> recorder

(** The recorder's one observer, for [Engine.config.on_opmark]: it
    counts every opmark and records each context's latencies.
    @raise Invalid_argument at an opmark with a negative context id. *)
val on_opmark : recorder -> ctx:int -> pc:int -> cycle:int -> unit

(** Every opmark the observer saw, each context's arming one included. *)
val ops : recorder -> int

(** Latencies recorded for context [ctx], oldest first.
    Exported for [test_runtime] only. *)
val of_ctx : recorder -> int -> int list

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** population standard deviation *)
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;  (** the tail §3.3 manages: 99.9th percentile *)
  max : int;
}

(** [summarize xs] is [None] on an empty list. Every summary, this
    one's and {!summarize_recorder}'s, copies its samples into one
    [int array], folds mean and stddev over it, then sorts it in place
    with a monomorphic radix sort for the order statistics. The mean
    comes from the integer sum; stddev folds the samples in the list's
    own order.
    Exported for [test_faults], [test_runtime] only. *)
val summarize : int list -> summary option

(** [summarize_recorder ?ctx r] summarizes context [ctx]'s latencies,
    or every context's when [ctx] is omitted; [None] when there are
    none. Stddev folds one context oldest first, and all of them in
    ascending context id, each oldest first.
    @raise Invalid_argument on a negative [ctx]. *)
val summarize_recorder : ?ctx:int -> recorder -> summary option

(** All-zero summary: what an empty sample set summarizes to. *)
val empty_summary : summary

(** Total variant of {!summarize}: never raises; an empty sample set
    yields {!empty_summary} ([count = 0] distinguishes it from real
    data). Fault-injection runs legitimately produce empty sets — e.g.
    every request shed under overload — so consumers must not have to
    guard the empty case themselves. *)
val summary : int list -> summary

(** [sort_ints a] sorts [a] ascending in place: an LSD radix sort, 8
    bits per pass over [x - min a], for any span (offsets are read as
    unsigned words). Exported for [test_runtime] only. *)
val sort_ints : int array -> unit

(** [percentile xs q] with [q] in [0,1]; [xs] need not be sorted.
    Linear interpolation between closest ranks (numpy's "linear"
    method): the rank is [q * (n-1)] and fractional ranks interpolate
    between the two neighbouring order statistics, rounded to the
    nearest integer cycle. For [xs = 1..100], [p50] is 51 (midpoint
    50.5 rounded), not nearest-rank's 50.
    @raise Invalid_argument on an empty list. *)
val percentile : int list -> float -> int

(** Combine per-core summaries into one machine-level summary without
    re-sorting the underlying samples. [count] and [max] are exact;
    [mean] and [stddev] are exact (pooled moments); the percentiles are
    count-weighted averages of the per-core percentiles — a standard
    mergeable-summary approximation, exact when the cores' latency
    distributions coincide. Empty ([count = 0]) summaries are ignored;
    merging none yields {!empty_summary}. *)
val merge : summary list -> summary

val pp_summary : Format.formatter -> summary -> unit

(** [{count, mean, stddev, p50, p90, p99, p999, max}]. *)
val summary_to_json : summary -> Stallhide_util.Json.t

(** Goodput vs offered accounting for runs that drop work.

    A request shed by overload protection, expired past its deadline or
    abandoned by a client timeout is an SLO violation, not a sample to
    discard: [goodput] summarizes only the answered requests (the
    flattering view), [full] summarizes the whole offered load with
    every dropped request {e censored} at [censor] cycles — the
    deadline or timeout bound, a lower bound on the latency the victim
    actually observed. Percentiles over [full] are therefore exact as
    long as they fall below the censor point and honest lower bounds
    above it. *)
type split = {
  offered : int;  (** answered + dropped *)
  answered : int;
  dropped : int;  (** shed + expired + timed out + lost *)
  censor : int;  (** latency assigned to each dropped request *)
  goodput : summary;  (** answered requests only *)
  full : summary;  (** offered load, dropped requests censored *)
}

(** [split ~censor ~dropped answered_lats].
    @raise Invalid_argument on negative [censor] or [dropped]. *)
val split : censor:int -> dropped:int -> int list -> split

(** Dropped fraction of offered load (0 when nothing was offered). *)
val violation_rate : split -> float

val split_to_json : split -> Stallhide_util.Json.t
