(** Deterministic one-factor-at-a-time differential sweeps.

    The driver re-runs a seeded workload under single-knob
    perturbations (L3 latency doubled, half the scavengers, one core
    fewer, ...) and reports the full latency-summary delta per knob,
    with repeated-seed confidence intervals. It is workload-agnostic:
    callers hand it closures from seed to a latency {!sample}; the
    [lib/why] layer wires those closures to real simulator runs.

    Everything is deterministic given the seed list: the same seeds and
    the same runner closures produce bit-identical reports. *)

(** The slice of [Latency.summary] the analysis layers consume
    (duplicated here because [lib/runtime] sits above [lib/obs] in the
    dependency DAG — the runtime's tracer feeds our streams). *)
type sample = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
  max : int;
}

type metric = Mean | P50 | P90 | P99 | P999

val all_metrics : metric list

(** ["mean"], ["p50"], ["p90"], ["p99"], ["p999"] (also accepts
    ["p99.9"]). *)
val metric_of_string : string -> metric option

val metric_name : metric -> string

(** A statistic across repeated seeds: the across-seed mean and a
    normal-approximation 95% confidence half-width
    ([1.96 * sd / sqrt n], sample standard deviation; 0 when [n = 1]).
    With the handful of repeats a sweep affords, read [ci95] as an
    error bar, not a guarantee. *)
type stat = { value : float; ci95 : float }

(** One {!stat} per metric. *)
type series = { mean : stat; p50 : stat; p90 : stat; p99 : stat; p999 : stat }

val series_value : metric -> series -> stat

(** [of_samples samples] — across-seed stats of each metric. *)
val of_samples : sample list -> series

(** [delta base perturbed] — stats of the per-seed paired differences
    [perturbed_i - base_i] (pairing removes the seed-to-seed variance
    both arms share).
    @raise Invalid_argument when the lists' lengths differ. *)
val delta : sample list -> sample list -> series

type row = {
  knob : string;  (** short id, e.g. ["l3.latency*2"] *)
  detail : string;  (** human description of the perturbation *)
  base : series;
  perturbed : series;
  delta : series;  (** perturbed - base, paired per seed *)
}

type report = { seeds : int list; base : series; rows : row list }

(** [run ~seeds ~base ~knobs] runs the base closure once per seed, each
    knob closure once per seed, and assembles the report. Knob order is
    preserved in [report.rows]. *)
val run :
  seeds:int list ->
  base:(int -> sample) ->
  knobs:(string * string * (int -> sample)) list ->
  report

(** Rows sorted by descending absolute delta of [metric]. *)
val ranked : metric -> report -> row list

val pp : metric:metric -> Format.formatter -> report -> unit

val to_json : report -> Stallhide_util.Json.t
