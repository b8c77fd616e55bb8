(** Counterfactual causal attribution — Coz's virtual speedups made
    literal.

    For each candidate cause (a memory level, a yield site), the driver
    re-runs the same seeded workload in a counterfactual world where
    the miss latency charged to that one cause is zeroed (or scaled),
    everything else untouched. The drop in the chosen latency metric
    *is* that cause's causal contribution: unlike a profile share, it
    accounts for overlap, queueing and scheduling second-order effects,
    because the simulator replays them all under the intervention.

    Like {!Sweep}, this module is workload-agnostic — it orchestrates
    closures from seed to {!Sweep.sample}; [lib/why] supplies closures
    that arm [Hierarchy.set_level_scale] (levels) or
    [Engine.config.stall_shape] (sites) before running. Contributions
    come with repeated-seed confidence intervals; rankings are
    deterministic given the seed list. *)

type kind = Resource | Site

val kind_name : kind -> string

type target = {
  id : string;  (** stable id, e.g. ["level:DRAM"] or ["site:41"] *)
  kind : kind;
  detail : string;  (** human description *)
}

type contribution = {
  target : target;
  base : Sweep.series;
  counterfactual : Sweep.series;
  contribution : Sweep.series;
      (** base - counterfactual, paired per seed: cycles of the metric
          this cause is responsible for (positive = removing the cause
          helps) *)
}

type report = { seeds : int list; base : Sweep.series; rows : contribution list }

(** [run ~seeds ~base ~targets] runs the base closure once per seed and
    each target's counterfactual closure once per seed. *)
val run :
  seeds:int list ->
  base:(int -> Sweep.sample) ->
  targets:(target * (int -> Sweep.sample)) list ->
  report

(** Rows sorted by descending contribution to [metric]; restricted to
    one target kind when [kind] is given. Ties (exactly equal
    contributions) keep submission order, so rankings are stable. *)
val ranked : ?kind:kind -> Sweep.metric -> report -> contribution list

(** 1-based rank of target [id] among targets of its own kind under
    [metric]; [None] if the id is unknown. Resources rank against
    resources and sites against sites — a level-zeroing counterfactual
    subsumes the site-level stalls it serves, so cross-kind positions
    are not comparable. *)
val rank_of : Sweep.metric -> report -> id:string -> int option

(** Contribution as a fraction of the base metric (0 when the base
    is 0).
    Exported for [test_obs] only. *)
val share : Sweep.metric -> report -> contribution -> float

val pp : metric:Sweep.metric -> Format.formatter -> report -> unit

val to_json : metric:Sweep.metric -> report -> Stallhide_util.Json.t
