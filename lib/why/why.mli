(** The causal-debugging front door: `stallhide why` and bench C21.

    This layer wires the workload-agnostic analysis drivers
    ({!Stallhide_obs.Sweep}, {!Stallhide_obs.Causal},
    {!Stallhide_obs.Critical_path}) to real simulator runs. It owns
    the interventions:

    - resource counterfactuals arm {!Stallhide_mem.Hierarchy.set_level_scale}
      so every miss charged beyond L1 at one level is re-priced to the
      L1 cost — "what if L3 (or DRAM) were free?";
    - site counterfactuals install a
      {!Stallhide_cpu.Engine.config.stall_shape} table that zeroes the
      residual stall of the loads covered by one yield site — "what if
      this site's remaining misses were hidden perfectly?";
    - ground-truth injections (for validation) either arm a whole-run
      {!Stallhide_faults.Faults.Spike} on the hierarchy or add a fixed
      per-execution stall at one site's loads (the same table), so the
      recovered ranking can be checked against a known cause.

    Each analysis instruments the workload once (the program text is
    seed-invariant; only image contents change with the seed) and
    re-runs it per seed per arm, so reports are deterministic given the
    configuration. Every run of {!analyze} and {!sweep} is untraced and
    takes the engine's decoded-µop loop; only {!critical} reads a
    trace. *)

open Stallhide_obs

(** A known cause injected for ground-truth validation. *)
type injection =
  | Level_spike of { l3_mult : int; dram_mult : int }
      (** whole-run {!Stallhide_faults.Faults.Spike}: every L3 (resp.
          DRAM) service is multiplied *)
  | Site_load of { extra : int }
      (** add [extra] stall cycles to every execution of the loads
          covered by the dominant yield site (chosen deterministically
          as the selected site whose loads execute most in a clean run,
          every execution counted by [Pipeline.ground_truth]) *)

(** ["l3"], ["dram"], ["site"], or a [Faults.parse_spec] spike spec
    ("spike:at=...,for=...,l3=...,dram=..." — the window is ignored;
    the spike is armed for the whole run). *)
val injection_of_string : string -> (injection, string) result

type config = {
  workload : string;  (** a [workload_names] entry *)
  lanes : int;
  ops : int;  (** per-lane operations / requests *)
  seed : int;  (** first seed; repeats use [seed, seed+1, ...] *)
  repeats : int;
  metric : Sweep.metric;
  injection : injection option;
}

(** kv-server, 8 lanes, 256 ops, seed 42, 3 repeats, P99, no
    injection. *)
val default_config : config

val workload_names : string list

(** @raise Invalid_argument on an unknown workload name. *)
val make_workload :
  string -> lanes:int -> ops:int -> manual:bool -> seed:int -> Stallhide_workloads.Workload.t

(** Ground truth recovered from an injected cause: the injected
    target's id and its 1-based rank within its own kind (resources or
    sites) under the configured metric. *)
type ground_truth = { injected : string; rank : int option }

type analysis = { config : config; causal : Causal.report; truth : ground_truth option }

(** Run the counterfactual attribution: base world (with any injection
    armed) vs one run per (seed, target) with that target's latency
    zeroed on top of the same injection. Targets are the L2/L3/DRAM
    levels plus every primary yield site of the instrumented
    program. *)
val analyze : config -> analysis

(** [recovered a] — the injected cause exists and is ranked #1 within
    its kind (vacuously [false] without an injection). *)
val recovered : analysis -> bool

val analysis_to_json : analysis -> Stallhide_util.Json.t

val pp_analysis : Format.formatter -> analysis -> unit

(** One-factor-at-a-time sensitivity sweep. For [kv-server] the runs go
    through the SMP harness and the knob set covers the machine
    (cache sizes, L3/DRAM latency, scavenger count, stealing, core
    count, dispatch policy); for every other workload the
    runs are single-core and the knobs cover memory geometry and lane
    count. Any injection is armed in both arms (the sweep explores the
    injected world). *)
val sweep : config -> Sweep.report

type critical = {
  requests : int;  (** finished requests decomposed *)
  all : Critical_path.totals;
  tail : Critical_path.totals;  (** slowest 10% *)
}

(** Per-request critical-path decomposition of the SMP kv-server run
    (request spans joined against the merged per-core event streams).
    [None] for workloads other than [kv-server]. *)
val critical : config -> critical option

val critical_to_json : critical -> Stallhide_util.Json.t

val pp_critical : Format.formatter -> critical -> unit
