(** The end-to-end flow of §3.2: (i) run the production binary under
    sample-based profiling, (ii) instrument it from the profile,
    (iii) run the instrumented binary with interleaving (see
    {!Baselines} for the runners).

    Also provides ground-truth (full-trace) estimators used as the
    oracle upper bound in the sampling-fidelity experiments — the
    pipeline itself never touches them. *)

open Stallhide_isa
open Stallhide_mem
open Stallhide_pmu
open Stallhide_binopt
open Stallhide_workloads

type profile_config = {
  exec_period : int;  (** PEBS period for LOADS_ALL *)
  miss_period : int;  (** PEBS period for L2_MISS_LOADS *)
  stall_period : int;  (** PEBS period for STALL_CYCLES (all causes) *)
  frontend_period : int option;
      (** PEBS period for FRONTEND_STALLS; [None] skips the unit, so
          front-end stalls contaminate the memory-stall estimates
          (§3.2's cause-filtering, off) *)
  degradation : Pebs.degradation_spec option;
      (** fault injection: degrade every PEBS unit of the profiling run
          (sample loss / skid / misattribution); [None] = clean *)
}

(** Prime periods (31/17/127) so sampling does not alias with loop
    bodies. Every profiling run reads the LBR each 211 retired
    instructions, and each PEBS unit buffers [Pebs.create]'s default
    2^20 samples. *)
val default_profile_config : profile_config

type profiled = {
  profile : Profile.t;
  run_cycles : int;  (** length of the profiling run *)
  samples : int;  (** samples collected across all units *)
  overhead_cycles : int;
      (** estimated PMU overhead of the run: per-sample cost × samples
          taken or dropped, over every PEBS unit the run arms
          (FRONTEND_STALLS included); divide by [run_cycles] for the
          §3.2 overhead ratio *)
}

(** Profiling run: all lanes sequentially, uninstrumented, PMU attached.
    The PEBS units and the LBR are fed from a {!Stallhide_cpu.Probe} on
    the decoded-µop loop: the samples, snapshots and simulated cycles
    are exactly those a probe on the reference interpreter gives (a
    differential test holds them equal), at a fraction of the host
    cost. *)
val profile : ?config:profile_config -> ?mem_cfg:Memconfig.t -> Workload.t -> profiled

(** Full-trace per-load statistics [pc -> (executions, misses, stall
    cycles)] where a miss is a load served beyond L2 and the stall is
    the paid stall. Counted per pc by the probe's tally on the µop
    loop, like {!profile}'s samplers. *)
val ground_truth : ?mem_cfg:Memconfig.t -> Workload.t -> (int, int * int * int) Hashtbl.t

val oracle_estimates : ?mem_cfg:Memconfig.t -> Workload.t -> Gain_cost.estimates

(** Load pcs a perfect profiler would instrument (misses / execs >= the
    threshold, default 0.5) — the reference set for precision/recall.
    Exported for [test_core] only. *)
val oracle_sites : ?mem_cfg:Memconfig.t -> ?threshold:float -> Workload.t -> int list

(** Sites a given policy would choose with full-trace (oracle)
    estimates — the fair reference when grading a sampled profile under
    the same policy. *)
val oracle_selection :
  ?mem_cfg:Memconfig.t ->
  ?policy:Gain_cost.policy ->
  ?machine:Gain_cost.machine ->
  Workload.t ->
  int list

type instrumented = {
  program : Program.t;
  orig_of_new : int array;  (** new pc -> original pc *)
  primary : Primary_pass.report;
  scavenger : Stallhide_analysis.Scavenger_pass.report option;
}

(** Instrument a program from estimators. [pc_cycles] (original
    coordinates) feeds the scavenger pass; [scavenger_interval = None]
    skips the scavenger phase.

    Every result is translation-validated against the input with
    {!Stallhide_verify.Verify} before being returned (fail-fast:
    raises {!Stallhide_verify.Verify.Rejected} on any error-severity
    finding). [~verify:false] is the escape hatch for deliberately
    exercising defective rewrites. *)
val instrument_with :
  estimates:Gain_cost.estimates ->
  ?pc_cycles:(int -> float option) ->
  ?wait_stalls:(int -> int) ->
  ?primary:Primary_pass.opts ->
  ?scavenger_interval:int ->
  ?verify:bool ->
  Program.t ->
  instrumented

(** [instrument profiled workload] = profile-guided instrumentation of
    the workload's program; returns the workload rebound to the new
    program. Translation-validated like {!instrument_with} unless
    [~verify:false]. *)
val instrument :
  ?primary:Primary_pass.opts ->
  ?scavenger_interval:int ->
  ?verify:bool ->
  profiled ->
  Workload.t ->
  Workload.t * instrumented

(** Where the yield/prefetch sites come from: [Pgo] profiles the
    workload (§3.2); [Static] places purely from the must/may cache
    analysis ({!Stallhide_analysis}), with no profiling run at all;
    [Hybrid] profiles and lets proven static facts override the
    samples. *)
type placement = Pgo | Static | Hybrid

(** ["pgo"], ["static"], ["hybrid"]. *)
val placement_name : placement -> string

(** [place w] is the one step from a placement to a program:
    it gathers the evidence [placement] calls for (default [Pgo]) —
    a {!profile} run under [profile_config] and [mem_cfg], the static
    analysis under [mem_cfg], or both — sets [primary]'s placement from
    it, and instruments ({!instrument} / {!instrument_with}, so
    translation-validated unless [~verify:false]). Returns the
    workload rebound to the new program. Callers that read the profile
    itself call {!profile} and {!instrument} instead. *)
val place :
  ?placement:placement ->
  ?profile_config:profile_config ->
  ?mem_cfg:Memconfig.t ->
  ?primary:Primary_pass.opts ->
  ?scavenger_interval:int ->
  ?verify:bool ->
  Workload.t ->
  Workload.t * instrumented
