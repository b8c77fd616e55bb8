(** Runners for every mechanism compared in the paper.

    Each runner builds a fresh cache hierarchy from [mem_cfg], attaches
    an op counter and a latency recorder, executes the workload, and
    returns {!Metrics.t}. Both watch only opmarks, so unless [obs] or
    the caller's engine hooks observe more, the run takes the
    decoded-µop loop:

    - {!run_sequential} — no hiding at all ("none"): every stall paid.
    - {!run_ooo} — sequential with an out-of-order overlap window
      (hardware that hides only short events).
    - {!run_smt} — each lane is one hardware context of an SMT core.
    - {!run_round_robin} — coroutine batch interleaving; with a manual
      workload this is the CoroBase-style expert baseline; with an
      instrumented program it is the paper's mechanism. [switch]
      selects coroutine vs kernel-thread vs process switch costs.
    - {!run_pgo} — the full §3.2 pipeline (profile → instrument →
      round-robin).
    - {!run_dual} — §3.3 dual-mode: a primary lane plus scavenger
      lanes, with per-request primary latency. *)

open Stallhide_cpu
open Stallhide_mem
open Stallhide_runtime
open Stallhide_workloads

type opts = {
  mem_cfg : Memconfig.t;
  switch : Switch_cost.t;
  engine : Engine.config;
  max_cycles : int;
  obs : Stallhide_obs.Stream.t option;
      (** telemetry stream; when set, the engine hooks and the
          scheduler feed it (cycle counts are unaffected — hooks never
          touch the clock) *)
}

val default_opts : opts

(** [op_counter ()] is a count of retired [Opmark]s and the hooks that
    keep it. Every other field is {!Events.nop}'s, so composing it onto
    an engine keeps {!Engine.fast_engaged}. Every runner here counts
    ops this way. *)
val op_counter : unit -> int ref * Events.t

val run_sequential : ?label:string -> ?opts:opts -> Workload.t -> Metrics.t

val run_ooo : ?label:string -> ?opts:opts -> window:int -> Workload.t -> Metrics.t

val run_smt : ?label:string -> ?opts:opts -> Workload.t -> Metrics.t

val run_round_robin : ?label:string -> ?opts:opts -> Workload.t -> Metrics.t

(** Place, instrument and run: {!Pipeline.place} under [placement]
    (default [Pgo], the §3.2 profile-guided flow; [Static] and [Hybrid]
    bring in the must/may cache analysis), then round-robin. The default
    label is [<name>/pgo], [<name>/static] or [<name>/hybrid]. Returns
    the metrics and the instrumentation artifacts (reports, pc map). *)
val run_pgo :
  ?label:string ->
  ?opts:opts ->
  ?placement:Pipeline.placement ->
  ?profile_config:Pipeline.profile_config ->
  ?primary:Stallhide_binopt.Primary_pass.opts ->
  ?scavenger_interval:int ->
  ?verify:bool ->
  Workload.t ->
  Metrics.t * Pipeline.instrumented

type attributed = {
  pgo_metrics : Metrics.t;
  inst : Pipeline.instrumented;
  attribution : Stallhide_obs.Attribution.report;
      (** per yield site: model-predicted vs measured gain *)
  stream : Stallhide_obs.Stream.t;  (** telemetry of the measured run *)
}

(** {!run_pgo} with telemetry: profiles, instruments, replays the
    uninstrumented baseline to map per-pc stall, then runs the
    instrumented program under round-robin with a stream attached and
    attributes the stall delta to yield sites. Ignores [opts.obs] (it
    builds its own streams). *)
val run_pgo_attributed :
  ?label:string ->
  ?opts:opts ->
  ?profile_config:Pipeline.profile_config ->
  ?primary:Stallhide_binopt.Primary_pass.opts ->
  ?scavenger_interval:int ->
  ?verify:bool ->
  Workload.t ->
  attributed

type dual_result = {
  metrics : Metrics.t;
  primary_latency : Latency.summary option;  (** per-request latency of the primary *)
  stats : Core_sched.stats;  (** the core's counters ({!Dual_mode.result.stats}) *)
}

(** [run_dual ~primary ~scavengers] runs lane 0 of [primary] in primary
    mode against all lanes of [scavengers] in scavenger mode. The two
    workloads must share one memory image (build them with [?image]).
    @raise Invalid_argument when images differ. *)
val run_dual :
  ?label:string ->
  ?opts:opts ->
  primary:Workload.t ->
  scavengers:Workload.t ->
  unit ->
  dual_result
