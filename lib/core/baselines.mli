(** Runners for every mechanism compared in the paper.

    Each runner builds a fresh cache hierarchy from [mem_cfg], sets one
    {!Latency.on_opmark} recorder as the engine's opmark observer
    (in place of any in [engine]), executes the workload, and returns
    {!Metrics.t}: [ops] is the recorder's opmark count ({!Latency.ops})
    and [latency] its summary over every context. [engine.fast] alone
    picks the interpreter, traced or not:

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
      (** telemetry stream; when set, it is attached to the engine's
          probe (a fresh one when [engine] has none), and the scheduler
          feeds it too (cycle counts are unaffected — observers never
          touch the clock) *)
}

val default_opts : opts

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
  baseline : Metrics.t;  (** the uninstrumented run, sequential *)
  pgo_metrics : Metrics.t;  (** the instrumented run, round-robin *)
  inst : Pipeline.instrumented;
  attribution : Attribution.report;
      (** per yield site: model-predicted vs measured gain *)
}

(** [attribute profiled inst w] measures [inst], instrumented from
    [profiled], against [w]: it runs [w] uninstrumented and sequential,
    resets the image, runs [inst.program] on [w] round-robin, and
    attributes the stall delta to yield sites
    ({!Attribution.build}). Each run counts on a probe of its own with
    an armed tally, so neither is traced unless [opts.obs] asks for
    telemetry of the instrumented run (the baseline is never traced).
    [primary] is the pass options [inst] was built with (its machine
    prices the promise); [label] names the instrumented run (default
    [<name>/pgo]). *)
val attribute :
  ?label:string ->
  ?opts:opts ->
  ?primary:Stallhide_binopt.Primary_pass.opts ->
  Pipeline.profiled ->
  Pipeline.instrumented ->
  Workload.t ->
  attributed

(** {!run_pgo} with attribution: {!Pipeline.profile},
    {!Pipeline.instrument}, then {!attribute}. *)
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
