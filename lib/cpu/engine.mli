(** Cycle-level in-order execution engine.

    The engine interprets one context at a time against a shared clock,
    memory image and cache hierarchy, calling an opmark observer and a
    {!Probe} as instructions retire. Control returns to the caller (the
    scheduler) at yields, halts, faults, or when the clock reaches a
    deadline.

    Two interpreters implement it: a decoded-µop loop, and the
    reference interpreter it is held bit-identical to. [config.fast]
    alone picks between them; both call the observers at the same
    points with the same arguments.

    Two knobs change the timing model without changing semantics:
    - [ooo_window] — cycles of each memory stall hidden by out-of-order
      overlap with independent work (the Figure-1 OoO model);
    - [stall_shape] — a per-pc delta on the memory and accelerator
      stall, for counterfactual and injected-cause runs.

    {!step} {e blocks} a context on a paid stall instead of stalling
    it, for the SMT model ({!Smt}). *)

open Stallhide_isa
open Stallhide_mem

(** Cycles an untaken conditional yield costs: the [Yield_cond]
    residency check, or a scavenger yield in a primary context.
    Exported for [test_cpu] only. *)
val cond_check_cost : int

type config = {
  on_opmark : ctx:int -> pc:int -> cycle:int -> unit;
      (** default: does nothing. Called at each [Opmark] with the
          context id, its pc and the cycle after any front-end stall;
          [Baselines] sets its latency recorder here. *)
  ooo_window : int;  (** default 0 (in-order) *)
  stall_shape : int array;
      (** default [[||]] (no shaping). Entry [pc] is a delta added to
          the raw memory or accelerator stall charged at [pc] {e
          before} OoO hiding, clamped at 0; [-max_int] zeroes the
          stall. The causal layer uses it both to zero the stall at
          one yield site's covered loads (a literal Coz virtual
          speedup) and to inflate one site as injected ground truth.
          Cache state, residency checks and control flow are
          unaffected — only the cycles charged move. Both
          interpreters read it, so it does not choose between them.
          A non-empty table shorter than the program is rejected when
          {!run}, {!run_reference} or {!step} is entered
          ([Invalid_argument]), because the µop loop reads it
          unchecked. *)
  fast : bool;
      (** default [true]: {!run} takes the decoded-µop loop, a
          zero-allocation-per-cycle loop over {!Uop} arrays; [false]
          takes the reference interpreter, e.g. as the baseline arm of
          the C25 speed bench. Architectural results and every
          observer call are bit-identical between the two
          ([test_engine_diff] is the gate). *)
  probe : Probe.t option;
      (** default [None]. The per-instruction observer: PEBS
          countdowns, LBR rings, the per-pc ground-truth tally and
          traced streams ({!Probe}). Both interpreters call it at
          front-end stalls, loads, paid stalls, taken branches, yields
          and opmarks; LBR snapshots, due every so many retired
          instructions, are taken at the next ring push or at the end
          of the run, which is exact because a snapshot depends only
          on the ring (see {!Probe}). [Pipeline.profile],
          [Pipeline.ground_truth] and every traced run set it. *)
}

val default_config : config

type stop =
  | Halted
  | Yielded of Instr.yield_kind * int  (** kind and pc of the yield instruction *)
  | Out_of_budget
  | Fault of string

type step_result = Normal | Blocked_until of int | Stop of stop

(** The accelerator's deterministic transform ([Accel_issue] computes
    [accel_transform mem\[rs+disp\]]); exposed so tests and workload
    oracles can recompute results host-side.
    Exported for [test_cpu], [test_workloads] only. *)
val accel_transform : int -> int

(** Execute exactly one instruction of [ctx], advancing [clock] by its
    cost: the resumable interface the SMT model interleaves.

    A load or accelerator wait with a paid stall does not stall the
    pipeline but {e blocks the context}: [clock] advances by the issue
    cost only, and the result is [Blocked_until] the cycle the data
    arrives, so the caller can run another hardware context in the
    gap. A blocked load reaches the probe as a load with its paid
    stall, and no stall point.
    @raise Invalid_argument if [config.probe] has an LBR ring
    (deferred snapshots need one context per run), if its tally or
    [config.stall_shape] is shorter than the program. *)
val step :
  config ->
  Hierarchy.t ->
  Address_space.t ->
  clock:int ref ->
  Context.t ->
  step_result

(** Run [ctx] until it yields, halts, faults, or [clock] reaches
    [deadline]: on the decoded-µop loop when [config.fast] holds, else
    on {!run_reference}.
    @raise Invalid_argument if [config.stall_shape] or the probe's
    tally is shorter than the program. *)
val run :
  config ->
  Hierarchy.t ->
  Address_space.t ->
  clock:int ref ->
  ?deadline:int ->
  Context.t ->
  stop

(** The original variant-matching interpreter, kept reachable as the
    differential-test reference arm regardless of [config.fast].
    Exported for [test_cpu] only.
    @raise Invalid_argument as {!run}. *)
val run_reference :
  config ->
  Hierarchy.t ->
  Address_space.t ->
  clock:int ref ->
  ?deadline:int ->
  Context.t ->
  stop

(** Exported for [test_binopt], [test_core], [test_cpu], [test_pmu] only. *)
val pp_stop : Format.formatter -> stop -> unit
