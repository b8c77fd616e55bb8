(** Cycle-level in-order execution engine.

    The engine interprets one context at a time against a shared clock,
    memory image and cache hierarchy, firing {!Events} hooks as
    instructions retire. Control returns to the caller (the scheduler)
    at yields, halts, faults, or when the clock reaches a deadline.

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
  hooks : Events.t;
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
      (** default [true]. Allow {!run} to take the decoded-µop fast
          path — a zero-allocation-per-cycle loop over {!Uop} arrays —
          whenever {!fast_engaged} holds: no per-instruction hook is
          set. An [on_opmark] observer (an op counter, a latency
          recorder) does not stop it; the fast loop fires [on_opmark]
          itself, and a [probe] and a [stall_shape] ride it too.
          Architectural results and every hook call are bit-identical
          to the reference interpreter ([test_engine_diff] is the
          gate); set [false] to force the reference path, e.g. as the
          baseline arm of the C25 speed bench. *)
  probe : Probe.t option;
      (** default [None]. The sampling fabric of the µop loop: PEBS
          countdowns, LBR rings and the per-pc ground-truth tally
          ({!Probe}). The loop touches it only at loads, paid stalls
          and taken branches, with the same pc, address, stall and
          cycle the reference interpreter passes [on_load],
          [on_stall], [on_frontend_stall] and [on_branch]; LBR
          snapshots, due every so many retired instructions, are taken
          at the next ring push or at the end of the run, which is
          exact because a snapshot depends only on the ring (see
          {!Probe}). A probe is read by nothing else: {!run} raises
          [Invalid_argument] when it is set and {!fast_engaged} does
          not hold, and {!run_reference} and {!step} whenever it is
          set. [Pipeline.profile] and [Pipeline.ground_truth] set
          it. *)
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
    gap.
    @raise Invalid_argument if [config.probe] is set or
    [config.stall_shape] is too short. *)
val step :
  config ->
  Hierarchy.t ->
  Address_space.t ->
  clock:int ref ->
  Context.t ->
  step_result

(** Run [ctx] until it yields, halts, faults, or [clock] reaches
    [deadline]. Dispatches to the decoded-µop fast loop when
    {!fast_engaged} holds, else to {!run_reference}.
    @raise Invalid_argument if [config.probe] is set and
    {!fast_engaged} does not hold, or if [config.stall_shape] is too
    short. *)
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
    @raise Invalid_argument as {!step}. *)
val run_reference :
  config ->
  Hierarchy.t ->
  Address_space.t ->
  clock:int ref ->
  ?deadline:int ->
  Context.t ->
  stop

(** Would {!run} take the fast path under this config? It does when
    [fast] is set and [on_retire], [on_load], [on_branch], [on_stall],
    [on_frontend_stall] and [on_yield] are each physically
    {!Events.nop}'s field — as {!Events.compose} leaves every field no
    element observes. [on_opmark] may be anything: the fast loop calls
    it at each [Opmark] with the same [~ctx ~pc ~cycle] as {!step}.
    Neither [probe] nor [stall_shape] enters into it: a probe needs
    the fast loop, and both loops apply a shape.
    Exported for [test_engine_diff] only. *)
val fast_engaged : config -> bool

(** Exported for [test_binopt], [test_core], [test_cpu], [test_pmu] only. *)
val pp_stop : Format.formatter -> stop -> unit
