(** Cycle-level in-order execution engine.

    The engine interprets one context at a time against a shared clock,
    memory image and cache hierarchy, firing {!Events} hooks as
    instructions retire. Control returns to the caller (the scheduler)
    at yields, halts, faults, or when the clock reaches a deadline.

    Two knobs change the timing model without changing semantics:
    - [ooo_window] — cycles of each memory stall hidden by out-of-order
      overlap with independent work (the Figure-1 OoO model);
    - [load_block_threshold] — when set, a load whose stall exceeds the
      threshold does not stall the pipeline but *blocks the context*
      until the data arrives ({!step} returns [Blocked_until]); the SMT
      model runs other hardware contexts in the gap. *)

open Stallhide_isa
open Stallhide_mem

(** Cycles an untaken conditional yield costs: the [Yield_cond]
    residency check, or a scavenger yield in a primary context.
    Exported for [test_cpu] only. *)
val cond_check_cost : int

type config = {
  hooks : Events.t;
  ooo_window : int;  (** default 0 (in-order) *)
  load_block_threshold : int option;  (** default [None] (loads stall) *)
  stall_shape : (pc:int -> stall:int -> int) option;
      (** default [None]. When set, rewrites the raw memory/accelerator
          stall charged at [pc] *before* OoO hiding: the causal layer
          uses it both to zero the stall at one yield site's covered
          loads (a literal Coz virtual speedup) and to inflate one site
          as injected ground truth. Cache state, residency checks and
          control flow are unaffected — only the cycles charged move.
          Negative returns are clamped to 0. *)
  fast : bool;
      (** default [true]. Allow {!run} to take the decoded-µop fast
          path — a zero-allocation-per-cycle loop over {!Uop} arrays —
          whenever {!fast_engaged} holds: no per-instruction hook is
          set and no [stall_shape] is armed. An [on_opmark] observer
          (an op counter, a latency recorder) does not stop it; the
          fast loop fires [on_opmark] itself, and a [probe] rides it
          too. Architectural results and every hook call are
          bit-identical to the reference interpreter
          ([test_engine_diff] is the gate); set [false] to force the
          reference path, e.g. as the baseline arm of the C25 speed
          bench. *)
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
          set. Only [Pipeline.profile] and [Pipeline.ground_truth] set
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
    cost. This is the resumable interface the SMP machine interleaves:
    each core owns its own [clock] and contexts, so N engines can be
    stepped against a shared L3 in any deterministic order.
    @raise Invalid_argument if [config.probe] is set. *)
val step :
  config -> Hierarchy.t -> Address_space.t -> clock:int ref -> Context.t -> step_result

(** Run [ctx] until it yields, halts, faults, or [clock] reaches
    [deadline]. With [load_block_threshold] set, blocked periods are
    simply waited out (single-context fallback). Dispatches to the
    decoded-µop fast loop when {!fast_engaged} holds, else to
    {!run_reference}.
    @raise Invalid_argument if [config.probe] is set and
    {!fast_engaged} does not hold. *)
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
    @raise Invalid_argument if [config.probe] is set. *)
val run_reference :
  config ->
  Hierarchy.t ->
  Address_space.t ->
  clock:int ref ->
  ?deadline:int ->
  Context.t ->
  stop

(** Would {!run} take the fast path under this config? It does when
    [fast] is set, no [stall_shape] is armed, and [on_retire],
    [on_load], [on_branch], [on_stall], [on_frontend_stall] and
    [on_yield] are each physically {!Events.nop}'s field — as
    {!Events.compose} leaves every field no element observes.
    [on_opmark] may be anything: the fast loop calls it at each
    [Opmark] with the same [~ctx ~pc ~cycle] as {!step}. [probe] does
    not enter into it: a probe needs the fast loop, it does not choose
    it.
    Exported for [test_engine_diff] only. *)
val fast_engaged : config -> bool

(** Exported for [test_binopt], [test_core], [test_cpu], [test_pmu] only. *)
val pp_stop : Format.formatter -> stop -> unit
