(** Dual-mode (asymmetric-concurrency) execution, §3.3.

    One latency-sensitive *primary* coroutine runs in primary mode; a
    pool of *scavenger*-mode coroutines fills its stalls:

    - when the primary hits a primary-phase yield (a likely miss), the
      scheduler switches to a scavenger;
    - a scavenger runs until its first yield of any kind. A
      scavenger-phase yield means "I have run long enough" — control
      returns to the primary. A primary-phase yield means the scavenger
      hit its *own* likely miss too early, so the scheduler scales up:
      it dispatches the next scavenger instead (on-demand scaling);
    - when the pool is exhausted (or empty), control returns to the
      primary regardless.

    After the primary halts, the remaining scavengers optionally drain
    round-robin ([drain], default true).

    {2 Watchdog}

    A scavenger is supposed to return the core *timely* — its
    conditional-yield instrumentation bounds how long it computes per
    dispatch. A rogue scavenger (bad instrumentation, adversarial code)
    blows that contract and the primary's tail latency with it. The
    optional watchdog restores the bound at the scheduler level: each
    dispatch that overruns [bound] cycles earns the context a strike;
    [strikes] strikes demote it — it is benched for [backoff] cycles,
    doubling on each repeat demotion — and the [quarantine_after]-th
    demotion retires it for the rest of the run. Benched or quarantined
    scavengers are skipped by both the stall-filling rotation and the
    final drain. Every verdict is emitted as an {!Stallhide_obs.Event.Watchdog}
    event ([watchdog.*] counters in the stream registry). *)

open Stallhide_cpu

type watchdog = {
  bound : int;  (** cycle budget per scavenger dispatch *)
  strikes : int;  (** overruns tolerated before a demotion *)
  backoff : int;  (** initial bench duration in cycles; doubles per demotion *)
  quarantine_after : int;  (** demotions before permanent quarantine *)
}

val default_watchdog : watchdog

type config = {
  engine : Engine.config;
  switch : Switch_cost.t;
  drain : bool;
  watchdog : watchdog option;  (** [None] (the default) disables enforcement *)
}

val default_config : config

type result = {
  sched : Scheduler.result;
  primary_done_at : int;  (** clock when the primary halted; -1 if it did not *)
  scavenger_switches : int;  (** dispatches that went to a scavenger *)
  watchdog_strikes : int;  (** dispatches caught past the watchdog bound *)
  watchdog_demotions : int;  (** temporary benchings (backoff) issued *)
  watchdog_quarantined : int;  (** contexts permanently retired *)
}

val run :
  ?config:config ->
  ?max_cycles:int ->
  ?obs:Stallhide_obs.Stream.t ->
  Stallhide_mem.Hierarchy.t ->
  Stallhide_mem.Address_space.t ->
  primary:Context.t ->
  scavengers:Context.t array ->
  result
