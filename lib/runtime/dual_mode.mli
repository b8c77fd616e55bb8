(** Dual-mode (asymmetric-concurrency) execution of one primary, §3.3.

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
    among themselves ([drain], default true).

    [run] is a driver over one {!Core_sched} core, created with the
    rotating cursor rule (every dispatch moves on to the next
    scavenger; see {!Core_sched.create}) and, when [watchdog] is set,
    an armed watchdog ({!Core_sched.set_watchdog}). *)

open Stallhide_cpu

type config = {
  engine : Engine.config;
  switch : Switch_cost.t;
  drain : bool;
  watchdog : Core_sched.watchdog option;  (** [None] (the default) disables enforcement *)
}

val default_config : config

type result = {
  sched : Scheduler.result;
  primary_done_at : int;  (** clock when the primary halted; -1 if it did not *)
  stats : Core_sched.stats;
      (** the core's counters: [scav_dispatches] counts every dispatch that
          went to a scavenger, the drain's included; [watchdog_*] the verdicts *)
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
