(** The dual-mode scheduler of one core (§3.3): every SMP, cluster and
    txn-SMP core runs on it, and {!Dual_mode.run} drives one for a
    single primary.

    [Core_sched] owns a core-local clock, a FIFO of pending requests
    (primary-mode contexts) and a pool of scavenger coroutines, and
    exposes a {!step} interface so an external machine can interleave N
    cores deterministically. One [step] makes one dispatch decision:

    - resume (or admit) the current request and run it to its next
      yield/halt; on a primary yield, charge the switch and {e hide}
      the stall: dispatch scavengers until one reaches a timely
      scavenger yield, escalating past scavengers that hit their own
      misses (which scavenger runs next is the cursor rule, see
      {!create});
    - when the local pool runs dry mid-hide, pull ready scavengers from
      the installed {!set_steal_source}, at most [steal_budget] per
      hide phase and [steal_cost] cycles each — the steal happens
      {e inside} the stall being hidden, so a primary never waits on a
      steal to be dispatched;
    - with no request pending, run one scavenger slice (batch work),
      stealing if even that is unavailable;
    - otherwise report [Idle] and leave the clock alone (the machine
      advances it to the next arrival).

    Every switch it charges goes to its engine config's probe too
    ({!Stallhide_cpu.Probe.switch}), keyed by the yield's pc.

    Work stealing only migrates {b cold} scavengers — coroutines that
    have never executed ([Context.started_at < 0]) — so a stolen
    context runs on exactly one core and no register state migrates.

    {2 Watchdog}

    A scavenger is supposed to return the core {e timely}: its
    conditional-yield instrumentation bounds how long it computes per
    dispatch. A rogue scavenger (bad instrumentation, adversarial code)
    breaks that contract and the primary's tail latency with it. The
    watchdog ({!set_watchdog}; off by default) restores the bound at
    the scheduler. It judges only the dispatches that fill a primary's
    stall; batch slices (a {!Dual_mode} drain) are never judged. Each
    judged dispatch that runs past [bound] cycles earns the scavenger a
    strike; [strikes] strikes demote it, benching it for [backoff]
    cycles (doubling on each repeat demotion), and the
    [quarantine_after]-th demotion benches it for the rest of the run.
    Benched and quarantined scavengers are skipped by every dispatch,
    batch slices included. Every verdict is counted in {!stats} and
    emitted as an {!Stallhide_obs.Event.Watchdog} event ([watchdog.*]
    counters in the stream registry). *)

open Stallhide_cpu
open Stallhide_mem

type config = {
  engine : Engine.config;
  switch : Switch_cost.t;
  steal_budget : int;  (** max remote pulls per hide phase (default 1) *)
  steal_cost : int;  (** cycles to pull a remote scavenger (default 24) *)
}

val default_config : config

type watchdog = {
  bound : int;  (** cycle budget per judged scavenger dispatch *)
  strikes : int;  (** overruns tolerated before a demotion *)
  backoff : int;  (** initial bench duration in cycles; doubles per demotion *)
  quarantine_after : int;  (** demotions before permanent quarantine *)
}

val default_watchdog : watchdog

type stats = {
  mutable dispatches : int;  (** primary dispatch slices *)
  mutable scav_dispatches : int;  (** scavenger dispatch slices *)
  mutable switches : int;
  mutable switch_cycles : int;
  mutable steals : int;  (** scavengers pulled from other cores *)
  mutable donated : int;  (** scavengers handed to other cores *)
  mutable escalations : int;  (** scavenger-hit-own-miss handoffs *)
  mutable completions : int;  (** requests run to [Halt] *)
  mutable fault_count : int;
  mutable watchdog_strikes : int;  (** judged dispatches past the bound *)
  mutable watchdog_demotions : int;  (** temporary benchings issued *)
  mutable watchdog_quarantined : int;  (** scavengers benched for good *)
}

type t

(** [create ?config ?obs ?rotate hier mem]. [rotate] picks the cursor
    rule, which decides the scavenger that runs next.

    - Depth-first, the default and every [Machine] core's rule: the
      same scavenger resumes until it halts, escalates or faults, so
      later pool entries stay cold and can be stolen.
    - [~rotate:true], {!Dual_mode.run}'s rule: after any dispatch the
      cursor moves past that scavenger.

    Each rule is better on some run, so both stay. Measured with the
    full bench, which is deterministic:
    - [Dual_mode] made depth-first: C7's dual-mode efficiency falls
      from 92.4% to 58.4% and its primary p99 from 1,776 to 1,566
      cycles; C8's efficiency at interval 50 falls from 79.4% to
      51.4%; C18's rogue rows move.
    - Machine cores made to rotate: C19's 1-core p50 goes from 10,652
      to 6,504 cycles and its 8-core p99 from 6,734 to 7,404; C19b,
      C23, C23b and C24b move; the perfbench fingerprints fail (smp-kv
      seed 1 p99 7,768 to 7,205, cluster-kv p99 38,252 to 41,246).
    - Rotating only on cores with no steal source still moves C19b's
      two steal-off rows (d-FCFS 0.672 to 0.687 req/kcycle, JBSQ 1.268
      to 1.266). *)
val create :
  ?config:config ->
  ?obs:Stallhide_obs.Stream.t ->
  ?rotate:bool ->
  Hierarchy.t ->
  Address_space.t ->
  t

val config : t -> config

val clock : t -> int

(** Idle clock advance (to the next arrival); never moves backwards. *)
val advance_clock : t -> int -> unit

val stats : t -> stats

val hierarchy : t -> Hierarchy.t

val faults : t -> string list

(** Enqueue a request; it will run in primary mode, FIFO. *)
val submit : t -> Context.t -> unit

(** Pending requests: queued plus the one being served, i.e. the depth
    a JBSQ dispatcher compares. *)
val queue_depth : t -> int

val add_scavenger : t -> Context.t -> unit

(** Ready, never-started scavengers — what {!donate} can give away.
    O(1): the count is kept current on add, donate and each
    scavenger's first dispatch. *)
val stealable : t -> int

(** Remove and return one cold scavenger, or [None]. *)
val donate : t -> Context.t option

(** [set_steal_source t f] installs the machine's steal path: [f ()]
    picks a victim core and returns [donate victim]. *)
val set_steal_source : t -> (unit -> Context.t option) -> unit

(** [set_on_complete t f] is called as [f ctx ~now] when a request
    halts (not for scavengers). *)
val set_on_complete : t -> (Context.t -> now:int -> unit) -> unit

(** Brownout demotion: with scavengers disabled the core neither hides
    stalls nor burns down batch work — primaries run alone, stalls stay
    exposed, and an empty request queue reports [Idle] immediately.
    Cluster-wide overload control flips this to shed batch work before
    missing the latency SLO. Default: enabled. *)
val set_scavengers_enabled : t -> bool -> unit

(** Arm the watchdog (see above). Machine cores leave it unarmed. *)
val set_watchdog : t -> watchdog -> unit

type outcome =
  | Worked  (** ran at least one slice; clock advanced *)
  | Idle  (** nothing runnable: no request, no ready/stealable scavenger *)

val step : t -> deadline:int -> outcome

(** True when no request is pending or in flight. *)
val quiescent : t -> bool
