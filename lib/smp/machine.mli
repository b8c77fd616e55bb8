(** The N-core machine: N private-L1/L2 engines with their own
    dual-mode schedulers ({!Stallhide_runtime.Core_sched}), one shared
    contended L3 ({!Stallhide_mem.Shared_l3}), a policy-driven request
    dispatcher ({!Stallhide_sched.Dispatch}), and cross-core scavenger
    work stealing.

    Stepping is deterministic: the machine always steps the runnable
    core with the smallest local clock (lowest id on ties), so the
    interleaving — and with it every shared-L3 admission decision and
    steal — is a pure function of the configuration and the request
    trace. Same seed, same config ⇒ bit-identical per-core cycle and
    steal counts. *)

open Stallhide_cpu
open Stallhide_mem
open Stallhide_runtime
open Stallhide_sched

(** How the N cores advance: one global loop always steps the
    lowest-clock core. [Interleaved] is the only mode. The type and the
    [config.sync] field remain only because [perfbench/serving.ml]
    builds a full {!config} literal that names it. *)
type sync = Interleaved

type config = {
  cores : int;
  memcfg : Memconfig.t;
  l3_window : int;  (** shared-L3 port window, cycles *)
  l3_budget : int;  (** below-L2 services admitted per window; <= 0 unlimited *)
  core : Core_sched.config;  (** per-core scheduler/engine config *)
  steal : bool;  (** enable cross-core scavenger stealing *)
  max_cycles : int;
  prepare_core : int -> Hierarchy.t -> unit;
      (** called once per core on its freshly built hierarchy, before
          any request runs — the hook fault injection and causal
          counterfactuals use to arm spikes or level scaling on every
          core deterministically (default: no-op) *)
  sync : sync;  (** always [Interleaved] *)
  trace : bool;
      (** default [false]: the engine stays as given, and the
          per-core event streams carry only [Steal] events. [true]
          gives each core's engine a probe of its own (in place of any
          in [core.engine]) feeding that core's stream, and records
          per-slice dispatch events and per-request
          [Span_open]/[Span_close] — what the critical-path extractor
          and Perfetto export read. [core.engine.fast] picks the
          interpreter either way, and simulated statistics are the
          same. *)
}

(** 4 cores, default memory geometry, window 32 / budget 16,
    [Core_sched.default_config], stealing on. *)
val default_config : config

type request = {
  rid : int;
  key : int;
  home : int;  (** key-hash home shard *)
  arrival : int;
  ctx : Context.t;
  mutable served_by : int;  (** dispatch decision; -1 before release *)
  mutable finished_at : int;  (** -1 until completion *)
}

val request : rid:int -> key:int -> home:int -> arrival:int -> Context.t -> request

type core_result = {
  core_id : int;
  cycles : int;  (** this core's final local clock *)
  stats : Core_sched.stats;
  mem : Mem_stats.t;
  stream : Stallhide_obs.Stream.t;  (** only steals unless [config.trace] *)
  sojourns : int list;  (** completion - arrival, for requests finished here *)
  faults : string list;
}

type result = {
  cycles : int;  (** makespan: max core clock *)
  completed : int;
  faulted : int;
  per_core : core_result array;
  requests : request array;
      (** the served requests with their dispatch/completion stamps —
          what the critical-path extractor joins against the per-core
          event streams *)
  steals : int;
  donations : int;
  l3 : Shared_l3.stats;
  summary : Latency.summary;  (** per-core summaries merged *)
}

(** The machine as an incrementally steppable simulation — the same
    engine {!run} drives to completion, opened up so an outer
    discrete-event loop (the M-machine cluster) can interleave request
    submission with stepping. Determinism is unchanged: the sequence of
    per-core scheduler operations is a pure function of the submission
    trace, and {!run} is a thin wrapper over this module.

    Submissions must arrive in non-decreasing [arrival] order, but need
    not be known up front. A machine that ran ahead of a later
    submission's [arrival] (its cores idled past it) serves the request
    at its current clock — the bounded anachronism a real NIC's rx
    queue absorbs. *)
module Live : sig
  type t

  val create :
    ?config:config ->
    policy:Dispatch.policy ->
    mem:Address_space.t ->
    scavengers:Context.t list array ->
    unit ->
    t

  (** Enqueue one request ([arrival] must be >= the previous
      submission's). It is released to a core once the machine clock
      reaches the arrival.
      @raise Invalid_argument on out-of-order arrival or bad home. *)
  val submit : t -> request -> unit

  (** Smallest core clock — the machine's position in simulated time. *)
  val clock : t -> int

  (** When the machine would next do productive work: its clock while
      any core is busy, the next pending arrival when drained, [None]
      when {!quiescent}. The cluster's min-time loop keys on this. It
      depends only on this machine's own state, which only {!submit}
      and {!step} change — so a caller may cache it between those calls
      ({!set_scavengers_enabled} does not move it). *)
  val next_action : t -> int option

  (** No pending or in-flight request on any core. *)
  val quiescent : t -> bool

  (** Pending releases plus every core's queue depth — the load signal
      a balancer or brownout controller reads. *)
  val backlog : t -> int

  (** Release due arrivals and step the lowest-clock core once;
      [Idle] only when {!quiescent} (or past [max_cycles]). *)
  val step : t -> Stallhide_runtime.Core_sched.outcome

  (** Called after internal bookkeeping whenever a request completes —
      the cluster's completion-to-response hook. *)
  val set_on_complete : t -> (request -> core:int -> now:int -> unit) -> unit

  (** Brownout demotion fan-out:
      {!Stallhide_runtime.Core_sched.set_scavengers_enabled} on every
      core. *)
  val set_scavengers_enabled : t -> bool -> unit

  (** Snapshot the machine into a {!result}. *)
  val finish : t -> result
end

(** [run ~config ~policy ~mem ~requests ~scavengers ()] serves
    [requests] (sorted by arrival; released when the machine clock
    reaches each arrival, steered by [policy] over live queue depths)
    with [scavengers.(i)] seeded into core [i]'s pool. All contexts
    must address [mem]. Returns when every request has completed or
    faulted, or at [max_cycles]. Scavenger leftovers are not drained —
    the makespan is request-serving time. It checks nothing itself:
    {!Live.create} and {!Live.submit} raise.
    @raise Invalid_argument on [cores <= 0], a scavenger array of the
    wrong length, an unsorted request or a home out of range. *)
val run :
  ?config:config ->
  policy:Dispatch.policy ->
  mem:Address_space.t ->
  requests:request list ->
  scavengers:Context.t list array ->
  unit ->
  result

(** Throughput in completed requests per kilocycle. *)
val throughput : result -> float

(** One core's row: [core] (its id), then its 16 counters in ascending
    name order: its clock ([cycles]), its scheduler stats (dispatches,
    steals, switch cycles, ...) and its memory stats (demand accesses,
    hits per level, prefetches). *)
val core_json : core_result -> Stallhide_util.Json.t

(** [{aggregate: {name: n}}]: each of {!core_json}'s counters summed
    over the cores, names in the same order. *)
val counters_json : result -> Stallhide_util.Json.t
