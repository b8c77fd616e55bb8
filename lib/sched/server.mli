(** A single-core task server: open-loop arrivals of µs-scale tasks,
    scheduled under one of three policies (§4.2):

    - [Run_to_completion] — an event-agnostic scheduler: tasks run FCFS
      and yields are ignored (resumed in place, free); every stall is
      exposed.
    - [Side_integration] — the paper's first integration option: the
      scheduler keeps dispatch control but exposes its ready set, so
      the stall-hiding mechanism can switch to another admitted task at
      every yield (symmetric interleaving across classes).
    - [Event_aware] — the second option: the scheduler itself
      understands short events. Latency-class tasks run in primary
      mode and are serviced FCFS; batch-class tasks run in scavenger
      mode and fill their stalls, returning the core at scavenger
      yields.

    Sojourn time (completion − arrival) per class is the figure of
    merit, next to core efficiency. *)

open Stallhide_cpu
open Stallhide_mem
open Stallhide_runtime

type policy = Run_to_completion | Side_integration | Event_aware

val policy_name : policy -> string

(** Overload protection (runtime self-defense under latency faults):

    - {b admission control} — an arrival finding [max_queue] requests
      already queued is shed at the door ([server.shed]);
    - {b deadline} — a queued request older than [deadline] cycles
      (counted from arrival, or from its last retry release) is not
      started: its client has given up ([server.timeout]);
    - {b retry} — a timed-out request is re-released after a jittered
      exponential backoff ([retry_backoff · 2^k] plus uniform jitter of
      up to the same, seeded by [seed]) at most [max_retries] times
      ([server.retry]); after that it expires for good
      ([server.expired]).

    Started tasks always run to completion: a coroutine cannot be
    restarted mid-flight, and abandoning paid-for work is the overload
    anti-pattern. Counters land in the [obs] stream registry with
    [ctx = -1]. *)
type protection = {
  deadline : int;
  max_retries : int;
  retry_backoff : int;
  max_queue : int;
  seed : int;
}

(** deadline 4096, 2 retries, backoff 1024, queue bound 64.
    Exported for [test_faults] only. *)
val default_protection : protection

type config = {
  policy : policy;
  switch : Switch_cost.t;
  engine : Engine.config;
  max_active : int;  (** admission bound on concurrently-live tasks *)
  protection : protection option;  (** [None] (the default) disables *)
}

val default_config : config

type result = {
  cycles : int;
  idle : int;  (** core idle waiting for arrivals *)
  switches : int;
  switch_cycles : int;
  stall : int;
  completed : int;
  faulted : int;
  shed : int;  (** arrivals dropped by queue-depth admission control *)
  timed_out : int;  (** queued requests found past their deadline *)
  retried : int;  (** timeout re-releases (subset of [timed_out]) *)
  expired : int;  (** requests abandoned after [max_retries] *)
  latency_sojourns : int list;
  batch_sojourns : int list;
}

val efficiency : result -> float

(** Tasks must be sorted by arrival time. [obs] receives
    scheduling-level telemetry ([Dispatch] spans, [Context_switch],
    [Scavenger_escalation]); engine-level events come from the hooks in
    [config.engine], independent of it.
    @raise Invalid_argument otherwise. *)
val run :
  ?config:config ->
  ?max_cycles:int ->
  ?obs:Stallhide_obs.Stream.t ->
  Hierarchy.t ->
  Address_space.t ->
  Task.t list ->
  result
