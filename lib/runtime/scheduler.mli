(** Cooperative coroutine schedulers over the simulated CPU.

    - {!run_sequential} — no interleaving: yields resume the same
      context at zero cost (the "do nothing" baseline that exposes
      every stall).
    - {!run_round_robin} — symmetric batch interleaving in the style of
      CoroBase / killer-nanoseconds: on every yield, switch (paying the
      liveness-aware switch cost) to the next runnable coroutine.

    All schedulers share one clock, hierarchy and memory image across
    contexts, so coroutines contend for cache exactly as they would on
    one core. A switch's cost also goes to [engine]'s probe
    ({!Probe.switch}), keyed by the yield's pc. *)

open Stallhide_cpu


type result = {
  cycles : int;  (** final clock value *)
  stall : int;  (** memory stall cycles paid across contexts *)
  switch_cycles : int;
  switches : int;
  instructions : int;
  completed : int;  (** contexts that reached [Halt] *)
  faults : string list;
}

(** [busy r] = [cycles - stall - switch_cycles]: cycles spent executing
    instructions (incl. L1 hits and condition checks). *)
val busy : result -> int

val efficiency : result -> float

val run_sequential :
  ?engine:Engine.config ->
  ?max_cycles:int ->
  ?obs:Stallhide_obs.Stream.t ->
  Stallhide_mem.Hierarchy.t ->
  Stallhide_mem.Address_space.t ->
  Context.t array ->
  result

val run_round_robin :
  ?engine:Engine.config ->
  ?max_cycles:int ->
  ?obs:Stallhide_obs.Stream.t ->
  switch:Switch_cost.t ->
  Stallhide_mem.Hierarchy.t ->
  Stallhide_mem.Address_space.t ->
  Context.t array ->
  result

(** [collect ctxs ~clock ~switches ~switch_cycles ~faults] builds a
    result: [stall], [instructions] and [completed] are summed over
    [ctxs], the rest is given. *)
val collect :
  Context.t array ->
  clock:int ->
  switches:int ->
  switch_cycles:int ->
  faults:string list ->
  result

(** [traced ?obs engine hier mem ~clock ~deadline ctx] runs the engine
    and records the dispatch span into the telemetry stream [obs]
    (scheduler building block). Scheduling-level events ([Dispatch],
    [Context_switch], [Scavenger_escalation]) go to [obs]; engine-level
    events come from [engine]'s probe, independent of it. An empty
    dispatch (no cycle elapsed) records no span.
    {!Stallhide_obs.Stream.timeline} draws the spans. *)
val traced :
  ?obs:Stallhide_obs.Stream.t ->
  Engine.config ->
  Stallhide_mem.Hierarchy.t ->
  Stallhide_mem.Address_space.t ->
  clock:int ref ->
  deadline:int ->
  Context.t ->
  Engine.stop
