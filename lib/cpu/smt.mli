(** Simultaneous-multithreading model.

    K hardware contexts share one core. A context that would stall on a
    load instead *blocks* (its data
    arrives later) and the core issues from the next ready context —
    a zero-cost hardware switch. When every context is blocked the core
    idles, which is exactly the situation the paper points at: with only
    2–8 hardware contexts, memory-bound code cannot keep the core busy.

    Yield instructions are invisible to hardware and are executed as
    ordinary (free) instructions. *)

type result = {
  cycles : int;  (** total wall-clock cycles *)
  busy : int;  (** cycles the core issued instructions *)
  idle : int;  (** cycles every context was blocked *)
  instructions : int;
  faults : string list;
}

(** Run all contexts to completion (or until [max_cycles]), stepping
    each through {!Engine.step} under [engine] (default
    {!Engine.default_config}), whose opmark observer and probe see
    every context.
    @raise Invalid_argument as {!Engine.step}. *)
val run :
  ?engine:Engine.config ->
  Stallhide_mem.Hierarchy.t ->
  Stallhide_mem.Address_space.t ->
  Context.t array ->
  max_cycles:int ->
  result
