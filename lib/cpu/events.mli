(** Hardware event hooks.

    The execution engine fires these callbacks as instructions retire;
    the PMU library implements them (counters, PEBS-style sampling,
    LBR). This is the simulated equivalent of the performance-monitoring
    fabric the paper's profiling step relies on. *)

open Stallhide_isa
open Stallhide_mem

type load_info = {
  ctx : int;  (** context id *)
  pc : int;
  addr : int;
  level : Hierarchy.level;
  stall : int;  (** stall cycles actually paid (after any OoO overlap) *)
  queue : int;
      (** of those, cycles queued at the shared-L3 port (contention);
          0 on single-core hierarchies *)
  cycle : int;
}

type t = {
  on_retire : ctx:int -> pc:int -> instr:Instr.t -> cycle:int -> unit;
  on_load : load_info -> unit;
  on_branch : ctx:int -> pc:int -> target:int -> taken:bool -> cycle:int -> unit;
  on_stall : ctx:int -> pc:int -> cycles:int -> cycle:int -> unit;
  on_frontend_stall : ctx:int -> pc:int -> cycles:int -> cycle:int -> unit;
  on_opmark : ctx:int -> pc:int -> cycle:int -> unit;
  on_yield : ctx:int -> pc:int -> kind:Instr.yield_kind -> fired:bool -> cycle:int -> unit;
      (** every yield-family instruction: [fired = false] when a
          conditional or scavenger-phase yield fell through (the check
          cycle was paid but the core was kept) *)
}

(** Hooks that do nothing. *)
val nop : t

(** [compose hs] fires every hook of every element, in list order.

    A field that no element observes (each element's field is [nop]'s)
    stays physically equal to [nop]'s field, and a field with exactly
    one observer is that observer's closure. {!Engine.fast_engaged}
    reads these fields by physical equality, so composing observers
    that watch only opmarks keeps the decoded-µop loop engaged.
    [compose []] is field-for-field [nop]. *)
val compose : t list -> t
