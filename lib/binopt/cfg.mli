(** Control-flow graph over an assembled program.

    Basic blocks are maximal straight-line runs; leaders are the program
    entry, branch/jump/call targets, and fall-through points after
    block-ending instructions. [Call] does not end a block (the callee
    is reached by its own leader; no interprocedural edges are added —
    liveness treats calls conservatively instead). *)

open Stallhide_isa

type block = {
  id : int;
  first : int;  (** pc of the first instruction *)
  last : int;  (** pc of the last instruction (inclusive) *)
  mutable succs : int list;
  mutable preds : int list;
}

type t

val build : Program.t -> t

val program : t -> Program.t

val block_count : t -> int

val block : t -> int -> block

(** Block containing [pc]. *)
val block_of_pc : t -> int -> block

(** Whether [pc] starts a basic block.
    Exported for [test_binopt] only. *)
val is_leader : t -> int -> bool
