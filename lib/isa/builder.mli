(** Imperative emitter DSL used by the workload generators.

    A builder accumulates {!Program.item}s; [assemble] produces the
    final program. Labels can be created fresh ({!fresh}) so generators
    compose without clashes. *)

type t

val create : unit -> t

(** Append a raw instruction. *)
val ins : t -> Instr.t -> unit

(** Place a label at the current position. *)
val label : t -> string -> unit

(** A fresh label name (not yet placed) derived from [prefix]. *)
val fresh : t -> string -> string

val mov : t -> Reg.t -> Instr.operand -> unit
val movi : t -> Reg.t -> int -> unit
val binop : t -> Instr.binop -> Reg.t -> Reg.t -> Instr.operand -> unit
val addi : t -> Reg.t -> Reg.t -> int -> unit
val load : t -> Reg.t -> Reg.t -> int -> unit
val store : t -> Reg.t -> int -> Reg.t -> unit
val prefetch : t -> Reg.t -> int -> unit
val branch : t -> Instr.cond -> Reg.t -> Instr.operand -> string -> unit
val jump : t -> string -> unit
val yield : t -> Instr.yield_kind -> unit
val opmark : t -> unit
val halt : t -> unit

val assemble : t -> Program.t
