(** Assembled programs.

    A program is the "binary" of the simulated machine: a flat array of
    instructions with control-flow targets resolved to instruction
    indices. It also keeps the symbolic label table and per-instruction
    annotations so that the binary-level instrumentation passes can
    rewrite it (via {!to_items} / {!assemble}) without losing
    information — mirroring the disassemble/rewrite/reassemble cycle of
    a binary optimizer. *)

type item = Label of string | Ins of Instr.t

type annot = { mutable live_regs : int option }
(** [live_regs] at a yield site is the number of registers a context
    switch there must save/restore, set by liveness annotation
    ({!Stallhide_binopt.Liveness.annotate_yields}). [None] means "all". *)

type t

exception Error of string

(** [assemble items] resolves labels.
    @raise Error on duplicate or undefined labels, or an empty program. *)
val assemble : item list -> t

val length : t -> int

val instr : t -> int -> Instr.t

(** Resolved control-flow target of the instruction at [pc]; [-1] when
    the instruction has none. *)
val resolved_target : t -> int -> int

(** Index of a label.
    @raise Not_found if unknown. *)
val label_index : t -> string -> int

val has_label : t -> string -> bool

val annot : t -> int -> annot

(** The program's decoded micro-ops, built on the first call and shared
    by every later one: all contexts running this program read the same
    arrays.
    @raise Invalid_argument (from {!Uop.decode}) at every call while a
    register operand is out of range; nothing is cached then. *)
val uops : t -> Uop.t

(** Round-trips the program back to an item list (labels precede the
    instruction they mark; trailing labels are preserved). *)
val to_items : t -> item list

(** All instructions, in order. *)
val code : t -> Instr.t array

(** Indices of the [Load] instructions. *)
val load_sites : t -> int list

(** Number of [Yield]/[Yield_cond] instructions.
    Exported for [test_binopt], [test_core], [test_faults], [test_isa], [test_verify],
    [test_workloads] only. *)
val yield_count : t -> int

(** Disassembly that {!Asm.parse} accepts back (labels + instructions,
    no pc numbers). *)
val pp : Format.formatter -> t -> unit

(** Debug listing with pc numbers.
    Exported for [test_core] only. *)
val pp_listing : Format.formatter -> t -> unit
