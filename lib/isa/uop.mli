(** Pre-decoded micro-ops.

    [decode] lowers an assembled program's instructions once into a
    struct-of-int-arrays form indexed by pc, so the fast-path step loop
    ([Stallhide_cpu.Engine.run] with [fast = true]) dispatches on a
    dense integer opcode and reads operands from flat arrays instead of
    re-matching boxed {!Instr.t} variants every simulated cycle.
    Binop/Branch register- vs immediate-operand forms get distinct
    opcodes; [cost] is the precomputed {!Cost.base}; [target] is the
    resolved control-flow target (-1 when none).

    Callers get the decode through {!Program.uops}, which builds it on
    first use and keeps it on the program: every context running the
    same program — one per request on a serving machine — reads the
    same arrays, so a program is decoded once however many contexts
    run it. *)

(** Opcode constants. Binop opcodes are [op_binop_reg + binop_index]
    (Add..Shr = 0..9) or [op_binop_imm + ...]; branch opcodes are
    [op_branch_reg + cond_index] (Eq..Ge = 0..5) or
    [op_branch_imm + ...]. *)

val op_binop_imm : int

val op_mov_r : int

val op_mov_i : int

val op_load : int

val op_store : int

val op_prefetch : int

val op_branch_reg : int

val op_branch_imm : int

val op_jump : int

val op_call : int

val op_ret : int

val op_yield_primary : int

val op_yield_scavenger : int

val op_yield_cond : int

val op_guard : int

val op_accel_issue : int

val op_accel_wait : int

val op_opmark : int

val op_nop : int

type t = {
  len : int;
  op : int array;
  a : int array;  (** destination register (or stored-value register) *)
  b : int array;  (** base / source register *)
  c : int array;  (** immediate / displacement / second source register *)
  cost : int array;  (** precomputed {!Cost.base} *)
  target : int array;  (** resolved control-flow target, -1 if none *)
}

(** [decode code ~targets] lowers [code], whose resolved control-flow
    targets are [targets] (same length, -1 where none).
    @raise Invalid_argument if a register operand is outside
    [0, Reg.count): the fast loop reads the register file unchecked. *)
val decode : Instr.t array -> targets:int array -> t
