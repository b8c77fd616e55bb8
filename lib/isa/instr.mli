(** Instructions of the simulated RISC-like machine.

    The instruction set is deliberately small but complete enough to
    compile realistic memory-bound kernels: ALU ops, loads/stores with
    base+displacement addressing, conditional branches, calls, a
    non-blocking [Prefetch], the cooperative [Yield] family that the
    instrumentation passes insert, and [Opmark], a zero-cost marker that
    delimits application-level operations for latency accounting.

    Control-flow targets are symbolic labels; {!Program.assemble}
    resolves them to instruction indices. *)

type operand = Reg of Reg.t | Imm of int

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

type cond = Eq | Ne | Lt | Le | Gt | Ge

(** The two yield flavours of the paper's instrumentation design:
    - [Primary] yields are unconditional; the primary instrumentation
      phase places them (after a prefetch) at loads that likely miss.
    - [Scavenger] yields are conditional: they are taken only by a
      coroutine running in scavenger mode and otherwise cost a single
      condition-check cycle. The scavenger instrumentation phase places
      them to bound the inter-yield interval. *)
type yield_kind = Primary | Scavenger

type t =
  | Binop of binop * Reg.t * Reg.t * operand  (** [rd <- rs op operand] *)
  | Mov of Reg.t * operand  (** [rd <- operand] *)
  | Load of Reg.t * Reg.t * int  (** [rd <- mem\[rs + disp\]] *)
  | Store of Reg.t * int * Reg.t  (** [mem\[rs + disp\] <- rv] *)
  | Prefetch of Reg.t * int  (** non-blocking fill of the line of [rs + disp] *)
  | Branch of cond * Reg.t * operand * string  (** if [rs cond operand] goto label *)
  | Jump of string
  | Call of string
  | Ret
  | Yield of yield_kind
  | Yield_cond of Reg.t * int
      (** §4.1 hardware-support variant: test whether the line of
          [rs + disp] is cache-resident; if so fall through (one check
          cycle), otherwise prefetch it and yield. *)
  | Guard of Reg.t * int
      (** SFI bounds check (§4.2): fault unless [rs + disp] lies inside
          the executing context's protection domain. One cycle; a
          context with no domain set passes every guard. *)
  | Accel_issue of Reg.t * int
      (** start an asynchronous onboard-accelerator operation on the
          word at [rs + disp]; one outstanding operation per context *)
  | Accel_wait of Reg.t
      (** [rd <- result] of the outstanding accelerator operation,
          stalling until it completes — the second event class of the
          paper's 10s–100s-of-ns band *)
  | Opmark  (** marks completion of one application-level operation *)
  | Nop
  | Halt

(** Bit mask of registers read by the instruction. [Call]/[Ret] are
    treated as reading every register (conservative for liveness). *)
val uses : t -> int

(** Bit mask of registers written by the instruction. *)
val defs : t -> int

(** The symbolic control-flow target, if any. *)
val target : t -> string option

(** True for [Load _]. *)
val is_load : t -> bool

(** True for instructions that end a basic block ([Branch], [Jump],
    [Ret], [Halt]). [Call] falls through and does not end a block. *)
val ends_block : t -> bool

val equal : t -> t -> bool

(** Exported for [test_isa] only. *)
val pp : Format.formatter -> t -> unit

(** Assembly-like rendering, e.g. ["load r1, [r2+8]"]. *)
val to_string : t -> string
