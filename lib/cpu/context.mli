(** An execution context — the architectural state of one coroutine
    (or one SMT hardware thread): registers, pc, call stack, run mode,
    and per-context accounting. *)

open Stallhide_isa

(** §3.3 dual-mode execution. In [Primary] mode, scavenger-phase
    conditional yields are switched off (they cost one check cycle); in
    [Scavenger] mode they are taken. *)
type mode = Primary | Scavenger

type status = Ready | Done | Faulted of string

(** The register file is a flat [Bigarray] of unboxed ints: the fast
    step loop indexes it with [regs.{r}] and the whole file can be
    blitted without per-element boxing. Structural equality ([=]) on
    bigarrays compares contents, so snapshots still diff naturally. *)
type regfile = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  id : int;
  program : Program.t;
  regs : regfile;
  mutable pc : int;
  mutable status : status;
  mutable mode : mode;
  mutable call_stack : int array;
      (** flat return-pc stack; valid entries are [0 .. call_sp-1].
          Empty until the first call, which makes it 32 slots; grows by
          doubling after that — use {!push_call}/{!pop_call}. *)
  mutable call_sp : int;
  mutable domain : (int * int) option;
      (** SFI protection domain [lo, hi): [Guard] instructions fault on
          addresses outside it; [None] disables checking *)
  mutable accel_done_at : int;
      (** completion cycle of the outstanding accelerator operation;
          [-1] when none is pending *)
  mutable accel_result : int;
  (* accounting *)
  mutable instructions : int;
  mutable stall_cycles : int;
  mutable started_at : int;  (** first cycle the context ran, -1 before *)
}

(** [create ~id ~mode program] starts at pc 0 with zeroed registers. *)
val create : id:int -> mode:mode -> Program.t -> t

(** Initialise registers, e.g. a lane's start pointer. *)
val set_regs : t -> (Reg.t * int) list -> unit

(** Snapshot the register file as a plain int array. *)
val regs_array : t -> int array

val call_depth : t -> int

val push_call : t -> int -> unit

(** Pops and returns the top return pc. Caller must check
    [call_depth t > 0] first. *)
val pop_call : t -> int

val is_ready : t -> bool
