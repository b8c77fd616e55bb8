(** Architectural registers of the simulated machine.

    The machine has {!count} general-purpose integer registers [r0]..[r15].
    Register sets elsewhere in the code base (liveness, switch-cost
    accounting) are [int] bit masks, which is why [count] must stay below
    the word size. *)

type t = int

(** Number of architectural registers (16). *)
val count : int

(** [make i] checks the range and returns register [i].
    Exported for [test_isa] only.
    @raise Invalid_argument if [i] is out of range. *)
val make : int -> t

val r0 : t
val r1 : t
val r2 : t
val r3 : t
val r4 : t
val r5 : t
val r6 : t
val r7 : t
val r8 : t
val r9 : t
val r10 : t
val r11 : t
val r12 : t
val r13 : t
val r14 : t
val r15 : t

(** Textual name, e.g. ["r3"]. *)
val name : t -> string

(** Parse ["rN"]. Returns [None] for anything else. *)
val of_string : string -> t option
