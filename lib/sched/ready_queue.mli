(** FIFO ready queue with the exposure API of §4.2: an existing
    scheduler can let the stall-hiding mechanism *see* what is runnable
    ([peek_all]) so yields have switch targets, without giving up
    dispatch control. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit

val pop_opt : 'a t -> 'a option

val length : 'a t -> int

val is_empty : 'a t -> bool

(** Oldest-first snapshot; does not consume. *)
val peek_all : 'a t -> 'a list

val clear : 'a t -> unit
