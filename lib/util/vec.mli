(** Growable array (the standard library gains [Dynarray] only in 5.2). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a

(** [to_array v] copies the contents into a fresh array. *)
val to_array : 'a t -> 'a array

val to_list : 'a t -> 'a list

val iter : ('a -> unit) -> 'a t -> unit

val clear : 'a t -> unit
