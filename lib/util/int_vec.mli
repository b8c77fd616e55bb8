(** Growable array of ints, in fixed-size chunks. Unlike an
    [int Vec.t], its stores need no write barrier, and growing it never
    copies or discards an outgrown array, so it suits large, long-lived
    buffers of flat records. *)

type t

val create : unit -> t

val length : t -> int

val push : t -> int -> unit

(** [append v a pos len] pushes [a.(pos)] .. [a.(pos + len - 1)].
    @raise Invalid_argument if that is not a valid slice of [a]. *)
val append : t -> int array -> int -> int -> unit

(** @raise Invalid_argument if the index is out of bounds. *)
val get : t -> int -> int
