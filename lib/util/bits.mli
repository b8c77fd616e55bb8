(** Bit-set helpers over [int] masks (registers fit in 16 bits). *)

(** Number of set bits. *)
val popcount : int -> int

(** [mem mask i] tests bit [i]. *)
val mem : int -> int -> bool

(** [add mask i] sets bit [i]. *)
val add : int -> int -> int

(** [diff a b] keeps the bits of [a] not in [b]. *)
val diff : int -> int -> int

(** [fold f mask acc] folds [f] over the set bit indices, ascending. *)
val fold : (int -> 'a -> 'a) -> int -> 'a -> 'a
