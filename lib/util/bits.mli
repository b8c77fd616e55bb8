(** Bit-set helpers over [int] masks (registers fit in 16 bits). *)

(** Number of set bits. *)
val popcount : int -> int

(** [mem mask i] tests bit [i]. *)
val mem : int -> int -> bool

(** [add mask i] sets bit [i]. *)
val add : int -> int -> int

(** [remove mask i] clears bit [i].
    Exported for [test_util] only. *)
val remove : int -> int -> int

(** [diff a b] keeps the bits of [a] not in [b]. *)
val diff : int -> int -> int

(** [all n] is the mask with bits [0..n-1] set.
    Exported for [test_util] only. *)
val all : int -> int

(** [fold f mask acc] folds [f] over the set bit indices, ascending. *)
val fold : (int -> 'a -> 'a) -> int -> 'a -> 'a
