(** Demand/prefetch counters for the hierarchy. *)

type t = {
  mutable demand_accesses : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable dram_accesses : int;
  mutable inflight_hits : int;  (** demand hits on a line still being filled *)
  mutable prefetches : int;
  mutable useless_prefetches : int;  (** prefetch of an already-ready L1 line *)
}

val create : unit -> t

val reset : t -> unit
