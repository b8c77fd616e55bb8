(** Demand/prefetch counters for the hierarchy. *)

type t = {
  mutable demand_accesses : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable dram_accesses : int;
  mutable prefetches : int;
  mutable useless_prefetches : int;  (** prefetch of an already-ready L1 line *)
}

val create : unit -> t
