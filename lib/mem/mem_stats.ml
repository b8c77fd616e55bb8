type t = {
  mutable demand_accesses : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable dram_accesses : int;
  mutable prefetches : int;
  mutable useless_prefetches : int;
}

let create () =
  {
    demand_accesses = 0;
    l1_hits = 0;
    l2_hits = 0;
    l3_hits = 0;
    dram_accesses = 0;
    prefetches = 0;
    useless_prefetches = 0;
  }
