(** Cycle-distance analysis: min/max instruction costs, prefetch lead
    distances, and proven inter-yield interval bounds.

    This subsumes the witness search of [Verify.Checks.interval_bound]
    and the distance fixpoint of [Binopt.Scavenger_pass]: yield-free
    counted loops with proven trip counts get a finite cycle budget
    instead of being declared unbounded, and the fixpoint needs no
    target-proportional iteration cap because every yield-free back
    edge is cut. *)

open Stallhide_isa
open Stallhide_mem
open Stallhide_binopt

(** Cycles the instruction is guaranteed to occupy the core (loads pay
    at least the L1 latency).
    Exported for [test_analysis] only. *)
val min_cost : Memconfig.t -> Instr.t -> int

(** Worst-case cycles (loads pay DRAM, accelerator waits pay the full
    operation latency).
    Exported for [test_analysis] only. *)
val max_cost : Memconfig.t -> Instr.t -> int

(** Guaranteed cycles between a prefetch issuing at [prefetch_pc] and
    the paired demand load at [load_pc] on the straight-line path
    between them (sum of {!min_cost} over [prefetch_pc .. load_pc-1]).
    A lead of at least [dram_latency] proves the load hits. *)
val prefetch_lead : Memconfig.t -> Program.t -> prefetch_pc:int -> load_pc:int -> int

type budgeted = {
  header_pc : int;
  trips : int;
  budget : float;  (** (trips - 1) x summed body cost, in cycles *)
}

type result = {
  converged : bool;
      (** false only for irreducible yield-free cycles — treat as
          unbounded *)
  worst : float;  (** longest yield-free path, cycles *)
  worst_pc : int;
  witness : int list;  (** block-entry chain feeding [worst_pc] *)
  budgeted : budgeted list;  (** yield-free loops with proven budgets *)
  unproven : Dominators.loop list;
      (** yield-free loops with no proven trip count: unbounded *)
}

(** [yield_free_paths ~cost ~trips cfg]: longest yield-free path in
    cycles under the per-pc cost model [cost], bounding yield-free
    loops via [trips] (proven iteration count by header pc, e.g.
    {!Loop_bounds.trips_at}). *)
val yield_free_paths :
  cost:(int -> float) -> trips:(header_pc:int -> int option) -> Cfg.t -> result
