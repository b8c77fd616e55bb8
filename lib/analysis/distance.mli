(** Cycle-distance analysis: minimum instruction costs, prefetch lead
    distances, and the yield-free distance analysis that both the
    scavenger pass ({!Scavenger_pass}) and the verifier's interval check
    run: one enumeration of yield-free loops with their proven budgets,
    and one block fixpoint over yield-free distances. A yield-free
    counted loop with a proven trip count gets a finite cycle budget
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

(** Guaranteed cycles between a prefetch issuing at [prefetch_pc] and
    the paired demand load at [load_pc] on the straight-line path
    between them (sum of {!min_cost} over [prefetch_pc .. load_pc-1]).
    A lead of at least [dram_latency] proves the load hits. *)
val prefetch_lead : Memconfig.t -> Program.t -> prefetch_pc:int -> load_pc:int -> int

(** Every natural loop some iteration of which runs yield-free
    ({!Dominators.unyielded_loops}), with its budget when
    {!Loop_bounds.infer} proves its trip count on this CFG: (trips - 1)
    x the body's summed cost under the per-pc cost model [cost], in
    cycles. [None] when no trip count is proven. *)
val yield_free_loops : cost:(int -> float) -> Cfg.t -> (Dominators.loop * float option) list

(** [fixpoint ~walk ~cut cfg] iterates [walk block d_in] (the block's
    outgoing yield-free distance given its incoming one) over the
    blocks until no outgoing distance moves. A block's incoming
    distance is the max over its predecessors' outgoing distances,
    skipping the back edge of every loop in [cut], plus the budget
    [cut] charges the block as that loop's header. Returns the blocks
    whose outgoing distance still moved when 2 x blocks + 8 rounds
    ended, ascending, which only an irreducible yield-free cycle
    causes; [[]] when it converged. *)
val fixpoint :
  walk:(Cfg.block -> float -> float) -> cut:(Dominators.loop * float) list -> Cfg.t -> int list

type result = {
  converged : bool;
      (** false only for irreducible yield-free cycles — treat as
          unbounded *)
  worst : float;  (** longest yield-free path, cycles *)
  worst_pc : int;
  witness : int list;  (** block-entry chain feeding [worst_pc] *)
  budgeted : int;  (** how many yield-free loops have proven budgets *)
  unproven : Dominators.loop list;
      (** yield-free loops with no proven trip count: unbounded *)
}

(** [yield_free_paths ~cost cfg]: longest yield-free path in cycles
    under the per-pc cost model [cost]: {!fixpoint} over
    {!yield_free_loops}, with every loop's back edge cut and each
    proven loop's header charged its budget. *)
val yield_free_paths : cost:(int -> float) -> Cfg.t -> result
