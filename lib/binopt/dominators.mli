(** Dominator tree and natural-loop detection — the standard binary-
    optimizer analyses backing the worst-case side of the scavenger
    pass: every cycle in the CFG must contain a yield or the inter-yield
    interval is unbounded.

    Immediate dominators are computed with the Cooper–Harvey–Kennedy
    iterative algorithm over a reverse-postorder numbering. *)

type t

val compute : Cfg.t -> t

(** Immediate dominator of block [b]; the entry block (and any
    unreachable block) maps to itself.
    Exported for [test_binopt] only. *)
val idom : t -> int -> int

(** [dominates t a b]: does block [a] dominate block [b]? *)
val dominates : t -> int -> int -> bool

(** Blocks unreachable from the entry.
    Exported for [test_binopt] only. *)
val unreachable : t -> int list

type loop = {
  header : int;  (** the block the back edge targets *)
  back_edge_src : int;
  body : int list;  (** blocks in the natural loop, header included, sorted *)
}

(** Natural loops: one per back edge [src -> header] where [header]
    dominates [src]. *)
val natural_loops : Cfg.t -> t -> loop list

(** Natural loops with no yield on a block dominating the back-edge
    source — i.e. loops some iteration of which can run yield-free, so
    their inter-yield interval is unbounded. A yield on a
    conditionally-skipped path does not cover the loop. The loops the
    scavenger pass budgets or seeds with a yield, and the verifier's
    interval check prices, through
    {!Stallhide_analysis.Distance.yield_free_loops}. *)
val unyielded_loops : Cfg.t -> loop list
