(** Scavenger yield instrumentation (§3.3).

    Places *conditional* yields so that, along any execution path, the
    distance between consecutive yield points is approximately
    [target_interval] cycles — bounded but long enough to cover an
    L2/L3 miss. Per the paper, the per-instruction latency estimate
    comes from LBR profiles when available ([pc_cycles]), with a static
    base-cost fallback bounding the worst case; the planner runs a
    distance dataflow over the CFG to a fixpoint, treating every
    existing yield (primary or scavenger) as a reset.

    The pass preserves {e cooperative atomicity}: it never inserts a
    yield between a load and the store that completes its
    read-modify-write of the same address (coroutine code relies on
    runs between yields being atomic), deferring the yield past the
    store instead. When a window would run the distance past {!bound},
    the yield goes before the load that opens it; a window whose own
    cost passes the bound still overruns it.

    Runs after the primary pass; [pc_cycles] is queried with *current*
    program pcs (compose with the rewrite map as needed). *)

open Stallhide_isa

type opts = {
  target_interval : int;  (** desired inter-yield distance, cycles *)
  pc_cycles : int -> float option;
      (** LBR estimate per execution of a pc; {!static_cost} where [None] *)
  loop_bounds : int -> int option;
      (** proven trip count of the yield-free loop whose header starts
          at the given pc (e.g. [Stallhide_analysis.Loop_bounds.trips_at]
          partially applied). A bounded loop whose total extra distance
          fits the target is budgeted instead of yielded; everything
          else gets a scavenger yield seeded in its body. Default: no
          bounds proven. *)
}

val default_opts : opts

(** The static worst-case cost of the instruction at a pc (§3.3):
    {!Stallhide_isa.Cost.base} plus 4 cycles for a load. The pass plans
    with it where no LBR estimate exists, and
    {!Stallhide_verify.Checks.interval_bound} prices every path with it. *)
val static_cost : Program.t -> int -> float

(** The longest yield-free path the pass promises for a target: the
    target plus one target of slack, which a yield deferred past a
    read-modify-write window may use. The verifier checks this bound. *)
val bound : target:int -> int

type report = {
  inserted : int;
  sites : int list;  (** pcs (pre-rewrite coordinates) that received a yield *)
  uncovered_loops : int;
      (** natural loops still lacking any yield after the pass — such a
          cycle has an unbounded inter-yield interval, so a nonzero
          count means the pass failed to bound the worst case *)
}

val run : opts -> Program.t -> Program.t * int array * report
