(** Scavenger yield instrumentation (§3.3).

    Places *conditional* yields so that, along any execution path, the
    distance between consecutive yield points is approximately
    [target_interval] cycles — bounded but long enough to cover an
    L2/L3 miss. Per the paper, the per-instruction latency estimate
    comes from LBR profiles when available ([pc_cycles]), with a static
    base-cost fallback bounding the worst case.

    The pass and the verifier's interval check
    ({!Stallhide_verify.Checks.interval_bound}) run one analysis: the
    pass enumerates yield-free loops, with the trip counts it proves on
    its own input, through {!Distance.yield_free_loops}, and plans
    through {!Distance.fixpoint}, treating every existing yield
    (primary or scavenger) as a reset. A loop whose proven budget fits
    inside the target is budgeted instead of yielded; every other
    yield-free loop gets a scavenger yield in its latch block.

    The pass preserves {e cooperative atomicity}: it never inserts a
    yield inside a read-modify-write window ({!windows}, the rule
    {!Stallhide_verify.Checks.atomicity} checks), deferring the yield
    past the store instead. When a window would run the distance past
    {!bound}, the yield goes before the load that opens it; a window
    whose own cost passes the bound still overruns it.

    Runs after the primary pass; [pc_cycles] is queried with *current*
    program pcs (compose with the rewrite map as needed). *)

open Stallhide_isa

type opts = {
  target_interval : int;  (** desired inter-yield distance, cycles *)
  pc_cycles : int -> float option;
      (** LBR estimate per execution of a pc; {!static_cost} where [None] *)
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

(** The read-modify-write windows of a program, as (load pc, store pc)
    pairs in store order. A window opens at a load whose destination is
    not its base and closes at the next store to the same base register
    and displacement in the block; an instruction that redefines the
    base drops it, and a yield does not close it. The pass inserts no yield strictly inside one,
    and {!Stallhide_verify.Checks.atomicity} warns on a yield there. *)
val windows : Stallhide_binopt.Cfg.t -> (int * int) list

type report = { inserted : int  (** scavenger yields inserted *) }

val run : opts -> Program.t -> Program.t * int array * report
