(** The individual static-analysis passes of the translation validator.

    Every check recomputes what it needs (CFG, liveness, dominators)
    from scratch on the program it is given — it never trusts the
    instrumentation passes' own annotations or reports, which is the
    point: a pass bug that corrupts both the program and its report is
    still caught. Each check returns its findings as {!Diagnostic.t}
    values; an empty list means the program is clean for that check. *)

open Stallhide_isa

(** [cfg_equivalence ~orig ~orig_of_new inst] checks that [inst] is
    [orig] with only instrumentation instructions ([prefetch], the
    yield family, [guard]) inserted: erasing the insertions must yield
    the original instruction sequence, every original label must
    resolve to the same original instruction, and every branch/jump/
    call in [inst] must target the image of its original target.
    [orig_of_new] is the pc map returned by the rewriter
    ([new pc -> original pc]). *)
val cfg_equivalence :
  orig:Program.t -> orig_of_new:int array -> Program.t -> Diagnostic.t list

(** True at the new pcs [cfg_equivalence] would classify as inserted
    (every pc of a same-original-pc run except the last). Used to grade
    pairing findings: a defective *inserted* prefetch is an error, a
    hand-written one only a warning. *)
val inserted_map : orig_of_new:int array -> Program.t -> bool array

(** Recomputes liveness on the instrumented program and checks every
    yield's [live_regs] annotation covers the registers actually
    live-out there. An unannotated yield (full save) is trivially
    sound; an annotation *below* the recomputed count is an error (a
    context switch there would lose state); above it, a warning (stale
    annotation, harmless but oversaving). Witnesses are the live
    register numbers. *)
val liveness_soundness : Program.t -> Diagnostic.t list

(** Every [Prefetch (rs, d)] / [Yield_cond (rs, d)] must be paired with
    a later [Load] of the same [rs + d] in its basic block (hence
    dominating it), with no intervening redefinition of [rs]. A paired
    plain prefetch must additionally hide the latency it was priced
    for: either a yield sits between issue and use, or its proven
    straight-line cycle lead (sum of guaranteed per-instruction costs,
    {!Stallhide_analysis.Distance.prefetch_lead}) covers [mem]'s DRAM
    latency outright. [is_inserted pc] upgrades findings at
    instrumentation-inserted pcs from warning to error. *)
val prefetch_pairing :
  ?is_inserted:(int -> bool) ->
  ?mem:Stallhide_mem.Memconfig.t ->
  Program.t ->
  Diagnostic.t list

(** Longest yield-free path check for scavenger output: every cycle of
    the CFG must either contain a yield or carry a {i proven} iteration
    bound (re-derived here via {!Stallhide_analysis.Loop_bounds}, never
    trusted from the pass), in which case the loop is charged a budget
    of (trips - 1) x body cost; a yield-free cycle with no proven bound
    is an error with the loop body as witness. The maximum-cost
    yield-free path, budgets included and priced with
    {!Stallhide_binopt.Scavenger_pass.static_cost}, must not exceed
    {!Stallhide_binopt.Scavenger_pass.bound}. The witness
    of a too-long path is the chain of block-entry pcs ending at the
    instruction where the bound is exceeded. *)
val interval_bound : target:int -> Program.t -> Diagnostic.t list

(** Guard completeness for SFI-transformed programs: every load/store/
    accelerator-issue must have a [Guard] for its (base register, line)
    available on *every* path reaching it — a forward must-analysis
    (intersection over predecessors), gen at guards, kill at base
    redefinitions and calls. This independently re-derives the pass's
    redundancy-elimination: an elided guard whose coverage does not
    actually hold on some path is reported. *)
val sfi_completeness :
  ?guard_loads:bool -> ?guard_stores:bool -> Program.t -> Diagnostic.t list

(** Cooperative-atomicity lint: a yield strictly between a [Load] of
    [rs + d] and a later [Store] to the same [rs + d] (base not
    redefined in between, same basic block) lets another lane observe
    or clobber the half-done read-modify-write — the store-mutating
    BFS/group-by hazard. Reported as warnings. *)
val atomicity : Program.t -> Diagnostic.t list
