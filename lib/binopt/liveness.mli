(** Register liveness on executable code (Muth-style, §3.2's
    switch-cost optimization).

    Backward may-analysis over the CFG with registers as [int] bit sets.
    [Call]/[Ret] conservatively use every register, so liveness never
    shrinks across an unanalyzed callee. The result annotates yield
    sites with the number of registers a context switch there actually
    needs to preserve. *)

type t

val compute : Cfg.t -> t

(** Registers live *after* the instruction at [pc] (bit mask). *)
val live_out : t -> int -> int

(** Registers live *before* the instruction at [pc] (bit mask). *)
val live_in : t -> int -> int

(** Number of registers a switch at the yield instruction [pc] must
    save: the registers live after it.
    Exported for [test_binopt] only. *)
val regs_to_save : t -> int -> int

(** Set [Program.annot pc.live_regs] at every [Yield]/[Yield_cond]. *)
val annotate_yields : Stallhide_isa.Program.t -> unit
