(** Dependence analysis for yield coalescing (§3.2).

    Finds groups of *independent adjacent* loads whose prefetches can be
    hoisted to the head of the group so a single yield amortizes the
    switch cost over several misses.

    A selected load joins the current group iff, since the group head,
    (a) no instruction has defined its base register (its address is
    computable at the head) and (b) nothing with unknown memory or
    control effects intervened ([Store], [Call], yields, block
    boundaries close the group). *)

(** [groups cfg ~selected ~max_group] returns groups of load pcs in
    program order; every pc with [selected pc = true] that is a load
    appears in exactly one group. Groups never span basic blocks. *)
val groups : Cfg.t -> selected:(int -> bool) -> max_group:int -> int list list
