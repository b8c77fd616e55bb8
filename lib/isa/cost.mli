(** Static base costs (cycles) of instructions, excluding memory
    latency and context-switch costs. Also used by the scavenger pass
    as the static fallback latency estimate. *)

(** Base cost: 1 for simple ops, 3 for [Mul], 12 for [Div]/[Rem], 0 for
    [Yield]/[Opmark]/[Halt] (their costs are charged elsewhere). *)
val base : Instr.t -> int
