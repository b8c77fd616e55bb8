(** Hash-join probe phase with group prefetch opportunity.

    Each operation joins a batch of four probe tuples against a
    direct-indexed build table: four *independent adjacent* loads whose
    addresses are all computable before the first — exactly the shape
    §3.2's yield coalescing exploits (one yield amortized over four
    misses). The [manual] expert variant coalesces by hand; the
    uninstrumented variant lets the pipeline's dependence analysis find
    the group.

    Registers: r1 = probe cursor, r2 = remaining ops, r3 = table base,
    r4–r7 = batch keys/addresses, r8 = scratch, r15 = accumulator. *)

(** Exported for [test_workloads] only. *)
val batch : int

val make :
  ?image:Stallhide_mem.Address_space.t ->
  ?manual:bool ->
  ?lanes:int ->
  ?build_rows:int ->
  ?ops:int ->
  seed:int ->
  unit ->
  Workload.t
