(** Hash aggregation (GROUP BY): stream tuples, update per-group
    accumulators — the load-modify-store kernel of analytics engines.
    Accumulators live one per cache line, so updates miss when the
    group count exceeds the cache.

    Each lane aggregates into its own accumulator array (partial
    aggregation, merged off-line), so coroutine interleaving cannot
    lose updates — the cooperative-atomicity property tests rely on.
    [reset] zeroes the accumulators.

    Registers: r1 = tuple cursor, r2 = remaining tuples,
    r3 = accumulator base, r7 = group count, r15 = tuples done. *)

(** Bytes {!make} allocates into a shared [image] for these parameters:
    a guard line, then per lane its tuples and its accumulators, each
    region rounded up to a line. *)
val image_bytes : lanes:int -> groups:int -> tuples:int -> int

val make :
  ?image:Stallhide_mem.Address_space.t ->
  ?manual:bool ->
  ?lanes:int ->
  ?groups:int ->
  ?tuples:int ->
  seed:int ->
  unit ->
  Workload.t

(** Accumulator base address of a lane (for checksum tests).
    Exported for [test_workloads] only. *)
val acc_base : Workload.t -> lane:int -> int
