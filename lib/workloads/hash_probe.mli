(** Open-addressing hash-table probes (linear probing) — the index-join
    / KV-GET kernel of the coroutine-interleaving literature.

    The table has [table_slots] 64-byte slots (key at word 0, value at
    word 1) filled to [fill] by host-side insertion with the same
    multiplicative hash the program computes. Each lane probes [ops]
    existing keys read sequentially from its own key array, so the key
    loads are cache-friendly while the slot loads are the miss sites —
    the distinction the profile-guided policy must discover.

    [compute] ALU instructions are appended per request (service work),
    which makes the variant used as a latency-sensitive KV server.

    Registers: r1 = key cursor, r2 = remaining ops, r3 = table base,
    r7 = slot count, r9 = hash constant, r10 = table end,
    r15 = accumulator. *)

(** Bytes {!make} allocates into a shared [image] for these parameters:
    a guard line, the table, and each lane's key array, each region
    rounded up to a line. *)
val image_bytes : lanes:int -> table_slots:int -> ops:int -> int

val make :
  ?image:Stallhide_mem.Address_space.t ->
  ?name:string ->
  ?manual:bool ->
  ?lanes:int ->
  ?table_slots:int ->
  ?fill:float ->
  ?ops:int ->
  ?compute:int ->
  seed:int ->
  unit ->
  Workload.t
