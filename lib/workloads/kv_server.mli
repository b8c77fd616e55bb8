(** Latency-sensitive KV GET server: a hash-probe lane with per-request
    service compute, used as the high-priority *primary* coroutine in
    the asymmetric-concurrency experiments (§3.3). *)

(** Bytes {!make} allocates into a shared [image] for these parameters
    ({!Hash_probe.image_bytes}). *)
val image_bytes : lanes:int -> table_slots:int -> requests:int -> int

val make :
  ?image:Stallhide_mem.Address_space.t ->
  ?manual:bool ->
  ?lanes:int ->
  ?table_slots:int ->
  ?requests:int ->
  ?service_compute:int ->
  seed:int ->
  unit ->
  Workload.t
