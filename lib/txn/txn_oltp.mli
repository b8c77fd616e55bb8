(** CoroBase-style multi-key OLTP workload: a latched open-addressing
    table (the [Hash_probe] slot layout plus a latch word), multi-get /
    multi-put transactions over Zipfian key batches, per-key latching in
    sorted order, and a global commit-sequence counter. One lane is one
    in-flight transaction coroutine; K lanes under round-robin realize
    the two-level coroutine-to-transaction mapping.

    The program carries no absolute addresses — every region arrives
    through lane registers — so one (possibly instrumented) program can
    be rebound across per-core table instances. *)

open Stallhide_mem

type layout = {
  table : int;
  slots : int;
  table_end : int;
  stats : int;
      (** shared diagnostics line at [table_end]: aborts at +0, latch
          waits at +8 — schedule-dependent, mask before state diffs *)
  commit_ctr : int;  (** global commit sequence counter (word address) *)
  stream_base : int array;  (** per lane: [type, key0..key_{batch-1}] per txn *)
  scratch_base : int array;  (** per lane: type word + (slot, key) entries *)
  record_base : int array;
      (** per lane: one 64-byte line per transaction, commit seq at +0,
          running checksum at +8 *)
  lookups : int;  (** index lookups across all lanes and transactions *)
  direct_hits : int;
      (** lookups satisfied by the group-prefetched home slot (no probe
          continuation) *)
}

(** [make ~seed ()] builds the workload and its memory layout.
    [lanes] is K (in-flight transactions per core), [txns] the
    transactions per lane, [batch] the keys per transaction (1..8,
    distinct, sorted), [mix] the multi-put percentage (0 = batch-of-gets),
    [keys] the table population and [theta] the Zipfian skew. The manual
    variant carries per-key [prefetch; yield] pairs (the expert
    CoroBase baseline); the plain variant is the pipeline's input. *)
val make :
  ?image:Address_space.t ->
  ?manual:bool ->
  ?lanes:int ->
  ?txns:int ->
  ?batch:int ->
  ?mix:int ->
  ?keys:int ->
  ?theta:float ->
  seed:int ->
  unit ->
  Stallhide_workloads.Workload.t * layout

(** [make] without the layout, for workload dispatch tables. *)
val workload :
  ?image:Address_space.t ->
  ?manual:bool ->
  ?lanes:int ->
  ?txns:int ->
  ?batch:int ->
  ?mix:int ->
  ?keys:int ->
  ?theta:float ->
  seed:int ->
  unit ->
  Stallhide_workloads.Workload.t

(** Slot address of [key], mirroring the program's probe order.
    @raise Not_found if the key is absent. *)
val find : Address_space.t -> layout -> int -> int
