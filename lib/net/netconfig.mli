(** Cycle-priced NIC/RPC cost model (nanoPU-style).

    Every message pays wire propagation, per-line serialization and a
    DMA landing cost priced through the machine's
    {!Stallhide_mem.Memconfig}: with [cache_inject] the NIC writes
    payload lines straight into the shared L3 (DDIO), otherwise they
    land in DRAM at [dram_latency] per line. Requests at or under
    [small_bytes] take the {e lean fast path} — a dedicated rx ring
    handed to the core for [fast_path_cost] cycles, bypassing the
    [dispatch_cost] of the general software dispatch queue. The rx ring
    holds [rx_depth] messages; arrivals beyond a full ring are dropped
    (see {!Nic}). *)

type t = {
  wire_latency : int;  (** one-way propagation + switching, cycles *)
  per_line : int;  (** serialization cycles per cache line *)
  rx_depth : int;  (** rx ring capacity, messages; <= 0 unbounded *)
  small_bytes : int;  (** lean fast-path cutoff *)
  fast_path_cost : int;  (** rx processing, lean path *)
  dispatch_cost : int;  (** rx processing via the dispatch queue *)
  cache_inject : bool;  (** DMA into L3 (DDIO) vs DRAM *)
  req_bytes : int;  (** request payload size *)
  resp_bytes : int;  (** response payload size *)
}

val default : t

(** @raise Invalid_argument on non-positive sizes/latencies or a fast
    path priced above the dispatch queue. *)
val validate : t -> unit

val lean : t -> bytes:int -> bool

(** Cycles to land [bytes] of payload through DMA.
    Exported for [test_cluster] only. *)
val dma_cost : t -> Stallhide_mem.Memconfig.t -> bytes:int -> int

(** Client-to-server delivery: wire + DMA + rx processing (lean or
    dispatch-queue path by size). *)
val rx_cost : t -> Stallhide_mem.Memconfig.t -> bytes:int -> int

(** Server-to-client response delivery (always lean at the client). *)
val tx_cost : t -> Stallhide_mem.Memconfig.t -> bytes:int -> int

(** Network round trip for an empty-service request/response pair. *)
val rtt : t -> Stallhide_mem.Memconfig.t -> int

val to_json : t -> Stallhide_util.Json.t
