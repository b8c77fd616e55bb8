(** Memory-hierarchy configuration.

    Latencies are in core cycles and are *total* load-to-use latencies
    for a hit at that level. The default ratios follow published numbers
    for recent server parts (L1 4 / L2 14 / L3 50 / DRAM 200 cycles);
    capacities are scaled down so that multi-megabyte simulated
    footprints thrash the LLC while simulations stay fast. *)

type level_cfg = { size_bytes : int; ways : int; latency : int }

type t = {
  line_bytes : int;
  l1 : level_cfg;
  l2 : level_cfg;
  l3 : level_cfg;
  dram_latency : int;
  accel_latency : int;  (** onboard-accelerator operation latency *)
  icache : level_cfg option;
      (** front-end model: when set, instruction fetch goes through an
          instruction cache (4 bytes/instruction, 64-byte lines) whose
          misses stall the front end for [latency] cycles. [None]
          (default) disables front-end modeling. *)
  prefetch_issue_cost : int;  (** cycles a non-blocking prefetch occupies the core *)
}

val default : t

(** [with_dram_latency t cycles] overrides the DRAM (event) latency —
    used by the Figure-1 spectrum experiment to sweep event duration. *)
val with_dram_latency : t -> int -> t

(** [is_pow2 n]: [n] is a positive power of two. *)
val is_pow2 : int -> bool

(** Sanity checks (power-of-two geometry, monotone cache latencies;
    [dram_latency] may sit below [l3.latency] for event-duration sweeps).
    @raise Invalid_argument when violated. *)
val validate : t -> unit
