(** Inclusive three-level cache hierarchy over DRAM.

    [access_latency] performs a demand load: it returns the total
    load-to-use latency, leaves the level that served the request in
    [last_level], and fills all levels above the serving one.
    [prefetch] starts the same fill without blocking: the lines are
    installed with a future [ready_at], so a later demand access pays
    only the remaining cycles. None of the calls allocates. *)

type level = L1 | L2 | L3 | Dram

val level_name : level -> string

(** The level of a code ([0 = L1], [1 = L2], [2 = L3], [3 = Dram]);
    any code past [2] is [Dram]. *)
val level_of_code : int -> level

(** A transient latency fault: between [from_cycle] (inclusive) and
    [until_cycle] (exclusive), accesses served by L3 pay
    [l3_mult × l3.latency] and DRAM accesses pay
    [dram_mult × dram_latency]. Models row-buffer storms, co-tenant
    bandwidth contention, or thermal throttling — the inputs a
    production stall-hider must survive, injected deterministically. *)
type spike = { from_cycle : int; until_cycle : int; l3_mult : int; dram_mult : int }

type t

val create : Memconfig.t -> t

(** [create_core cfg ~shared] builds one core of an SMP machine:
    private L1/L2 (and icache) from [cfg], but the L3 level aliases the
    machine-wide [shared] cache. Below-L2 services go through the
    shared port's bandwidth budget ([Shared_l3.admit]), and the core is
    registered with the port so remote writes invalidate its private
    lines. Per-core [Mem_stats] stay private. *)
val create_core : Memconfig.t -> shared:Shared_l3.t -> t

val config : t -> Memconfig.t

(** Arm a latency spike. In-flight fills keep the price they were
    issued at; only new below-L2 service inside the window is scaled.
    @raise Invalid_argument on an empty window or multipliers < 1. *)
val inject_spike :
  t -> from_cycle:int -> until_cycle:int -> l3_mult:int -> dram_mult:int -> unit

(** Arm a causal counterfactual: scale the beyond-L1 portion of every
    access *served by* [level] to [percent]% of its real cost (the L1
    access cost is always still paid). [percent = 0] literalizes a
    Coz-style virtual speedup — "what if L3 were as fast as L1?" —
    which is legal here precisely because we own the simulator.
    Applies to demand loads and to prefetch fill pricing alike, so the
    counterfactual world stays self-consistent; control flow (yield
    residency checks, site selection) is untouched. At most one level
    is scaled at a time; [Memconfig.validate]'s latency-monotonicity
    does not constrain this runtime knob.
    @raise Invalid_argument if [percent < 0]. *)
val set_level_scale : t -> level -> percent:int -> unit

(** [access_latency t ~now addr] is a demand load of [addr] at cycle
    [now]: its total load-to-use latency. Its stall is the latency
    beyond an L1 hit. A line present and ready in L1 is answered by
    one lookup of its set that refreshes LRU state: such a hit is
    never admitted at the shared port or filled, and an armed
    counterfactual leaves its latency as it is. Any other access is
    served by the first level that holds the line, in flight or ready,
    or by DRAM, and fills every level above that one. *)
val access_latency : t -> now:int -> int -> int

(** Level code ({!level_of_code}) that served the last
    {!access_latency}, for the engine's load probe. A {!prefetch} that
    misses L1 in between overwrites it. *)
val last_level : t -> int

(** Cycles the last {!access_latency} queued at the shared-L3 port's
    bandwidth budget (contention, not service), part of its latency; 0
    on single-core hierarchies. *)
val last_queued : t -> int

val prefetch : t -> now:int -> int -> unit

(** [write t addr] records a store. On a shared-L3 core this
    invalidates the line in every other core's private L1/L2 (coherence
    cost lands on the next remote reader); on a [create] hierarchy it
    is a no-op. The store itself stays single-cycle — stores retire
    through a write buffer and never stall the modeled core. *)
val write : t -> int -> unit

(** Residency test for the §4.1 oracle: the code of the first level,
    from L1 down, where the line is present {e and ready}, or [-1]
    when it is ready nowhere on chip. Does not perturb LRU or
    statistics. *)
val resident_code : t -> now:int -> int -> int

val stats : t -> Mem_stats.t

(** [fetch t ~now pc] models instruction fetch of the instruction at
    index [pc] (4 bytes each): returns the front-end stall in cycles —
    0 on an icache hit or when no icache is configured. *)
val fetch : t -> now:int -> int -> int
