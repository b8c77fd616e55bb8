(** Inclusive three-level cache hierarchy over DRAM.

    [access] performs a demand load: it returns the level that served
    the request, the total load-to-use latency, and the stall cycles
    (latency beyond an L1 hit), and fills all levels above the serving
    one. [prefetch] starts the same fill without blocking: the lines are
    installed with a future [ready_at], so a later demand access pays
    only the remaining cycles. *)

type level = L1 | L2 | L3 | Dram

val level_name : level -> string

type result = {
  level : level;  (** level that served the access *)
  latency : int;  (** total load-to-use cycles *)
  stall : int;  (** cycles beyond an L1 hit, i.e. [latency - l1.latency] *)
  queued : int;
      (** cycles spent queued at the shared-L3 port's bandwidth budget
          (contention, not service); 0 on single-core hierarchies *)
}

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

(** Whether an injected spike covers cycle [now]. Exported for
    [test_faults] only, which checks the window's edges with it. *)
val spike_active : t -> now:int -> bool

val access : t -> now:int -> int -> result

(** Allocation-free [access] for the fast step loop: performs the same
    demand load (identical fills, admission, statistics — [access] is
    implemented on top of it) but returns only the total latency. *)
val access_latency : t -> now:int -> int -> int

(** Level code ([0 = L1], [1 = L2], [2 = L3], [3 = Dram]) that served
    the last {!access} or {!access_latency}, for the fast loop's load
    samplers. Allocation free; a {!prefetch} in between overwrites it. *)
val last_level : t -> int

val prefetch : t -> now:int -> int -> unit

(** [write t ~now addr] records a store. On a shared-L3 core this
    invalidates the line in every other core's private L1/L2 (coherence
    cost lands on the next remote reader); on a [create] hierarchy it
    is a no-op. The store itself stays single-cycle — stores retire
    through a write buffer and never stall the modeled core. *)
val write : t -> now:int -> int -> unit

(** Deepest-cached test for the §4.1 residency oracle: [Some level] if
    the line is present *and ready* somewhere on chip. Does not perturb
    LRU or statistics. *)
val resident : t -> now:int -> int -> level option

(** Allocation-free {!resident}: deepest ready level's code, or [-1]
    when the line is nowhere on chip. *)
val resident_code : t -> now:int -> int -> int

val stats : t -> Mem_stats.t

(** Clears statistics but not cache contents (used to exclude warmup).
    Exported for [test_mem] only. *)
val reset_stats : t -> unit

(** [fetch t ~now pc] models instruction fetch of the instruction at
    index [pc] (4 bytes each): returns the front-end stall in cycles —
    0 on an icache hit or when no icache is configured. *)
val fetch : t -> now:int -> int -> int
