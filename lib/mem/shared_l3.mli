(** The contended last-level cache of an N-core machine.

    One [Shared_l3.t] holds the single L3 [Cache.t] that every core's
    private hierarchy sits on top of, and models the two ways sharing
    costs cycles:

    - {b bandwidth} — the L3/memory port admits at most [budget]
      below-L2 services per [window] cycles, machine-wide. An access
      that finds the current window full is queued into the next window
      with room, and pays the wait until that window opens as extra
      latency ([admit] returns the delay).
    - {b coherence} — a store by one core invalidates the line in every
      {e other} core's private L1/L2 ([write]); the next remote read
      re-fetches from the shared L3, so sharing written data has a
      measurable cost. The L3 copy itself survives (write-back to LLC).

    Everything is deterministic: admission depends only on the order of
    calls, which the SMP machine makes deterministic.

    Admission keeps one int per window in a flat table indexed by
    window offset from the first window admitted into, so [admit]
    allocates nothing. The table starts at 64 windows on the first
    admission and doubles whenever a call lands outside it (calls
    need not come in time order; the table grows downwards too). Its
    memory therefore follows the span of windows a machine touches —
    8 bytes per 32-cycle window spanned with the defaults, up to twice
    that for doubling headroom — not the absolute cycle count: a
    machine built at cycle 10^9 pays nothing for the cycles before. *)

type stats = {
  mutable admitted : int;  (** below-L2 services that went through the port *)
  mutable queued : int;  (** of those, pushed into a later window *)
  mutable queue_cycles : int;  (** total extra latency cycles from queueing *)
  mutable writes : int;  (** stores seen by [write] *)
  mutable invalidations : int;  (** private L1/L2 lines killed by remote writes *)
}

type t

(** [create ?window ?budget cfg] builds the shared L3 from [cfg.l3].
    Defaults: [window = 32] cycles, [budget = 16] below-L2 services per
    window. [budget <= 0] means unlimited (no port contention).
    @raise Invalid_argument if [window <= 0]. *)
val create : ?window:int -> ?budget:int -> Memconfig.t -> t

(** The one shared L3 cache array. Per-core hierarchies alias it. *)
val cache : t -> Cache.t

(** [attach t ~invalidate] registers a core's private-hierarchy
    invalidator ([invalidate addr] kills the line in that core's L1/L2
    and returns how many lines it removed) and returns the core id used
    by [write]. *)
val attach : t -> invalidate:(int -> int) -> int

(** Number of attached cores. *)
val cores : t -> int

(** [admit t ~now] charges one below-L2 service starting at [now]
    against the port and returns the extra delay cycles (0 when the
    current window has room). *)
val admit : t -> now:int -> int

(** [write t ~core ~addr] records a store by [core] and invalidates the
    line in every other attached core's private hierarchy. *)
val write : t -> core:int -> addr:int -> unit

val stats : t -> stats
