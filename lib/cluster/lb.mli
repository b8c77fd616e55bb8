(** The front-end load balancer: placement policy plus health state.

    Placement ({!choose}) picks among {e healthy} machines outside the
    request's exclusion set (its attempt history — retries and hedges
    always land on distinct machines):

    - [Consistent_hash] — the key hashes to a ring position
      ({!Stallhide_sched.Dispatch.home} over machines) and the walk
      skips unhealthy/excluded nodes, so only the crashed node's key
      range moves on failover;
    - [Least_loaded] — global minimum backlog (an idealized
      instantaneous load view; ties go to the lowest id);
    - [P2c] — power-of-two-choices with bounded load: two uniform
      candidates, the more loaded one is never picked.

    Health: machines collect {e strikes} (attempt timeouts, missed
    probes); at the threshold they are quarantined and receive no new
    traffic until a health probe succeeds and {!readmit}s them.
    Draws for [P2c] come from a private seeded state — same seed, same
    placement sequence. *)

type policy = Consistent_hash | Least_loaded | P2c

val policy_name : policy -> string

val policy_of_string : string -> policy option

type health = Up | Quarantined

type t

val create : policy -> machines:int -> seed:int -> t

val health : t -> int -> health

(** Exported for [test_cluster] only. *)
val healthy : t -> int -> bool

(** [strike t m ~threshold] — one more consecutive failure signal for
    [m]; true when this strike newly quarantines it. *)
val strike : t -> int -> threshold:int -> bool

(** A successful interaction with [m] (a response or probe reply)
    clears its strikes. *)
val clear_strikes : t -> int -> unit

(** Probe success: readmit [m]; true when it was quarantined. *)
val readmit : t -> int -> bool

val quarantines : t -> int

val readmissions : t -> int

(** [choose t ~key ~backlog ~exclude] — the target machine, or [None]
    when every healthy machine is excluded (the caller decides whether
    to wait or expire). [backlog m] must return machine [m]'s current
    queue depth signal. *)
val choose : t -> key:int -> backlog:(int -> int) -> exclude:int list -> int option
