(** Multi-core request dispatch policies (the nanoPU lesson: across
    cores, the dispatch policy — not per-core efficiency — dominates
    RPC tail latency).

    - [D_fcfs] — decentralized FCFS: every request goes to its key's
      home core (shard affinity), each core serves its own FIFO. Zero
      steering cost, perfect locality, but a skewed key distribution
      turns the hot shard's queue into the tail.
    - [Jbsq] — join-bounded-shortest-queue-style steering: a request
      goes to the core with the shallowest queue, preferring its home
      core on ties (locality as tie-break, not constraint). *)

type policy = D_fcfs | Jbsq

val policy_name : policy -> string

val policy_of_string : string -> policy option

(** The other policy: the one-factor perturbation of a dispatch
    configuration. *)
val alternate : policy -> policy

(** [home ~shards key] is the key-hash shard affinity: the home shard
    of [key] among [shards] cores (Fibonacci-hashed so adjacent keys
    spread). @raise Invalid_argument if [shards <= 0]. *)
val home : shards:int -> int -> int

(** [choose policy ~home ~depths] picks the serving core for a request
    whose home shard is [home], given per-core queue depths. [D_fcfs]
    returns [home]; [Jbsq] returns the index of the shallowest queue
    (home wins ties at its depth; otherwise the lowest index wins).
    @raise Invalid_argument if [depths] is empty or [home] out of
    range. *)
val choose : policy -> home:int -> depths:int array -> int
