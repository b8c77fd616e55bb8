(** Per-machine NIC accounting: a finite rx ring in front of the
    machine's dispatch queues.

    [admit] asks whether a freshly-delivered request fits: when the
    machine's total backlog has reached the ring depth the packet is
    dropped on the floor ({e rx-queue overflow}) and only the sender's
    timeout will recover it. Lean fast-path admissions are counted
    separately. The [nicdrop] fault shrinks [depth] at runtime. *)

type t

val create : depth:int -> t

(** [admit t ~backlog ~lean] — [false] means dropped (overflow). *)
val admit : t -> backlog:int -> lean:bool -> bool

(** Count one transmitted response. *)
val sent : t -> unit

val rx : t -> int

val fast : t -> int

val overflow : t -> int

val tx : t -> int
