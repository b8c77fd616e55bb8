(** One set-associative cache level with LRU replacement.

    Lines carry a [ready_at] cycle so that in-flight fills started by a
    prefetch are modeled: a demand access that arrives before the fill
    completes waits only the remaining cycles (partial hiding). *)

type t

type lookup =
  | Hit  (** present and ready *)
  | In_flight of int  (** present, fill completes at the given cycle *)
  | Miss

val create : name:string -> line_bytes:int -> Memconfig.level_cfg -> t

val name : t -> string

(** Number of lines. *)
val lines : t -> int

(** [lookup t ~now addr] classifies the access and, on [Hit]/[In_flight],
    refreshes LRU state. *)
val lookup : t -> now:int -> int -> lookup

(** Allocation-free [lookup] for the fast path: [-1] = miss, [0] = hit,
    [ready_at > 0] = in-flight fill completing at that cycle (in-flight
    implies [ready_at > now >= 0], so the codes cannot collide). Updates
    LRU state and hit/miss counters identically to [lookup]. *)
val lookup_code : t -> now:int -> int -> int

(** [prefetch_code t ~now addr] is [lookup_code] for a prefetch: a
    line already present and ready gives [0] without counting a hit or
    refreshing LRU state (the prefetch is useless); a miss or an
    in-flight line is handled exactly as by [lookup_code]. *)
val prefetch_code : t -> now:int -> int -> int

(** [insert t ~now ~ready_at addr] fills the line (evicting LRU). Right
    after a [lookup_code]/[prefetch_code] that missed the same line,
    with the cache untouched since, it reuses the victim that lookup
    found instead of scanning the set again. *)
val insert : t -> now:int -> ready_at:int -> int -> unit

(** Presence test without touching LRU state (used by the §4.1
    residency oracle). *)
val resident : t -> now:int -> int -> bool

(** [invalidate t addr] drops the line containing [addr] if present
    (cross-core coherence: a remote write kills local copies). Returns
    [true] if a line was actually removed. Does not count as a hit or a
    miss. *)
val invalidate : t -> int -> bool

val hits : t -> int

val misses : t -> int

val reset_stats : t -> unit
