(** One set-associative cache level with LRU replacement.

    Lines carry a [ready_at] cycle so that in-flight fills started by a
    prefetch are modeled: a demand access that arrives before the fill
    completes waits only the remaining cycles (partial hiding). *)

type t

type lookup =
  | Hit  (** present and ready *)
  | In_flight of int  (** present, fill completes at the given cycle *)
  | Miss

(** [create ~name ~line_bytes cfg] is an empty cache of
    [cfg.size_bytes / line_bytes] lines in [cfg.ways]-way sets. It
    allocates its tag, ready-time and LRU-stamp arrays off the OCaml
    heap without writing them, plus one cold mark per set, so it costs
    O(sets), not O(lines). A set's tags are written at its first
    lookup, prefetch or insert; until then [resident] and [invalidate]
    treat it as empty. Invariant: a slot's ready time and LRU stamp
    count only once this cache has written a line's tag into that
    slot, so neither is ever initialised.
    @raise Invalid_argument when [ways < 1], or when [line_bytes] or
    the set count is not a power of two. *)
val create : line_bytes:int -> Memconfig.level_cfg -> t

(** Number of lines.
    Exported for [test_mem] only. *)
val lines : t -> int

(** [lookup t ~now addr] classifies the access and, on [Hit]/[In_flight],
    refreshes LRU state.
    Exported for [test_mem] only. *)
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

(** Exported for [test_mem] only. *)
val hits : t -> int

(** Exported for [test_mem] only. *)
val misses : t -> int

val reset_stats : t -> unit
