(** One set-associative cache level with LRU replacement.

    Lines carry a [ready_at] cycle so that in-flight fills started by a
    prefetch are modeled: a demand access that arrives before the fill
    completes waits only the remaining cycles (partial hiding). *)

type t

(** [create ~line_bytes cfg] is an empty cache of
    [cfg.size_bytes / line_bytes] lines in [cfg.ways]-way sets. It
    allocates its tag, ready-time and LRU-stamp arrays off the OCaml
    heap without writing them, plus one byte per set, so it costs
    O(sets), not O(lines). That byte marks a cold set until a line is
    written into it, and then names the way of the set's last touched
    line, which every lookup tests first. A cold set's tags and stamps
    are written at a lookup, prefetch or insert, every way empty with
    stamp 0; [resident] and [invalidate] treat it as empty. Invariant:
    a slot's ready time counts only once this cache has written a
    line's tag into that slot, so it is never initialised. A lookup
    the predicted way does not answer finds the line, or the way a
    fill would evict, in one pass over the set.
    @raise Invalid_argument when [ways < 1] or [ways > 255], or when
    [line_bytes] or the set count is not a power of two. *)
val create : line_bytes:int -> Memconfig.level_cfg -> t

(** [lookup_code t ~now addr] classifies the access without
    allocating: [-1] = miss, [0] = hit, [ready_at > 0] = in-flight fill
    completing at that cycle (in-flight implies [ready_at > now >= 0],
    so the codes cannot collide). A hit or an in-flight line refreshes
    LRU state. *)
val lookup_code : t -> now:int -> int -> int

(** [prefetch_code t ~now addr] is [lookup_code] for a prefetch: a
    line already present and ready gives [0] without refreshing LRU
    state (the prefetch is useless); a miss or an in-flight line is
    handled exactly as by [lookup_code]. *)
val prefetch_code : t -> now:int -> int -> int

(** [insert t ~ready_at addr] fills the line, into the first empty
    way of its set, else over the least recently used line. Right after
    a [lookup_code]/[prefetch_code] that missed the same line, with the
    cache untouched since, it reuses the victim that lookup found
    instead of scanning the set again. *)
val insert : t -> ready_at:int -> int -> unit

(** Presence test without touching LRU state (used by the §4.1
    residency oracle). *)
val resident : t -> now:int -> int -> bool

(** [invalidate t addr] drops the line containing [addr] if present
    (cross-core coherence: a remote write kills local copies). Returns
    [true] if a line was actually removed. *)
val invalidate : t -> int -> bool
