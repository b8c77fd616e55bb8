(** The simulated physical memory image.

    Word-addressed storage behind byte addresses: words are 8 bytes and
    all loads/stores must be word-aligned. Workload generators allocate
    regions with {!alloc} (line-aligned, bump allocation) and fill them
    with data; pointers are stored byte addresses, so pointer-chasing
    programs really dereference this image.

    The image is held in 32 KiB chunks. {!fork} shares every chunk
    between a space and its copy until one side stores into it; that
    store copies the one chunk first. *)

type t

val word_bytes : int

(** [create ~bytes] makes a space of capacity [bytes] (rounded up to a
    whole word) that reads as zeros everywhere. It fills nothing up
    front: every chunk starts on one shared, never-written zero chunk,
    and {!alloc} (or the first store) gives a chunk its own zeroed
    storage. *)
val create : bytes:int -> t

val capacity_bytes : t -> int

(** Bytes currently allocated. *)
val used_bytes : t -> int

(** [alloc t ~bytes] is {!reserve} followed by giving every chunk the
    region touches its own zeroed storage, so no later store into the
    region has to back a chunk first.
    @raise Failure when the space is exhausted. *)
val alloc : t -> bytes:int -> int

(** [reserve t ~bytes] takes a fresh 64-byte-aligned region exactly as
    {!alloc} would (same base, same {!used_bytes} after) and returns its
    base address, but backs nothing: chunks only this region covers stay
    on the shared zero chunk, so the region reads 0 and costs no memory
    until a store backs the one chunk it lands in. For ranges that must
    hold an address but that no instruction is expected to touch.
    @raise Failure when the space is exhausted. *)
val reserve : t -> bytes:int -> int

(** [fork t] is a copy of [t] (contents, {!used_bytes},
    {!capacity_bytes}) that costs one pointer per chunk. [t] and the
    copy share every chunk until either side stores into it; the first
    such store copies that chunk for the side that made it, so a store
    into one is never seen by the other. *)
val fork : t -> t

(** @raise Invalid_argument on unaligned or out-of-range addresses. *)
val load : t -> int -> int

val store : t -> int -> int -> unit

(** Whether [addr] is word-aligned and within the allocated capacity. *)
val valid_addr : t -> int -> bool

(** Unchecked load/store for the engine fast path. The caller must
    have established {!valid_addr} for the address first; behaviour is
    undefined otherwise. *)
val unsafe_load : t -> int -> int

val unsafe_store : t -> int -> int -> unit
