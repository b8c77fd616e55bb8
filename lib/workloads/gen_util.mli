(** Shared helpers for workload generators. *)

(** [shuffle st a] permutes [a] in place (Fisher–Yates). *)
val shuffle : Random.State.t -> 'a array -> unit

(** [permutation st n] is a random permutation of [0..n-1]. *)
val permutation : Random.State.t -> int -> int array

(** Line size used by all generators (64 bytes). *)
val line : int

(** [round_line bytes] rounds up to whole lines: the room a region of
    [bytes] takes in an image, since
    {!Stallhide_mem.Address_space.alloc} line-aligns every region. *)
val round_line : int -> int

(** [emit_compute b reg cycles] emits ALU work on [reg] costing exactly
    [cycles] base cycles, using 12-cycle divides plus 1-cycle adds so
    instruction count stays proportional to [cycles]/12. *)
val emit_compute : Stallhide_isa.Builder.t -> Stallhide_isa.Reg.t -> int -> unit
