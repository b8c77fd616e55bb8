(** A preallocated event probe for the decoded-µop loop.

    The PMU models ({!Stallhide_pmu.Pebs}, {!Stallhide_pmu.Lbr}) and
    the full-trace ground truth need to see loads, stalls and taken
    branches. Per-instruction {!Events} hooks would send the run to the
    reference interpreter; a probe set in [Engine.config.probe] instead
    rides the µop loop, which touches it only where a sampler counts
    something:
    - each retired load: the load-event countdowns, and the per-pc
      tally when armed;
    - each paid memory, accelerator or front-end stall: the stall-cycle
      countdowns;
    - each taken branch, jump, call or return: a push onto every armed
      LBR ring.

    Nothing is allocated on those paths unless a countdown fires, and
    the loop does no per-instruction work for the probe.

    {b Deferred LBR snapshots.} A snapshot is due every
    [snapshot_period] retired instructions, and its content depends
    only on the ring. The ring changes only at a push, so every
    snapshot due since the previous push sees the ring as it is just
    before the next one. The probe therefore takes those snapshots at
    the next push, or at the end of the run, counting retired
    instructions from [Context.instructions]: the same snapshots, in
    the same order, as a hook that counts every retire.

    The countdown arithmetic ({!count}) and the ring ({!push}) are the
    ones the reference hooks use, so the two arms cannot drift apart. *)

(** {1 Countdowns} *)

(** A PEBS-style event countdown: it fires once per [period]
    occurrences. *)
type countdown

(** @raise Invalid_argument if [period <= 0]. *)
val countdown : period:int -> countdown

(** [count c n] adds [n] occurrences and returns how many period
    boundaries they crossed: the number of samples to record. *)
val count : countdown -> int -> int

val period : countdown -> int

(** Occurrences counted since creation or the last {!reset}. *)
val occurrences : countdown -> int

val reset : countdown -> unit

(** {1 LBR ring} *)

(** The last [depth] taken branches, as flat int arrays. *)
type ring

(** @raise Invalid_argument if [depth <= 0]. *)
val ring : depth:int -> ring

val push : ring -> from_pc:int -> to_pc:int -> cycle:int -> unit

(** Valid entries, at most [depth]. *)
val ring_length : ring -> int

(** [copy_ring r ~from_pc ~to_pc ~cycle] appends the entries, oldest
    first, one field to each vector. *)
val copy_ring :
  ring ->
  from_pc:Stallhide_util.Int_vec.t ->
  to_pc:Stallhide_util.Int_vec.t ->
  cycle:Stallhide_util.Int_vec.t ->
  unit

val clear_ring : ring -> unit

(** {1 The probe} *)

type event = Loads_all | L2_miss_loads | L3_miss_loads | Stall_cycles | Frontend_stalls

(** Where a fired countdown's samples go: called once per sample. *)
type sink = pc:int -> addr:int -> stall:int -> cycle:int -> unit

type t

(** An empty probe: no countdown, no ring, no tally. *)
val create : unit -> t

(** [sample p event c sink] counts [event] on [c] and calls [sink] with
    the triggering instruction's pc, data address (0 for stalls), paid
    stall and cycle each time [c] fires. Any number of countdowns may
    count the same event. *)
val sample : t -> event -> countdown -> sink -> unit

(** [record_branches p ring c snapshot] pushes every taken branch onto
    [ring] and calls [snapshot] each time [c] fires, [c] counting
    retired instructions. *)
val record_branches : t -> ring -> countdown -> (unit -> unit) -> unit

(** Arm the per-pc tally for programs of up to [length] instructions:
    executions, beyond-L2 loads and paid stall of every load pc.
    Runs on longer programs raise [Invalid_argument]. *)
val tally : t -> length:int -> unit

(** Per-pc tallies ([tally]'s arrays; empty when unarmed). *)
val load_execs : t -> int array

val load_misses : t -> int array

val load_stalls : t -> int array

(** {1 Called by the µop loop} *)

(** [start p ~instructions ~length ~block] opens a run of a context
    whose instruction count is [instructions], on a program of [length]
    instructions; [block] is the load-block threshold ([max_int] when
    unset): a paid stall above it blocks the context, which counts the
    load at its issue cycle and no stall cycles.
    @raise Invalid_argument if the tally is shorter than the program. *)
val start : t -> instructions:int -> length:int -> block:int -> unit

(** A retired load: serving level code ({!Stallhide_mem.Hierarchy.level_code}),
    paid stall, and the cycle after its cost. *)
val load : t -> pc:int -> addr:int -> level:int -> stall:int -> cycle:int -> unit

(** A paid accelerator wait, with the cycle after its cost. *)
val wait : t -> pc:int -> stall:int -> cycle:int -> unit

(** A front-end (instruction-fetch) stall, with the cycle after it. *)
val frontend : t -> pc:int -> stall:int -> cycle:int -> unit

(** A taken control transfer by the instruction whose fetch brought
    the context's count to [instructions]. *)
val branch : t -> instructions:int -> from_pc:int -> to_pc:int -> cycle:int -> unit

(** Close the run: [retired] is the context's instruction count less
    any instruction that faulted. *)
val finish : t -> retired:int -> unit
