(** The engine's one per-instruction observer.

    Both interpreters feed a probe set in [Engine.config.probe], at the
    same points and with the same arguments, each carrying the context
    id:
    - a front-end (instruction-fetch) stall;
    - a retired load, with its serving level, paid stall and queueing
      delay;
    - a paid memory or accelerator stall;
    - a taken branch, jump, call or return;
    - a yield-family instruction, with its kind and whether it fired;
    - an opmark.

    Three kinds of observer ride it: PEBS-style countdowns
    ({!Stallhide_pmu.Pebs}) and LBR rings ({!Stallhide_pmu.Lbr}),
    which count at loads, stalls and taken branches; the exact per-pc
    tally, which counts at loads, stalls and yields, and at the
    context switches a scheduler reports through {!switch}; and
    full-trace observers ([Stallhide_obs.Stream]), which see every
    point. Nothing is allocated on those paths unless a countdown
    fires or a tracer allocates, and the µop loop does no
    per-instruction work for the probe.

    {b Deferred LBR snapshots.} A snapshot is due every
    [snapshot_period] retired instructions, and its content depends
    only on the ring. The ring changes only at a push, so every
    snapshot due since the previous push sees the ring as it is just
    before the next one. The probe therefore takes those snapshots at
    the next push, or at the end of the run, counting retired
    instructions from [Context.instructions]: the same snapshots, in
    the same order, as a countdown stepped at every retire. This
    assumes a run of one context at a time, so [Engine.step], which
    the SMT model interleaves per instruction, refuses a probe with a
    ring. *)

(** {1 Countdowns} *)

(** A PEBS-style event countdown: it fires once per [period]
    occurrences. *)
type countdown

(** @raise Invalid_argument if [period <= 0]. *)
val countdown : period:int -> countdown

val period : countdown -> int

(** {1 LBR ring} *)

(** The last [depth] taken branches, as flat int arrays. *)
type ring

(** @raise Invalid_argument if [depth <= 0]. *)
val ring : depth:int -> ring

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

(** {1 The probe} *)

type event = Loads_all | L2_miss_loads | L3_miss_loads | Stall_cycles | Frontend_stalls

(** Where a fired countdown's samples go: called once per sample. *)
type sink = pc:int -> addr:int -> stall:int -> cycle:int -> unit

(** A full-trace observer: one callback per point, called with the
    point's arguments. [level] is a serving-level code
    ({!Stallhide_mem.Hierarchy.last_level}), and [queue] the part of
    the paid stall queued at the shared-L3 port. *)
type tracer = {
  load : ctx:int -> pc:int -> addr:int -> level:int -> stall:int -> queue:int -> cycle:int -> unit;
  stall : ctx:int -> pc:int -> stall:int -> cycle:int -> unit;
  frontend : ctx:int -> pc:int -> stall:int -> cycle:int -> unit;
  yield :
    ctx:int -> pc:int -> kind:Stallhide_isa.Instr.yield_kind -> fired:bool -> cycle:int -> unit;
  opmark : ctx:int -> pc:int -> cycle:int -> unit;
}

type t

(** An empty probe: no countdown, no ring, no tally, no tracer. *)
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

(** Whether {!record_branches} armed a ring. *)
val records_branches : t -> bool

(** [trace p tr] calls [tr] at every point, after the countdowns. *)
val trace : t -> tracer -> unit

(** Arm the per-pc tally for programs of up to [length] instructions:
    executions and beyond-L2 loads of every load pc, paid stall (loads
    and accelerator waits) at every pc, fired and skipped yields, and
    switch cycles charged at a yield. Runs on longer programs raise
    [Invalid_argument]. *)
val tally : t -> length:int -> unit

(** Per-pc tallies ([tally]'s arrays, indexed by pc; empty when
    unarmed). *)
val load_execs : t -> int array

val load_misses : t -> int array

(** Paid stall cycles, summed over every {!stall} point. *)
val stalls : t -> int array

val fired_yields : t -> int array

val skipped_yields : t -> int array

(** Switch cycles a scheduler charged after a yield ({!switch}). *)
val switch_cycles : t -> int array

(** {1 Called by the engine} *)

(** [start p ~instructions ~length] opens a run of a context whose
    instruction count is [instructions], on a program of [length]
    instructions.
    @raise Invalid_argument if the tally is shorter than the program. *)
val start : t -> instructions:int -> length:int -> unit

val frontend : t -> ctx:int -> pc:int -> stall:int -> cycle:int -> unit

(** A retired load, with the cycle after its cost. *)
val load :
  t -> ctx:int -> pc:int -> addr:int -> level:int -> stall:int -> queue:int -> cycle:int -> unit

(** A paid memory or accelerator stall ([stall > 0]), after the load
    or wait that paid it. *)
val stall : t -> ctx:int -> pc:int -> stall:int -> cycle:int -> unit

(** A taken control transfer by the instruction whose fetch brought
    the context's count to [instructions]. *)
val branch :
  t -> ctx:int -> instructions:int -> from_pc:int -> to_pc:int -> cycle:int -> unit

val yield :
  t -> ctx:int -> pc:int -> kind:Stallhide_isa.Instr.yield_kind -> fired:bool -> cycle:int -> unit

val opmark : t -> ctx:int -> pc:int -> cycle:int -> unit

(** Close the run: [retired] is the context's instruction count less
    any instruction that faulted. *)
val finish : t -> retired:int -> unit

(** {1 Called by the schedulers} *)

(** [switch p ~pc ~cost]: a scheduler charged [cost] switch cycles
    after the yield at [pc]. Tallies nothing when [pc < 0] (a switch
    after a halt) or when the tally is unarmed. *)
val switch : t -> pc:int -> cost:int -> unit
