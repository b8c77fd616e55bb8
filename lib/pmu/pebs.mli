(** Precise event-based sampling (a PEBS model).

    A unit counts occurrences of one hardware event and records a
    *precise* sample — carrying the exact pc and data address of the
    triggering instruction — every [period] occurrences. Samples land in
    a bounded in-memory buffer; once full, further samples are dropped
    and counted (the buffer-size/overhead trade-off of §3.2).

    Events:
    - [Loads_all] — every retired load (the execution-count estimator);
    - [L2_miss_loads] — loads served beyond L2 (from L3 or DRAM);
    - [L3_miss_loads] — loads served from DRAM;
    - [Stall_cycles] — counts stall *cycles* of any cause (memory and
      front-end: like the real event the paper's footnote discusses, it
      "does not indicate causal relationship"); the sample attributes
      them to the stalling pc.
    - [Frontend_stalls] — counts only instruction-fetch stall cycles;
      §3.2's "additional events ... to filter out stalls due to other
      reasons" subtracts these from [Stall_cycles].

    A unit is fed one of two ways. {!attach} arms it on a
    {!Stallhide_cpu.Probe}, which the decoded-µop loop updates at loads
    and paid stalls: a sample record is built only when the countdown
    fires. {!hooks} feeds it from per-instruction {!Stallhide_cpu.Events}
    hooks, which keep the run on the reference interpreter; it is kept
    as the reference arm of the differential test. Both count on the
    same {!Stallhide_cpu.Probe.countdown} and record through the same
    buffer and degradation rules, so they give identical samples. *)

type event = Stallhide_cpu.Probe.event =
  | Loads_all
  | L2_miss_loads
  | L3_miss_loads
  | Stall_cycles
  | Frontend_stalls

(** Exported for [test_pmu] only. *)
val event_name : event -> string

type sample = { pc : int; addr : int; stall : int; cycle : int }

(** Deterministic sampling-degradation fault, applied to every would-be
    sample before it reaches the buffer:
    - [loss] — probability the sample is silently discarded (overflow,
      microcode drop);
    - [skid] — maximum forward pc displacement; each surviving sample
      lands on a uniformly-chosen pc in [pc .. pc+skid] (the classic
      non-precise-sampling skid);
    - [misattr] — probability the sample's pc is replaced by a recently
      sampled *unrelated* pc (cross-load misattribution under pressure).
    Misattribution and skid are mutually exclusive per sample
    (misattribution wins the coin flip first). Seeded: identical runs
    degrade identically. *)
type degradation_spec = { loss : float; skid : int; misattr : float; seed : int }

type t

val create : ?buffer_capacity:int -> event:event -> period:int -> unit -> t

(** Arm the degradation fault on this unit.
    @raise Invalid_argument on probabilities outside [0,1] or negative
    skid. *)
val degrade : t -> degradation_spec -> unit

(** [(lost, skidded, misattributed)] counts injected so far.
    Exported for [test_pmu] only. *)
val degradation_injected : t -> int * int * int

(** Exported for [test_pmu] only. *)
val event : t -> event

val period : t -> int

(** Count this unit's event on the probe. Attach a unit to one probe,
    and feed it either from a probe or from {!hooks}, not both. *)
val attach : t -> Stallhide_cpu.Probe.t -> unit

(** Per-instruction hooks counting this unit's event (the reference
    arm; a run with them takes the reference interpreter).
    Exported for [test_pmu] only. *)
val hooks : t -> Stallhide_cpu.Events.t

(** The buffered samples, oldest first. The buffer keeps them flat;
    this builds the records.
    Exported for [test_pmu] only. *)
val samples : t -> sample list

(** [sample_pc t i] is the pc of the [i]-th buffered sample,
    [0 <= i < sample_count t], without building it. *)
val sample_pc : t -> int -> int

val sample_count : t -> int

(** Samples lost to buffer overflow.
    Exported for [test_pmu] only. *)
val dropped : t -> int

(** Total event occurrences observed (for overhead accounting).
    Exported for [test_pmu] only. *)
val occurrences : t -> int

(** Exported for [test_pmu] only. *)
val clear : t -> unit

(** Estimated profiling-run overhead in cycles: samples taken times the
    per-sample microcode/drain cost (40 cycles, the published
    PEBS ballpark). This is the quantity the paper's sampling-frequency
    trade-off (§3.2) balances against profile freshness. *)
val overhead_cycles : t -> int
