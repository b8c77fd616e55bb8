(** The profile database: estimators over PEBS/LBR samples.

    This is the "collected statistics" step (i) of §3.2. All quantities
    are *estimates* scaled by the sampling periods, never ground truth —
    the downstream instrumentation must work with exactly the fidelity a
    real sampling profiler provides:

    - miss probability of a load pc = (miss samples × miss period) /
      (exec samples × exec period);
    - stall cycles per miss at a pc from [Stall_cycles] samples;
    - per-pc latency from LBR straight-line runs, apportioned over the
      run's instructions proportionally to their static base cost (the
      standard AutoFDO-style attribution).

    The database is flat: per-pc arrays of sample counts, LBR cycles
    and executions. {!build} reads the units' flat sample and snapshot
    buffers in place ({!Pebs.sample_pc}, {!Lbr.from_pc} ...), and
    totals each LBR straight-line run from per-pc prefix sums of base
    cost and load count. The per-pc cycle sums are floats accumulated run by run in
    snapshot order: {!save} prints them exactly ([%h]), so that order
    is part of the format. *)

open Stallhide_isa

type t

(** Aggregate the units' samples and snapshots. A PEBS sample that
    skid carried past the last pc counts in {!total_samples} but has
    no row.
    @raise Invalid_argument if an LBR record leaves the program (a
    branch from outside it, or to a pc past one beyond its end). *)
val build :
  program:Program.t ->
  ?exec:Pebs.t ->
  ?miss:Pebs.t ->
  ?stall:Pebs.t ->
  ?frontend:Pebs.t ->
  ?lbr:Lbr.t ->
  unit ->
  t

(** Estimated probability that the load at [pc] misses (beyond L2).
    [None] when the pc was never seen in an execution sample. *)
val miss_probability : t -> int -> float option

(** Estimated *memory* stall cycles per miss at [pc]: the generic
    stall estimate minus the front-end portion when a FRONTEND_STALLS
    unit was supplied (§3.2's cause filtering). [None] without samples. *)
val stall_per_miss : t -> int -> float option

(** Estimated *memory* stall cycles attributed to [pc] (period-scaled,
    front-end portion subtracted) — nonzero for any stalling
    instruction, including accelerator waits that no load event covers. *)
val stalls_at : t -> int -> int

(** Same, without the front-end subtraction (the raw generic event). *)
val raw_stalls_at : t -> int -> int

(** Load pcs with at least one miss sample, ascending.
    Exported for [test_pmu] only. *)
val candidate_loads : t -> int list

(** LBR-estimated cycles per execution of the instruction at [pc]. *)
val pc_cycles : t -> int -> float option

(** Total samples aggregated (all units). *)
val total_samples : t -> int

val pp_summary : Format.formatter -> t -> unit

(** AutoFDO-style persistence: profiles are collected in production and
    applied at (re)build time, possibly in a different process. The
    format is line-oriented text, with one row per instruction of the
    program. [load] validates it against the program it will
    instrument (by the length on its required [meta] line) and refuses
    values no profiling run produces: a period that is not positive, a negative
    sample count, stall total or [samples], and an [lbr] estimate that
    is negative or not finite.

    @raise Failure on a malformed or mismatching profile. *)

val save : t -> string

val load : program:Program.t -> string -> t
