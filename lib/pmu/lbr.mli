(** Last Branch Records (an LBR model).

    Hardware keeps a ring of the last [depth] *taken* branches, each
    with a cycle timestamp. A profiler samples the ring every
    [snapshot_period] retired instructions. Two consecutive records in a
    snapshot delimit a straight-line run: from the target of the first
    branch to the source of the second — which yields a measured
    latency for that run. The scavenger instrumentation phase consumes
    these (via {!Profile}) to estimate basic-block latencies, as §3.3
    proposes.

    {!attach} arms the ring on a {!Stallhide_cpu.Probe}: either
    interpreter pushes each taken branch and counts no retires. A
    snapshot depends only on the ring, and the ring changes only at a
    push, so the snapshots due since the previous push are all taken
    just before the next one (or at the end of the run), from the
    retired-instruction count: exactly the snapshots a per-retire
    countdown takes. *)

type record = { from_pc : int; to_pc : int; cycle : int }

type t

(** [depth] defaults to 32 and [max_snapshots] to 65,536; snapshots
    past the cap are not kept.
    @raise Invalid_argument if [snapshot_period] or [depth] is not
    positive. *)
val create : ?depth:int -> ?max_snapshots:int -> snapshot_period:int -> unit -> t

(** Record this unit's branches on the probe. Attach to one probe. *)
val attach : t -> Stallhide_cpu.Probe.t -> unit

(** Each snapshot lists records oldest-first. The unit keeps them
    flat; this builds the records.
    Exported for [test_pmu] only. *)
val snapshots : t -> record array list

val snapshot_count : t -> int

(** Allocation-free reads. Records are numbered across snapshots in
    order: snapshot [s] ([0 <= s < snapshot_count t]) holds records
    [snapshot_start t s] to [snapshot_start t s + snapshot_length t s - 1],
    oldest first, and [from_pc], [to_pc] and [cycle] read a record by
    that number.
    @raise Invalid_argument on an index out of range. *)
val snapshot_start : t -> int -> int

val snapshot_length : t -> int -> int

val from_pc : t -> int -> int

val to_pc : t -> int -> int

val cycle : t -> int -> int
