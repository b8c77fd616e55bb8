(** Profile-drift detection and graceful de-instrumentation.

    A profile-guided yield site is a bet: the covered loads will miss,
    so paying a context switch there wins. When the workload drifts
    between profiling and production — the working set shrinks, the hot
    path moves — the bet goes bad: the loads hit, no stall is hidden,
    and every firing pays the switch for nothing. The drift detector
    closes the loop from {!Attribution}: sites whose
    *measured* gain is negative (with at least 4 firings to count as
    evidence) are declared losing and their yields replaced by [Nop] —
    de-instrumentation back toward the uninstrumented binary, which is
    exactly the fallback the paper's software-only stance makes cheap.

    When a quarter or more of the judged sites lose, the whole profile
    is flagged stale ([verdict.stale]) — the signal to re-profile
    rather than keep patching.

    De-instrumentation defers to the static analysis: a yield covering
    a load proven [Always_miss] ({!Stallhide_analysis}) is useful on
    every execution regardless of what the (possibly corrupted or
    stale) attribution claims, so [protect] can pin such sites
    — the stale-profile defense must never turn off provably-useful
    yields.

    The {!verdict} carries every count the fault harness reports as a
    [drift.*] counter. *)

open Stallhide_isa

type verdict = {
  losing : Attribution.site list;  (** sites to de-instrument *)
  judged : int;  (** sites with at least 4 firings *)
  lost_cycles : int;  (** total cycles the losing sites cost (≥ 0) *)
  stale : bool;  (** at least a quarter of the judged sites lose *)
  deinstrumented : int;  (** losing yields replaced by [Nop] *)
  protected : int;  (** losing yields kept because [protect] pins them *)
}

(** Judge every site of [report], then replace the losing sites'
    yields with [Nop], keeping program length, pc numbering and
    liveness annotations (the paired prefetches stay: prefetching a
    resident line is nearly free). [protect pc] (instrumented
    coordinates) pins a yield: it is kept even when losing, counted in
    [protected]. Returns the program unchanged when nothing is
    losing. *)
val adapt :
  ?protect:(int -> bool) ->
  Attribution.report ->
  Program.t ->
  Program.t * verdict
