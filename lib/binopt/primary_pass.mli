(** Primary yield instrumentation (§3.2, step ii).

    For each load selected by the gain/cost policy, inserts
    [prefetch; yield] immediately before it, so the coroutine starts the
    fill and relinquishes the core while the line travels. With
    [coalesce] on, independent adjacent selected loads (per {!Depend})
    share a single yield: all their prefetches are hoisted to the group
    head. With [conditional] on, a [Yield_cond] is emitted instead —
    the §4.1 hardware-supported variant that tests residency first
    (conditional sites are not coalesced). Every [Accel_wait] the
    profile saw stalling also gets a yield, with no prefetch: the
    operation is already in flight.

    Under [Static] placement the choice is per site: loads the analysis
    proved [Always_miss] keep the unconditional [prefetch; yield]
    (the residency check could never pass), while sites placed on a
    taint prior alone get a [Yield_cond] — a prior is a bet, and the
    residency check caps the cost of losing it at one check instead of
    a full context switch.

    After rewriting, yield sites are liveness-annotated so the runtime
    charges the reduced switch cost. *)

open Stallhide_isa

type opts = {
  policy : Gain_cost.policy;
  machine : Gain_cost.machine;
  coalesce : bool;
  max_group : int;
  conditional : bool;
  placement : Gain_cost.placement;
      (** where site estimates come from: the supplied profile
          estimates ([Pgo], default), the static analysis alone
          ([Static] — the estimates argument is ignored), or proven
          static facts layered over the profile ([Hybrid]) *)
}

val default_opts : opts

type report = {
  selected : int list;
      (** chosen sites in *original* program coordinates: the loads the
          policy picked (ascending), followed by any accelerator-wait
          sites *)
  yield_sites : int;  (** yields actually inserted *)
  coalesced_groups : int;  (** groups of >= 2 loads sharing one yield *)
}

(** Returns the instrumented program, the orig-of-new pc map, and the
    report. [wait_stalls pc] reports profiled stall cycles at an
    [Accel_wait] (defaults to "always stalling" so [Always] covers
    accelerator code without a profile). *)
val run :
  ?wait_stalls:(int -> int) ->
  opts ->
  Gain_cost.estimates ->
  Program.t ->
  Program.t * int array * report
