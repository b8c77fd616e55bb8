(** Execution modes and measurement drivers for the transaction engine.

    - [Seq]: the plain workload under {!Stallhide.Baselines.run_sequential}
      — every index-node stall paid.
    - [Interleaved]: the manual (expert-annotated) variant under
      round-robin with coroutine switch costs — CoroBase-style K-deep
      interleaving, one prefetch+yield per key.
    - [Interleaved_pgo]: the plain variant through the full §3.2
      pipeline (profile → instrument → round-robin) — the primary pass
      coalesces the adjacent independent slot loads into group
      prefetches with one yield per group. *)

open Stallhide_runtime

type mode = Seq | Interleaved | Interleaved_pgo

val mode_to_string : mode -> string

val mode_of_string : string -> mode option

type params = {
  inflight : int;  (** K: in-flight transaction coroutines per core *)
  txns : int;  (** transactions per coroutine *)
  batch : int;  (** keys per transaction *)
  mix : int;  (** multi-put percentage; 0 = batch-of-gets *)
  keys : int;
  theta : float;
  seed : int;
}

val default_params : params

type counters = {
  commits : int;
  aborts : int;
  latch_waits : int;
  group_prefetch_hits : int;  (** lookups covered by the home-slot group prefetch *)
  lookups : int;
}

type outcome = { mode : mode; metrics : Stallhide.Metrics.t; counters : counters }

(** Read the engine counters out of a finished run's image and layout.
    Exported for [test_txn] only. *)
val read_counters : Stallhide_mem.Address_space.t -> Txn_oltp.layout -> counters

(** Build the workload for [params] and measure it under [mode].
    Per-transaction latency rides in [metrics.latency] (one opmark per
    commit). *)
val run : ?opts:Stallhide.Baselines.opts -> mode -> params -> outcome

(** Publish [txn.*] counters (commits, aborts, latch waits,
    group-prefetch hits) into an obs registry. *)
val counters_into : Stallhide_obs.Registry.t -> outcome -> unit

type smp_outcome = {
  smp_mode : mode;
  cores : int;
  cycles : int;
  completed : int;
  txn_throughput : float;  (** committed transactions per kilocycle *)
  summary : Latency.summary;  (** per-transaction sojourn latency *)
  smp_counters : counters;
  scav_dispatches : int;
      (** analytics-scan dispatches into transaction stall windows *)
}

(** The {!Stallhide_smp.Machine} leg: per-core table instances (one
    [Txn_oltp.make] each — cooperative atomicity holds only within a
    core), [txns] single-transaction requests per core with staggered
    arrivals, and two analytics-scan scavengers per core hiding
    transaction yields in the interleaved modes. *)
val run_smp : ?cores:int -> mode -> params -> smp_outcome
