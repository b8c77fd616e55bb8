(** The kv-cluster experiment on top of {!Cluster}: the setup behind
    `stallhide cluster`, bench C23 and the CI cluster-resilience job.

    Clients are open-loop (arrivals do not wait for responses) with
    Zipfian keys; every machine is a full C19-style kv-server replica —
    sharded tables, GROUP-BY scavengers, optional PGO stall-hiding —
    built from machine- and restart-independent seeds so every replica
    incarnation computes bit-identical payloads (the property behind
    safe retries, hedges and crash-restart failover). *)

open Stallhide_sched
open Stallhide_net
module Faults = Stallhide_faults.Faults

type params = {
  machines : int;
  cores : int;  (** per machine *)
  lb : Lb.policy;
  policy : Dispatch.policy;  (** intra-machine steering *)
  pgo : bool;  (** instrument for stall-hiding (yields + scavengers) *)
  requests : int;  (** total offered *)
  req_ops : int;
  service_compute : int;
  table_slots : int;
  scav_per_core : int;
  scav_tuples : int;
  scav_groups : int;
  scav_interval : int;
  skew : float;
  key_universe : int;
  interarrival : int;  (** mean per-core cycles between arrivals *)
  seed : int;
  net : Netconfig.t;
  defense : Defense.t option;
  slo_deadline : int;
  faults : Faults.fault list;
  horizon : int;
}

val default_params : params

type run = {
  params : params;
  result : Cluster.result;
  goodput_rpk : float;  (** acked requests per kilocycle of makespan *)
}

(** The deterministic client trace for these params — shared verbatim
    by every arm of an experiment. *)
val trace : params -> Cluster.spec list

(** A replica's shape as {!Stallhide_smp.Harness.params}: [cores], the
    request and table sizes, the scavenger sizes, [scav_interval] and
    [seed], with [Pgo] placement and the default memory. The replica
    twins are {!Stallhide_smp.Harness.instrument_twins} of it, and
    {!node_factory} builds every node with
    {!Stallhide_smp.Harness.node}. *)
val smp_params : params -> Stallhide_smp.Harness.params

(** The replica factory (optionally serving instrumented programs);
    exposed so that callers can time node builds or replay one
    incarnation through a single machine. Nodes are untraced
    ({!Stallhide_smp.Machine.config.trace} is [false]): nothing in the
    cluster reads their event streams. Applying it to [params]
    generates the replica image once; each incarnation gets its own
    {!Stallhide_mem.Address_space.fork} of it. *)
val node_factory :
  ?kv_program:Stallhide_isa.Program.t ->
  ?scav_program:Stallhide_isa.Program.t ->
  params ->
  machine:int ->
  restart:int ->
  Cluster.node_impl

(** @raise Invalid_argument if [machines], [cores] or [requests] is not
    positive. *)
val run : params -> run

(** [calibrate p] tunes a defense from the fault-free undefended run of
    [p]: attempt timeout ~2x fault-free p99, hedges at the p90 knee,
    SLO deadline 16x p99. Returns the defense and the deadline to use
    as [slo_deadline]. *)
val calibrate : params -> Defense.t * int

(** [fault_rows p faults] — the cluster fault matrix in the
    single-machine harness's row shape (so `stallhide inject` prints
    one table): per net fault, fault-free / undefended /
    calibrated-defense arms, each arm's [hidden_cycles] measured
    against its own stall-hiding-off twin.
    @raise Invalid_argument on a single-machine fault. *)
val fault_rows : params -> Faults.fault list -> Stallhide_faults.Harness.row list

val to_json : run -> Stallhide_util.Json.t
