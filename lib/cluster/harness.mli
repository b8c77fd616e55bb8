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
  skew : float;  (** Zipf exponent over a replica's key universe *)
  interarrival : int;  (** mean per-core cycles between arrivals; 0 is back to back *)
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
    by every arm of an experiment. {!Stallhide_smp.Harness.open_loop}
    over the key universe of {!Stallhide_smp.Harness.default_params},
    at [skew], one arrival per [interarrival / (machines × cores)]
    cycles on average. *)
val trace : params -> Cluster.spec list

(** A replica as {!Stallhide_smp.Harness.params}: exactly
    {!Stallhide_smp.Harness.default_params} with this cluster's
    [cores] and [seed]; every other replica size is the SMP harness's
    default. The replica twins are
    {!Stallhide_smp.Harness.instrument_twins} of it. *)
val smp_params : params -> Stallhide_smp.Harness.params

(** The replica factory (optionally serving instrumented programs);
    exposed so that callers can time node builds or replay one
    incarnation through a single machine. Every node is
    {!Stallhide_smp.Harness.node} of {!smp_params} and runs on
    {!Stallhide_smp.Harness.machine_config} of it with [max_cycles] set
    to [horizon]. Nodes are untraced
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

(** The serving input rules, checked before anything is built: [cores]
    and [requests] positive, [interarrival >= 0] and a finite [skew],
    then {!Cluster.validate} of the config these params build (which
    holds [machines > 0] and the fault and defense rules).
    @raise Invalid_argument naming the rule and the offending value. *)
val validate : params -> unit

(** @raise Invalid_argument as {!validate}, which it calls first. *)
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
    @raise Invalid_argument as {!validate} of [{ p with faults }],
    before any run. *)
val fault_rows : params -> Faults.fault list -> Stallhide_faults.Harness.row list

val to_json : run -> Stallhide_util.Json.t
