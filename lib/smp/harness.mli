(** The sharded kv-server experiment on top of {!Machine}: the setup
    behind `stallhide smp`, bench C19 and the CI smoke job.

    Requests are KV-GET lanes ({!Stallhide_workloads.Kv_server}): keys
    are drawn Zipfian from a fixed key universe, each key's home shard
    is its key hash ({!Stallhide_sched.Dispatch.home}), and each shard
    owns a private hash table in the one shared memory image — so
    d-FCFS dispatch gives perfect locality but inherits the key skew,
    while JBSQ steers around the hot shard at the price of serving a
    request against a remote shard's table. Scavengers are GROUP-BY
    lanes ({!Stallhide_workloads.Group_by}); with
    [share_scav_accs] they all aggregate into one accumulator array,
    so scavenger stores on different cores invalidate each other's
    private lines — the cross-core sharing cost the shared L3 models.

    With [pgo] on, both programs go through the §3.2 pipeline
    (profile → instrument → verify, fail-fast) once, on small twin
    workloads with the same program text; the instrumented program is
    then rebound to every serving shard. [verify_errors] and
    [verify_warnings] re-validate the rebound programs so callers can
    assert verifier-cleanliness without trusting the fail-fast path. *)

open Stallhide_sched

(** How yield/prefetch sites are chosen when [pgo] is on: [Pgo]
    profiles the twin workload (§3.2), [Static] places purely from the
    must/may cache analysis ({!Stallhide_analysis}) with no profiling
    run at all, [Hybrid] profiles and lets proven static facts override
    the samples. *)
type placement = Pgo | Static | Hybrid

val placement_name : placement -> string

val placement_of_string : string -> placement option

type params = {
  cores : int;
  policy : Dispatch.policy;
  steal : bool;
  pgo : bool;
  placement : placement;  (** site-selection evidence when [pgo] is on *)
  requests_per_core : int;
  req_ops : int;  (** GET probes per request *)
  service_compute : int;  (** ALU work per GET *)
  table_slots : int;  (** per-shard hash-table slots *)
  scav_per_core : int;
  scav_home_cores : int;
      (** batch work is enqueued on this many cores (default 1);
          stealing spreads it to the rest *)
  scav_tuples : int;
  scav_groups : int;
  share_scav_accs : bool;  (** scavengers share one accumulator array *)
  scav_interval : int;  (** scavenger-pass yield interval under PGO *)
  skew : float;  (** Zipf exponent over the key universe *)
  key_universe : int;
  interarrival : int;  (** mean per-core cycles between arrivals *)
  seed : int;
  l3_window : int;
  l3_budget : int;
  steal_budget : int;
  steal_cost : int;
  max_cycles : int;
  memcfg : Stallhide_mem.Memconfig.t;
      (** memory geometry for every core (default
          [Memconfig.default]) — the sweep driver perturbs cache sizes
          and latencies through this *)
  prepare_core : int -> Stallhide_mem.Hierarchy.t -> unit;
      (** forwarded to {!Machine.config.prepare_core} (default no-op) *)
  trace : bool;
      (** forwarded to {!Machine.config.trace} (default [false]: the
          decoded-µop fast path runs and the per-core streams carry
          only steals); [true] records the per-instruction, per-slice
          and per-request events the critical path and Perfetto export
          read *)
  engine_fast : bool;
      (** {!Stallhide_cpu.Engine.config.fast} on every core (default
          [true]); [false] pins the reference interpreter — the
          baseline arm of the C25 speed bench *)
}

val default_params : params

(** Cumulative Zipf table over the key universe (weight
    [1/(rank+1)^skew]) and a sampler over it — shared with the cluster
    harness's open-loop clients. *)
val zipf_cdf : universe:int -> skew:float -> float array

val zipf_sample : float array -> Random.State.t -> int

(** Profile + instrument once on a small twin workload with the same
    program text; callers rebind the returned program to every serving
    workload ({!Stallhide_workloads.Workload.with_program}). Returns
    [(program, verify_errors, verify_warnings)]. *)
val instrument_twin :
  twin:Stallhide_workloads.Workload.t ->
  placement:placement ->
  mem:Stallhide_mem.Memconfig.t ->
  ?scavenger_interval:int ->
  unit ->
  Stallhide_isa.Program.t * int * int

type run = {
  params : params;
  result : Machine.result;
  throughput : float;  (** completed requests per kilocycle *)
  verify_programs : int;  (** instrumented programs validated *)
  verify_errors : int;
  verify_warnings : int;
}

(** @raise Invalid_argument if [cores <= 0] or [requests_per_core < 0]. *)
val run : params -> run

(** [speedup ~base r] and [efficiency ~base r]: throughput relative to
    [base] (the single-core run of the same configuration), raw and
    divided by [r]'s core count. *)
val speedup : base:run -> run -> float

val efficiency : base:run -> run -> float

(** The run's single-core reference configuration. *)
val reference_params : params -> params

(** Everything but the registry view (the caller owns the registry):
    config echo, machine totals, merged latency summary, per-core rows,
    shared-L3 stats, verifier counts. *)
val to_json : run -> Stallhide_util.Json.t
