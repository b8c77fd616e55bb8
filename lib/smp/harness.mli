(** The sharded kv-server experiment on top of {!Machine}: the setup
    behind `stallhide smp`, bench C19 and the CI smoke job.

    Requests are KV-GET lanes ({!Stallhide_workloads.Kv_server}): keys
    are drawn Zipfian from a fixed key universe, each key's home shard
    is its key hash ({!Stallhide_sched.Dispatch.home}), and each shard
    owns a private hash table in the one shared memory image — so
    d-FCFS dispatch gives perfect locality but inherits the key skew,
    while JBSQ steers around the hot shard at the price of serving a
    request against a remote shard's table. Scavengers are GROUP-BY
    lanes ({!Stallhide_workloads.Group_by}) that all aggregate into one
    accumulator array, so scavenger stores on different cores
    invalidate each other's private lines — the cross-core sharing
    cost the shared L3 models.

    With [pgo] on, both programs go through the §3.2 pipeline
    ({!Stallhide.Pipeline.place}: evidence → instrument → verify,
    fail-fast) once, on small twin workloads with the same program
    text; the instrumented program is then rebound to every serving
    shard. [verify_errors] and [verify_warnings] are that one
    validation's counts, so callers can assert verifier-cleanliness.

    {!node} is what a kv-serving machine is made of and
    {!machine_config} what it runs on; a cluster replica is
    {!default_params} at the cluster's [cores] and [seed], built with
    both. *)

open Stallhide_sched
open Stallhide_workloads

(** {!Stallhide.Pipeline.placement}. The re-export remains only because
    [perfbench/serving.ml] names [Harness.Pgo]. *)
type placement = Stallhide.Pipeline.placement = Pgo | Static | Hybrid

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
  scav_per_core : int;  (** all enqueued on core 0; stealing spreads them *)
  scav_tuples : int;
  scav_groups : int;
  scav_interval : int;  (** scavenger-pass yield interval under PGO *)
  skew : float;  (** Zipf exponent over the key universe *)
  key_universe : int;
  interarrival : int;  (** mean per-core cycles between arrivals; 0 is back to back *)
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
          per-core streams carry only steals); [true] records the
          per-instruction, per-slice and per-request events the
          critical path and Perfetto export read, on either
          interpreter *)
  engine_fast : bool;
      (** {!Stallhide_cpu.Engine.config.fast} on every core (default
          [true]); [false] pins the reference interpreter — the
          baseline arm of the C25 speed bench *)
}

val default_params : params

(** Cumulative Zipf table over the key universe (weight
    [1/(rank+1)^skew]) and a sampler over it: the serving clients'
    key popularity ({!open_loop}) and the txn engine's key batches. *)
val zipf_cdf : universe:int -> skew:float -> float array

val zipf_sample : float array -> Random.State.t -> int

(** [open_loop st ~universe ~skew ~gap n] draws [n] open-loop requests
    from [st]: per request a Zipfian key ({!zipf_sample}), then a gap
    of [gap / 2] plus a uniform jitter below [max 1 gap] cycles after
    the previous arrival. Returns each request's [(key, arrival)] in
    arrival order. The SMP clients and the cluster's draw through it,
    each with its own seed salt and gap. *)
val open_loop :
  Random.State.t -> universe:int -> skew:float -> gap:int -> int -> (int * int) array

(** {!Stallhide.Pipeline.place} once on a small twin workload with the
    same program text, validated once ({!Stallhide_verify.Verify.validate}
    at [scavenger_interval]); callers rebind the returned program to
    every serving workload ({!Workload.with_program}). Returns
    [(program, verify_errors, verify_warnings)].
    @raise Stallhide_verify.Verify.Rejected on any error-severity
    diagnostic. *)
val instrument_twin :
  twin:Workload.t ->
  placement:placement ->
  mem:Stallhide_mem.Memconfig.t ->
  ?scavenger_interval:int ->
  unit ->
  Stallhide_isa.Program.t * int * int

(** The twins of [p]'s serving programs: a kv-server of 8 lanes and 64
    requests at [seed + 1] (reads [table_slots] and [service_compute]),
    and a GROUP-BY of 4 lanes and [max 400 scav_tuples] tuples at
    [seed + 2] (reads [scav_groups]). *)
val kv_twin : params -> Workload.t

val scav_twin : params -> Workload.t

(** Both twins through {!instrument_twin} under [p.placement] and
    [p.memcfg], the GROUP-BY one at [scav_interval]: the kv program,
    the scavenger program, and the summed verifier errors and
    warnings. *)
val instrument_twins : params -> Stallhide_isa.Program.t * Stallhide_isa.Program.t * int * int

(** A kv-serving machine's workloads, all in one image. *)
type node = {
  image : Stallhide_mem.Address_space.t;  (** sized to exactly what the generators allocate *)
  shards : Workload.t option array;
      (** core [s]'s kv-server, one lane per request homed there; [None]
          when no request is *)
  scav : Workload.t option;
      (** [scav_per_core × cores] GROUP-BY lanes, every one aggregating
          into lane 0's accumulator array (r3 is lane 0's base in every
          lane); [None] when there are none *)
}

(** [node p ~per_shard] builds a node for [per_shard.(s)] requests homed
    to each of [p.cores] shards, serving [kv_program] and
    [scav_program] when given (the generators' programs otherwise).
    Reads [cores], [table_slots], [req_ops], [service_compute],
    [scav_per_core], [scav_groups], [scav_tuples] and [seed].

    The scavengers come from {!Group_by.make} [~shared:true], so the
    image backs lane 0's accumulators only; the other lanes' ranges are
    reserved and hold their addresses without memory. *)
val node :
  ?kv_program:Stallhide_isa.Program.t ->
  ?scav_program:Stallhide_isa.Program.t ->
  params ->
  per_shard:int array ->
  node

(** Per-core scavenger lists, one per shard: every lane of [node.scav]
    on core 0, in lane order, lane [k] with context id [id k]. *)
val scavengers : node -> id:(int -> int) -> Stallhide_cpu.Context.t list array

type run = {
  params : params;
  result : Machine.result;
  throughput : float;  (** completed requests per kilocycle *)
  verify_programs : int;  (** instrumented programs validated *)
  verify_errors : int;
  verify_warnings : int;
}

(** The serving input rules, checked before anything is drawn or
    built: [cores > 0], [requests_per_core >= 0], [interarrival >= 0]
    and a finite [skew]. {!run} and {!live} call it first.
    @raise Invalid_argument naming the rule and the offending value. *)
val validate : params -> unit

(** The serving machine's config: [cores], [memcfg], the shared-L3
    window and budget, a coroutine-switch {!Stallhide_runtime.Core_sched.config} with
    [steal_budget] and [steal_cost] on [engine_fast], and [steal],
    [max_cycles], [prepare_core] and [trace]. {!run} serves on it, and
    every cluster replica on it at the cluster's horizon. *)
val machine_config : params -> Machine.config

(** @raise Invalid_argument as {!validate}. *)
val run : params -> run

(** The machine {!run} drives, built the same way with every request
    submitted and nothing stepped yet, for callers that step it
    themselves.
    @raise Invalid_argument as {!run}. *)
val live : params -> Machine.Live.t

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
