open Stallhide_util
open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_sched
open Stallhide_workloads
open Stallhide_smp
open Stallhide_net
module Faults = Stallhide_faults.Faults

type params = {
  machines : int;
  cores : int;
  lb : Lb.policy;
  policy : Dispatch.policy;
  pgo : bool;
  requests : int;
  req_ops : int;
  service_compute : int;
  table_slots : int;
  scav_per_core : int;
  scav_tuples : int;
  scav_groups : int;
  scav_interval : int;
  skew : float;
  key_universe : int;
  interarrival : int;  (* mean per-core cycles between arrivals, as in Smp.Harness *)
  seed : int;
  net : Netconfig.t;
  defense : Defense.t option;
  slo_deadline : int;
  faults : Faults.fault list;
  horizon : int;
}

let default_params =
  {
    machines = 4;
    cores = 4;
    lb = Lb.P2c;
    policy = Dispatch.Jbsq;
    pgo = true;
    requests = 192;
    req_ops = 6;
    service_compute = 40;
    table_slots = 4096;
    scav_per_core = 6;
    scav_tuples = 120;
    scav_groups = 2048;
    scav_interval = 150;
    skew = 1.1;
    key_universe = 512;
    interarrival = 2800;
    seed = 42;
    net = Netconfig.default;
    defense = None;
    slo_deadline = 150_000;
    faults = [];
    horizon = 50_000_000;
  }

type run = {
  params : params;
  result : Cluster.result;
  goodput_rpk : float;  (* acked requests per kilocycle of cluster makespan *)
}

(* Deterministic open-loop trace: Zipfian keys over the key universe,
   jittered arrivals at constant cluster-wide offered load. Only a
   function of the params, so every arm of an experiment (defended,
   undefended, fault-free baseline) replays the same clients. *)
let trace p =
  let st = Random.State.make [| p.seed; 0xC23 |] in
  let cdf = Harness.zipf_cdf ~universe:p.key_universe ~skew:p.skew in
  let gap = max 1 (p.interarrival / max 1 (p.machines * p.cores)) in
  let t = ref 0 in
  List.init p.requests (fun rid ->
      let key = Harness.zipf_sample cdf st in
      t := !t + (gap / 2) + Random.State.int st (max 1 gap);
      { Cluster.rid; key; send = !t })

(* A replica in the single-machine harness's terms: the twins and the
   node builder read only these fields. *)
let smp_params p =
  {
    Harness.default_params with
    Harness.cores = p.cores;
    req_ops = p.req_ops;
    service_compute = p.service_compute;
    table_slots = p.table_slots;
    scav_per_core = p.scav_per_core;
    scav_tuples = p.scav_tuples;
    scav_groups = p.scav_groups;
    scav_interval = p.scav_interval;
    seed = p.seed;
  }

(* Every machine must be able to serve any request (retries and hedges
   go to machines the request has not tried), so a replica hosts a lane
   for every rid, sharded by key hash exactly like the single-machine
   harness. Replica seeds do NOT depend on the machine id or the
   restart count: every incarnation of every machine computes
   bit-identical payloads — the property the cluster fuzz oracle and
   the failover-correctness invariant check. So the node is built
   once, here, and each incarnation runs on an [Address_space.fork] of
   its image with fresh scavenger contexts; it copies only the chunks
   its scavengers write. *)
let node_factory ?kv_program ?scav_program p =
  let reqs = Array.of_list (trace p) in
  let total = Array.length reqs in
  let home_of = Array.map (fun (s : Cluster.spec) -> Dispatch.home ~shards:p.cores s.key) reqs in
  let per_shard = Array.make p.cores 0 in
  let lane_of =
    Array.map
      (fun s ->
        let lane = per_shard.(s) in
        per_shard.(s) <- lane + 1;
        lane)
      home_of
  in
  let node = Harness.node ?kv_program ?scav_program (smp_params p) ~per_shard in
  let config =
    {
      Machine.default_config with
      Machine.cores = p.cores;
      core = { Core_sched.default_config with Core_sched.steal_budget = 2 };
      max_cycles = p.horizon;
    }
  in
  let make_ctx ~rid ~attempt =
    let wl = match node.Harness.shards.(home_of.(rid)) with Some w -> w | None -> assert false in
    (* id is unique per (rid, attempt) so concurrent attempts on
       different machines never collide in a completion table *)
    Workload.context wl ~lane:lane_of.(rid) ~id:((8 * rid) + min attempt 7) ~mode:Context.Primary
  in
  fun ~machine:_ ~restart:_ ->
    let scavengers = Harness.scavengers node ~id:(fun k -> 8 * (total + k)) in
    { Cluster.config; mem = Address_space.fork node.Harness.image; scavengers; make_ctx }

let run p =
  if p.machines <= 0 then invalid_arg "Cluster.Harness.run: machines must be positive";
  if p.cores <= 0 then invalid_arg "Cluster.Harness.run: cores must be positive";
  if p.requests <= 0 then invalid_arg "Cluster.Harness.run: requests must be positive";
  let kv_program, scav_program =
    if not p.pgo then (None, None)
    else
      let kvp, scp, _, _ = Harness.instrument_twins (smp_params p) in
      (Some kvp, Some scp)
  in
  let node = node_factory ?kv_program ?scav_program p in
  let config =
    {
      Cluster.machines = p.machines;
      policy = p.policy;
      lb = p.lb;
      net = p.net;
      defense = p.defense;
      slo_deadline = p.slo_deadline;
      seed = p.seed;
      faults = p.faults;
      horizon = p.horizon;
    }
  in
  let result = Cluster.run config ~node ~requests:(trace p) in
  let goodput_rpk =
    if result.Cluster.cycles = 0 then 0.0
    else float_of_int result.Cluster.acked /. float_of_int result.Cluster.cycles *. 1000.0
  in
  { params = p; result; goodput_rpk }

(* Tune the defense against the fault-free run of the same params: the
   per-attempt timeout at ~2x the fault-free p99, hedges firing at the
   p90 knee, the SLO at 16x p99 — generous enough that a healthy
   cluster never trips them, tight enough that a crashed or slow node
   does. *)
let calibrate p =
  let base = run { p with defense = None; faults = [] } in
  let s = base.result.Cluster.split.Latency.goodput in
  let p99 = max 1 s.Latency.p99 in
  let p90 = max 1 s.Latency.p90 in
  let p50 = max 1 s.Latency.p50 in
  let deadline = 16 * p99 in
  let d =
    {
      Defense.deadline;
      timeout = min deadline (2 * p99);
      max_retries = 2;
      retry_budget_pct = 20;
      backoff = max 100 (p50 / 2);
      hedge_after = p90;
      hedge_max = 1;
      probe_interval = max 1 (2 * p99);
      strike_threshold = 3;
      brownout_depth = 4 * p.cores;
    }
  in
  Defense.validate d;
  (d, deadline)

(* Fault-matrix rows in the lib/faults harness shape, so `stallhide
   inject` prints cluster scenarios in the same table as the
   single-machine ones. hidden_cycles compares each arm against its own
   no-stall-hiding (pgo off) twin. *)
let fault_rows p faults =
  List.iter
    (fun f ->
      if not (Faults.is_net f) then
        invalid_arg
          (Printf.sprintf "Cluster.Harness.fault_rows: %s is a single-machine fault"
             (Faults.name f)))
    faults;
  let module FH = Stallhide_faults.Harness in
  let defense, slo = calibrate p in
  let base = { p with slo_deadline = slo } in
  let arm ?(pgo = true) ~faults ~defended () =
    run
      { base with pgo; faults; defense = (if defended then Some defense else None) }
  in
  let mk ~scenario ~arm:label ?fault (r : run) ~nohide =
    {
      FH.scenario;
      workload = "kv-cluster";
      arm = label;
      fault;
      completed = r.result.Cluster.acked;
      cycles = r.result.Cluster.cycles;
      hidden_cycles = nohide.result.Cluster.cycles - r.result.Cluster.cycles;
      latency = r.result.Cluster.split.Latency.full;
      split = Some r.result.Cluster.split;
      counters = r.result.Cluster.counters;
    }
  in
  let ff = arm ~faults:[] ~defended:false () in
  let ff_n = arm ~pgo:false ~faults:[] ~defended:false () in
  List.concat_map
    (fun f ->
      let scenario = Faults.name f in
      let und = arm ~faults:[ f ] ~defended:false () in
      let und_n = arm ~pgo:false ~faults:[ f ] ~defended:false () in
      let def = arm ~faults:[ f ] ~defended:true () in
      let def_n = arm ~pgo:false ~faults:[ f ] ~defended:true () in
      [
        mk ~scenario ~arm:"fault-free" ff ~nohide:ff_n;
        mk ~scenario ~arm:"undefended" ~fault:f und ~nohide:und_n;
        mk ~scenario ~arm:"defended" ~fault:f def ~nohide:def_n;
      ])
    faults

let to_json r =
  let p = r.params in
  Json.Obj
    [
      ("workload", Json.String "kv-cluster");
      ("machines", Json.Int p.machines);
      ("cores", Json.Int p.cores);
      ("lb", Json.String (Lb.policy_name p.lb));
      ("policy", Json.String (Dispatch.policy_name p.policy));
      ("pgo", Json.Bool p.pgo);
      ("requests", Json.Int p.requests);
      ("interarrival", Json.Int p.interarrival);
      ("seed", Json.Int p.seed);
      ("slo_deadline", Json.Int p.slo_deadline);
      ("net", Netconfig.to_json p.net);
      ( "defense",
        match p.defense with Some d -> Defense.to_json d | None -> Json.Null );
      ( "faults",
        Json.List (List.map (fun f -> Json.String (Faults.describe f)) p.faults) );
      ("goodput_rpk", Json.Float r.goodput_rpk);
      ("result", Cluster.to_json r.result);
    ]
