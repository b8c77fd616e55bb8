open Stallhide_util
open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_sched
open Stallhide_workloads
open Stallhide

type placement = Pipeline.placement = Pgo | Static | Hybrid

type params = {
  cores : int;
  policy : Dispatch.policy;
  steal : bool;
  pgo : bool;
  placement : placement;
  requests_per_core : int;
  req_ops : int;
  service_compute : int;
  table_slots : int;
  scav_per_core : int;
  scav_tuples : int;
  scav_groups : int;
  scav_interval : int;
  skew : float;
  key_universe : int;
  interarrival : int;
  seed : int;
  l3_window : int;
  l3_budget : int;
  steal_budget : int;
  steal_cost : int;
  max_cycles : int;
  memcfg : Memconfig.t;
  prepare_core : int -> Hierarchy.t -> unit;
  trace : bool;
  engine_fast : bool;  (* Engine.config.fast on every core *)
}

let default_params =
  {
    cores = 4;
    policy = Dispatch.Jbsq;
    steal = true;
    pgo = true;
    placement = Pgo;
    requests_per_core = 48;
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
    l3_window = 32;
    l3_budget = 16;
    steal_budget = 2;
    steal_cost = 24;
    max_cycles = 200_000_000;
    memcfg = Memconfig.default;
    prepare_core = (fun _ _ -> ());
    trace = false;
    engine_fast = true;
  }

type run = {
  params : params;
  result : Machine.result;
  throughput : float;
  verify_programs : int;
  verify_errors : int;
  verify_warnings : int;
}

(* Cumulative Zipf table over the key universe: weight 1/(rank+1)^skew. *)
let zipf_cdf ~universe ~skew =
  let w = Array.init universe (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) skew) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_sample cdf st =
  let u = Random.State.float st 1.0 in
  let n = Array.length cdf in
  let rec bisect lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then bisect (mid + 1) hi else bisect lo mid
  in
  bisect 0 (n - 1)

let open_loop st ~universe ~skew ~gap n =
  let cdf = zipf_cdf ~universe ~skew in
  let t = ref 0 in
  Array.init n (fun _ ->
      let key = zipf_sample cdf st in
      t := !t + (gap / 2) + Random.State.int st (max 1 gap);
      (key, !t))

(* Place once on a small twin workload with the same program text and
   validate the rewrite once, fail-fast, keeping the counts; callers
   rebind the program to the serving workloads. *)
let instrument_twin ~twin ~placement ~mem ?scavenger_interval () =
  let module V = Stallhide_verify.Verify in
  let _, inst = Pipeline.place ~placement ~mem_cfg:mem ?scavenger_interval ~verify:false twin in
  let outcome =
    V.validate ~orig:twin.Workload.program ~orig_of_new:inst.Pipeline.orig_of_new
      ?target_interval:scavenger_interval inst.Pipeline.program
  in
  if not (V.ok outcome) then raise (V.Rejected outcome);
  (inst.Pipeline.program, V.errors outcome, V.warnings outcome)

(* The twins must be big enough to collect PEBS samples; request count
   and table base live in registers, so the program text is identical
   to the serving shards' regardless of lane count. *)
let kv_twin p =
  Kv_server.make ~lanes:8 ~table_slots:p.table_slots ~requests:64
    ~service_compute:p.service_compute ~seed:(p.seed + 1) ()

let scav_twin p =
  Group_by.make ~lanes:4 ~groups:p.scav_groups ~tuples:(max 400 p.scav_tuples)
    ~seed:(p.seed + 2) ()

let instrument_twins p =
  let kvp, kve, kvw =
    instrument_twin ~twin:(kv_twin p) ~placement:p.placement ~mem:p.memcfg ()
  in
  let scp, sce, scw =
    instrument_twin ~twin:(scav_twin p) ~placement:p.placement ~mem:p.memcfg
      ~scavenger_interval:p.scav_interval ()
  in
  (kvp, scp, kve + sce, kvw + scw)

type node = {
  image : Address_space.t;
  shards : Workload.t option array;
  scav : Workload.t option;
}

let node ?kv_program ?scav_program p ~per_shard =
  (* One image holding exactly what the generators below allocate into
     it: every shard's table and key arrays, then the scavenger
     regions. *)
  let scav_lanes = p.scav_per_core * p.cores in
  let bytes =
    Array.fold_left
      (fun acc lanes ->
        if lanes = 0 then acc
        else acc + Kv_server.image_bytes ~lanes ~table_slots:p.table_slots ~requests:p.req_ops)
      0 per_shard
    + (if scav_lanes = 0 then 0
       else Group_by.image_bytes ~lanes:scav_lanes ~groups:p.scav_groups ~tuples:p.scav_tuples)
  in
  (* an empty run still needs an image *)
  let image = Address_space.create ~bytes:(max 1 bytes) in
  let rebind program wl =
    match program with Some prog -> Workload.with_program wl prog | None -> wl
  in
  (* each shard owns a table in the image; lane j of shard s serves the
     j-th request homed to s *)
  let shards =
    Array.init p.cores (fun s ->
        if per_shard.(s) = 0 then None
        else
          Some
            (rebind kv_program
               (Kv_server.make ~image ~lanes:per_shard.(s) ~table_slots:p.table_slots
                  ~requests:p.req_ops ~service_compute:p.service_compute
                  ~seed:(p.seed + 100 + s) ())))
  in
  (* GROUP-BY lanes all aggregating into lane 0's accumulator array:
     scavenger stores on different cores invalidate each other's lines *)
  let scav =
    if scav_lanes = 0 then None
    else
      Some
        (rebind scav_program
           (Group_by.make ~image ~shared:true ~lanes:scav_lanes ~groups:p.scav_groups
              ~tuples:p.scav_tuples ~seed:(p.seed + 3) ()))
  in
  { image; shards; scav }

(* Batch jobs land on core 0, like a batch queue drained where it was
   enqueued; spreading them is exactly what cross-core stealing is
   for. *)
let scavengers node ~id =
  let per_core = Array.make (Array.length node.shards) [] in
  Option.iter
    (fun wl ->
      for k = Workload.lane_count wl - 1 downto 0 do
        per_core.(0) <- Workload.context wl ~lane:k ~id:(id k) ~mode:Context.Scavenger :: per_core.(0)
      done)
    node.scav;
  per_core

let validate p =
  let fail fmt = Printf.ksprintf invalid_arg ("Smp.Harness: " ^^ fmt) in
  if p.cores <= 0 then fail "cores must be positive (got %d)" p.cores;
  if p.requests_per_core < 0 then
    fail "requests_per_core must be >= 0 (got %d)" p.requests_per_core;
  if p.interarrival < 0 then fail "interarrival must be >= 0 (got %d)" p.interarrival;
  if not (Float.is_finite p.skew) then fail "skew must be finite (got %g)" p.skew

let machine_config p =
  {
    Machine.default_config with
    Machine.cores = p.cores;
    memcfg = p.memcfg;
    l3_window = p.l3_window;
    l3_budget = p.l3_budget;
    core =
      {
        Core_sched.engine = { Engine.default_config with Engine.fast = p.engine_fast };
        switch = Switch_cost.coroutine;
        steal_budget = p.steal_budget;
        steal_cost = p.steal_cost;
      };
    steal = p.steal;
    max_cycles = p.max_cycles;
    prepare_core = p.prepare_core;
    trace = p.trace;
  }

(* Everything [run] hands to the machine: its config, the shared
   image, the requests in arrival order, each core's scavengers, and
   the verifier counts. *)
let setup params =
  validate params;
  let p = params in
  let total = p.requests_per_core * p.cores in
  (* The request trace: Zipfian keys, key-hash homes, jittered
     open-loop arrivals with constant per-core offered load. *)
  let trace =
    open_loop
      (Random.State.make [| p.seed; 0xC19 |])
      ~universe:p.key_universe ~skew:p.skew
      ~gap:(max 1 (p.interarrival / p.cores))
      total
  in
  let homes = Array.map (fun (key, _) -> Dispatch.home ~shards:p.cores key) trace in
  let per_shard = Array.make p.cores 0 in
  Array.iter (fun home -> per_shard.(home) <- per_shard.(home) + 1) homes;
  let kv_program, scav_program, verify_programs, verify_errors, verify_warnings =
    if not p.pgo then (None, None, 0, 0, 0)
    else
      let kvp, scp, errors, warnings = instrument_twins p in
      (Some kvp, Some scp, 2, errors, warnings)
  in
  let node = node ?kv_program ?scav_program p ~per_shard in
  let next_lane = Array.make p.cores 0 in
  let requests =
    Array.to_list
      (Array.mapi
         (fun rid (key, arrival) ->
           let home = homes.(rid) in
           let wl = match node.shards.(home) with Some w -> w | None -> assert false in
           let lane = next_lane.(home) in
           next_lane.(home) <- lane + 1;
           let ctx = Workload.context wl ~lane ~id:rid ~mode:Context.Primary in
           Machine.request ~rid ~key ~home ~arrival ctx)
         trace)
  in
  let scavengers = scavengers node ~id:(fun k -> total + k) in
  let verify = (verify_programs, verify_errors, verify_warnings) in
  (machine_config p, node.image, requests, scavengers, verify)

let live params =
  let config, mem, requests, scavengers, _ = setup params in
  let live = Machine.Live.create ~config ~policy:params.policy ~mem ~scavengers () in
  List.iter (Machine.Live.submit live) requests;
  live

let run params =
  let config, mem, requests, scavengers, (verify_programs, verify_errors, verify_warnings) =
    setup params
  in
  let result = Machine.run ~config ~policy:params.policy ~mem ~requests ~scavengers () in
  {
    params;
    result;
    throughput = Machine.throughput result;
    verify_programs;
    verify_errors;
    verify_warnings;
  }

let speedup ~base r =
  if base.throughput = 0.0 then 0.0 else r.throughput /. base.throughput

let efficiency ~base r = speedup ~base r /. float_of_int r.params.cores

let reference_params p = { p with cores = 1 }

let to_json r =
  let p = r.params in
  let s = r.result.Machine.summary in
  let l3 = r.result.Machine.l3 in
  Json.Obj
    [
      ("workload", Json.String "kv-server");
      ("cores", Json.Int p.cores);
      ("policy", Json.String (Dispatch.policy_name p.policy));
      ("steal", Json.Bool p.steal);
      ("pgo", Json.Bool p.pgo);
      ("placement", Json.String (Pipeline.placement_name p.placement));
      ("seed", Json.Int p.seed);
      ("requests", Json.Int (p.requests_per_core * p.cores));
      ("cycles", Json.Int r.result.Machine.cycles);
      ("completed", Json.Int r.result.Machine.completed);
      ("faulted", Json.Int r.result.Machine.faulted);
      ("throughput_rpk", Json.Float r.throughput);
      ("steals", Json.Int r.result.Machine.steals);
      ("donations", Json.Int r.result.Machine.donations);
      ( "l3",
        Json.Obj
          [
            ("admitted", Json.Int l3.Shared_l3.admitted);
            ("queued", Json.Int l3.Shared_l3.queued);
            ("queue_cycles", Json.Int l3.Shared_l3.queue_cycles);
            ("writes", Json.Int l3.Shared_l3.writes);
            ("invalidations", Json.Int l3.Shared_l3.invalidations);
          ] );
      ("latency", Latency.summary_to_json s);
      ( "per_core",
        Json.List (Array.to_list (Array.map Machine.core_json r.result.Machine.per_core)) );
      ( "verify",
        Json.Obj
          [
            ("programs", Json.Int r.verify_programs);
            ("errors", Json.Int r.verify_errors);
            ("warnings", Json.Int r.verify_warnings);
            ("diagnostics", Json.Int (r.verify_errors + r.verify_warnings));
          ] );
    ]
