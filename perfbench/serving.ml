(* The two serving workloads: the 4-core sharded kv-server
   ([Smp.Harness]) and a 4-machine cluster of them ([Cluster.Harness]).
   Requests arrive open-loop in simulated time; simulated caches start
   empty in every pass. *)

open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_sched
open Stallhide_workloads
open Stallhide
module Harness = Stallhide_smp.Harness
module Machine = Stallhide_smp.Machine
module Cluster = Stallhide_cluster.Cluster
module CHarness = Stallhide_cluster.Harness
module Verify = Stallhide_verify.Verify

(* ---------------------------------------------------------------- *)
(* Set-up shared by both harnesses: the twin workloads they profile  *)
(* and instrument once, with the parameters both use.               *)
(* ---------------------------------------------------------------- *)

let hp = Harness.default_params

let kv_twin ~seed =
  Kv_server.make ~lanes:8 ~table_slots:hp.Harness.table_slots ~requests:64
    ~service_compute:hp.Harness.service_compute ~seed:(seed + 1) ()

let scav_twin ~seed =
  Group_by.make ~lanes:4 ~groups:hp.Harness.scav_groups ~tuples:(max 400 hp.Harness.scav_tuples)
    ~seed:(seed + 2) ()

(* Untraced set-up: the harness's own entry point for both twins. *)
let instrument_twins ~seed =
  let kvp, kve, kvw =
    Harness.instrument_twin ~twin:(kv_twin ~seed) ~placement:Harness.Pgo ~mem:Memconfig.default ()
  in
  let scp, sce, scw =
    Harness.instrument_twin ~twin:(scav_twin ~seed) ~placement:Harness.Pgo ~mem:Memconfig.default
      ~scavenger_interval:hp.Harness.scav_interval ()
  in
  (kvp, scp, kve + sce + kvw + scw)

type twin_stats = { mutable samples : int; mutable yield_sites : int; mutable diagnostics : int }

(* Traced set-up: what [Harness.instrument_twin] does for [Pgo], split
   at the layer boundaries — profile, rewrite, and the two validations
   (the pipeline's fail-fast one and the harness's counting one). *)
let traced_twin stats ~twin ?scavenger_interval () =
  let profiled = Span.with_ "pmu" (fun () -> Pipeline.profile ~mem_cfg:Memconfig.default twin) in
  let _, inst =
    Span.with_ "binopt" (fun () ->
        Pipeline.instrument ?scavenger_interval ~verify:false profiled twin)
  in
  let orig = twin.Workload.program and orig_of_new = inst.Pipeline.orig_of_new in
  let strict =
    Span.with_ "verify" (fun () ->
        Verify.validate ~orig ~orig_of_new ?target_interval:scavenger_interval
          inst.Pipeline.program)
  in
  if not (Verify.ok strict) then raise (Verify.Rejected strict);
  let counted =
    Span.with_ "verify" (fun () -> Verify.validate ~orig ~orig_of_new inst.Pipeline.program)
  in
  stats.samples <- stats.samples + profiled.Pipeline.samples;
  let primary = inst.Pipeline.primary in
  stats.yield_sites <- stats.yield_sites + primary.Stallhide_binopt.Primary_pass.yield_sites;
  stats.diagnostics <- stats.diagnostics + Verify.errors counted + Verify.warnings counted;
  inst.Pipeline.program

let traced_twins ~seed =
  let stats = { samples = 0; yield_sites = 0; diagnostics = 0 } in
  let kvt = Span.with_ "gen" (fun () -> kv_twin ~seed) in
  let kvp = traced_twin stats ~twin:kvt () in
  let sct = Span.with_ "gen" (fun () -> scav_twin ~seed) in
  let scp = traced_twin stats ~twin:sct ~scavenger_interval:hp.Harness.scav_interval () in
  (kvp, scp, stats)

(* Probe, outside the pass: the simulated instructions a profiling run
   retires, which is the uninstrumented sequential run of the twins. *)
let twin_instructions ~seed =
  let run w = (Baselines.run_sequential w).Metrics.instructions in
  run (kv_twin ~seed) + run (scav_twin ~seed)

(* ---------------------------------------------------------------- *)
(* Statistics of a finished machine                                  *)
(* ---------------------------------------------------------------- *)

let sum_cores (results : Machine.result list) f =
  List.fold_left
    (fun a (r : Machine.result) -> Array.fold_left (fun a c -> a + f c) a r.Machine.per_core)
    0 results

let slices (c : Machine.core_result) =
  c.Machine.stats.Core_sched.dispatches + c.Machine.stats.Core_sched.scav_dispatches

(* Scheduler, memory and shared-L3 layer metrics of finished machines. *)
let machine_layers results =
  let l3 f = List.fold_left (fun a (r : Machine.result) -> a + f r.Machine.l3) 0 results in
  let st f = sum_cores results (fun c -> f c.Machine.stats) in
  [
    ("core_sched.slices", float_of_int (sum_cores results slices));
    ("core_sched.switches", float_of_int (st (fun s -> s.Core_sched.switches)));
    ("core_sched.steals", float_of_int (st (fun s -> s.Core_sched.steals)));
    ("core_sched.escalations", float_of_int (st (fun s -> s.Core_sched.escalations)));
    ("l3.admitted", float_of_int (l3 (fun s -> s.Shared_l3.admitted)));
    ("l3.queue_cycles", float_of_int (l3 (fun s -> s.Shared_l3.queue_cycles)));
    ("l3.invalidations", float_of_int (l3 (fun s -> s.Shared_l3.invalidations)));
  ]
  @ Pass.mem_layers (fun f -> sum_cores results (fun c -> f c.Machine.mem))

(* ================================================================ *)
(* smp-kv                                                            *)
(* ================================================================ *)

let requests_per_core = function Pass.Full -> 1024 | Pass.Tiny -> 64 | Pass.C25 -> 4096

let smp_params ~seed ~size =
  { hp with Harness.requests_per_core = requests_per_core size; seed; trace = false }

(* The request trace [Harness.run] draws from its params: Zipfian keys,
   key-hash homes, jittered open-loop arrivals at constant per-core
   load. *)
let draw_trace (p : Harness.params) =
  let st = Random.State.make [| p.Harness.seed; 0xC19 |] in
  let cdf = Harness.zipf_cdf ~universe:p.Harness.key_universe ~skew:p.Harness.skew in
  let gap = max 1 (p.Harness.interarrival / p.Harness.cores) in
  let t = ref 0 in
  Array.init (p.Harness.requests_per_core * p.Harness.cores) (fun rid ->
      let key = Harness.zipf_sample cdf st in
      let home = Dispatch.home ~shards:p.Harness.cores key in
      t := !t + (gap / 2) + Random.State.int st (max 1 gap);
      (rid, key, home, !t))

let smp_fingerprint (r : Machine.result) =
  let tot f = sum_cores [ r ] f in
  [
    ("cycles", r.Machine.cycles);
    ("core_cycles", tot (fun c -> c.Machine.cycles));
    ("completed", r.Machine.completed);
    ("faulted", r.Machine.faulted);
    ("demand_accesses", tot (fun c -> c.Machine.mem.Mem_stats.demand_accesses));
    ("slices", tot slices);
    ("switches", tot (fun c -> c.Machine.stats.Core_sched.switches));
    ("steals", r.Machine.steals);
    ("p99", r.Machine.summary.Latency.p99);
  ]

let smp_failures ~requests (r : Machine.result) ~diagnostics =
  let unserved = requests - r.Machine.completed in
  ( unserved + diagnostics,
    Pass.check (unserved = 0) (Printf.sprintf "%d of %d requests not completed" unserved requests)
    @ Pass.check (diagnostics = 0) (Printf.sprintf "%d verifier diagnostics" diagnostics) )

let smp_untraced ~seed ~size =
  let p = smp_params ~seed ~size in
  let (_ : (int * int * int * int) array), trace_s = Pass.timed (fun () -> draw_trace p) in
  let _, twin_s = Pass.timed (fun () -> instrument_twins ~seed) in
  let run, work_s = Pass.timed (fun () -> Harness.run p) in
  let r = run.Harness.result in
  let requests = p.Harness.requests_per_core * p.Harness.cores in
  let failed, failures =
    smp_failures ~requests r ~diagnostics:(run.Harness.verify_errors + run.Harness.verify_warnings)
  in
  {
    Pass.ops = requests;
    failed;
    failures;
    work = r.Machine.completed;
    work_s = [| work_s |];
    setup_s = [| trace_s; twin_s |];
    wall_s = work_s;
    fingerprint = smp_fingerprint r;
    layers = [];
    table = [];
  }

(* [Harness.run] rebuilt from public parts, so each machine step can be
   timed; the same inputs, so the fingerprint must match the untraced
   pass. *)
let smp_traced ~seed ~size =
  let p = smp_params ~seed ~size in
  let requests = p.Harness.requests_per_core * p.Harness.cores in
  let step_id = Span.id "machine.step" and submit_id = Span.id "machine.submit" in
  let step_ns = Array.make (16 * requests) 0 in
  let steps = ref 0 in
  let minor_words = ref 0.0 in
  let body () =
    let trace, image =
      Span.with_ "gen" (fun () ->
          let trace = draw_trace p in
          let line = 64 in
          let scav_lanes = p.Harness.scav_per_core * p.Harness.cores in
          let bytes =
            2
            * ((p.Harness.cores
               * ((p.Harness.table_slots * line)
                 + (p.Harness.requests_per_core * p.Harness.cores * p.Harness.req_ops * 8)
                 + 4096))
              + (scav_lanes
                * ((p.Harness.scav_tuples * 16) + (p.Harness.scav_groups * line) + 1024))
              + 65536)
          in
          (trace, Address_space.create ~bytes))
    in
    let kv_program, scav_program, stats = traced_twins ~seed in
    let mreqs, scavengers =
      Span.with_ "gen" (fun () ->
          let per_shard = Array.make p.Harness.cores 0 in
          Array.iter (fun (_, _, home, _) -> per_shard.(home) <- per_shard.(home) + 1) trace;
          let shard_wl =
            Array.init p.Harness.cores (fun s ->
                if per_shard.(s) = 0 then None
                else
                  Some
                    (Workload.with_program
                       (Kv_server.make ~image ~lanes:per_shard.(s)
                          ~table_slots:p.Harness.table_slots
                          ~requests:p.Harness.req_ops ~service_compute:p.Harness.service_compute
                          ~seed:(seed + 100 + s) ())
                       kv_program))
          in
          let next_lane = Array.make p.Harness.cores 0 in
          let mreqs =
            Array.map
              (fun (rid, key, home, arrival) ->
                let wl = Option.get shard_wl.(home) in
                let lane = next_lane.(home) in
                next_lane.(home) <- lane + 1;
                Machine.request ~rid ~key ~home ~arrival
                  (Workload.context wl ~lane ~id:rid ~mode:Context.Primary))
              trace
          in
          let scav_lanes = p.Harness.scav_per_core * p.Harness.cores in
          let wl =
            Workload.with_program
              (Group_by.make ~image ~lanes:scav_lanes ~groups:p.Harness.scav_groups
                 ~tuples:p.Harness.scav_tuples ~seed:(seed + 3) ())
              scav_program
          in
          (* every scavenger aggregates into lane 0's accumulators *)
          let base0 = List.assoc Reg.r3 wl.Workload.lanes.(0) in
          let wl =
            {
              wl with
              Workload.lanes =
                Array.map
                  (List.map (fun (r, v) -> if r = Reg.r3 then (r, base0) else (r, v)))
                  wl.Workload.lanes;
            }
          in
          wl.Workload.reset ();
          let per_core = Array.make p.Harness.cores [] in
          for k = scav_lanes - 1 downto 0 do
            let ctx = Workload.context wl ~lane:k ~id:(requests + k) ~mode:Context.Scavenger in
            per_core.(0) <- ctx :: per_core.(0)
          done;
          (mreqs, per_core))
    in
    let config =
      {
        Machine.cores = p.Harness.cores;
        memcfg = p.Harness.memcfg;
        l3_window = p.Harness.l3_window;
        l3_budget = p.Harness.l3_budget;
        core =
          {
            Core_sched.engine = { Engine.default_config with Engine.fast = p.Harness.engine_fast };
            switch = Switch_cost.coroutine;
            steal_budget = p.Harness.steal_budget;
            steal_cost = p.Harness.steal_cost;
          };
        steal = p.Harness.steal;
        max_cycles = p.Harness.max_cycles;
        prepare_core = (fun _ _ -> ());
        sync = Machine.Interleaved;
        trace = false;
      }
    in
    let live =
      Span.with_ "machine.create" (fun () ->
          Machine.Live.create ~config ~policy:p.Harness.policy ~mem:image ~scavengers ())
    in
    let completed_rid = ref (-1) in
    Machine.Live.set_on_complete live (fun r ~core:_ ~now:_ -> completed_rid := r.Machine.rid);
    Array.iter
      (fun (r : Machine.request) ->
        Span.enter submit_id r.Machine.rid;
        Machine.Live.submit live r;
        Span.leave (-1))
      mreqs;
    let w0 = Gc.minor_words () in
    let running = ref true in
    while !running do
      if Machine.Live.clock live >= config.Machine.max_cycles || Machine.Live.quiescent live then
        running := false
      else begin
        completed_rid := -1;
        Span.enter step_id (-1);
        ignore (Machine.Live.step live);
        Span.leave !completed_rid;
        if !steps < Array.length step_ns then step_ns.(!steps) <- !Span.last_ns;
        incr steps
      end
    done;
    minor_words := Gc.minor_words () -. w0;
    let r = Span.with_ "machine.finish" (fun () -> Machine.Live.finish live) in
    (r, stats)
  in
  let r, stats = Span.with_ "pass" body in
  (* probes, outside the pass *)
  let stats_instrs = twin_instructions ~seed in
  let (_ : Harness.run), traced_sim_s =
    Pass.timed (fun () -> Harness.run { p with trace = true })
  in
  let (_ : Harness.run), plain_s = Pass.timed (fun () -> Harness.run p) in
  let failed, failures = smp_failures ~requests r ~diagnostics:stats.diagnostics in
  let n = min !steps (Array.length step_ns) in
  let slices_n = float_of_int (max 1 (sum_cores [ r ] slices)) in
  let layers =
    [
      ("pmu.samples", float_of_int stats.samples);
      ("pmu.ns_per_instr", Span.self_s "pmu" *. 1e9 /. float_of_int (max 1 stats_instrs));
      ("binopt.yield_sites", float_of_int stats.yield_sites);
      ("verify.diagnostics", float_of_int stats.diagnostics);
      ("machine.steps", float_of_int !steps);
      ("machine.step_ns_p50", float_of_int (Pass.percentile step_ns n 0.5));
      ("machine.step_ns_p99", float_of_int (Pass.percentile step_ns n 0.99));
      ("machine.ns_per_slice", Span.total_s "machine.step" *. 1e9 /. slices_n);
      ("machine.minor_words_per_slice", !minor_words /. slices_n);
      ("obs.trace_cost_ratio", traced_sim_s /. plain_s);
      ("model.req_per_kcycle", Machine.throughput r);
      ("model.p99_cycles", float_of_int r.Machine.summary.Latency.p99);
    ]
    @ machine_layers [ r ]
  in
  {
    Pass.ops = requests;
    failed;
    failures;
    work = r.Machine.completed;
    work_s = [| Span.total_s "machine.step" |];
    setup_s = [| Span.total_s "pmu" +. Span.total_s "binopt" +. Span.total_s "verify" |];
    wall_s = Span.total_s "pass";
    fingerprint = smp_fingerprint r;
    layers;
    table = [];
  }

(* ================================================================ *)
(* cluster-kv                                                        *)
(* ================================================================ *)

let cluster_requests = function Pass.Full | Pass.C25 -> 1500 | Pass.Tiny -> 96

let cluster_params ~seed ~size =
  { CHarness.default_params with CHarness.requests = cluster_requests size; seed }

let cluster_config (p : CHarness.params) =
  {
    Cluster.machines = p.CHarness.machines;
    policy = p.CHarness.policy;
    lb = p.CHarness.lb;
    net = p.CHarness.net;
    defense = p.CHarness.defense;
    slo_deadline = p.CHarness.slo_deadline;
    seed = p.CHarness.seed;
    faults = p.CHarness.faults;
    horizon = p.CHarness.horizon;
  }

let node_results (r : Cluster.result) =
  Array.to_list (Array.map (fun n -> n.Cluster.result) r.Cluster.nodes) |> List.filter_map Fun.id

let cluster_fingerprint (r : Cluster.result) =
  let nodes = node_results r in
  [
    ("cycles", r.Cluster.cycles);
    ("offered", r.Cluster.offered);
    ("acked", r.Cluster.acked);
    ("lost_acked", r.Cluster.lost_acked);
    ("core_cycles", sum_cores nodes (fun c -> c.Machine.cycles));
    ("demand_accesses", sum_cores nodes (fun c -> c.Machine.mem.Mem_stats.demand_accesses));
    ("slices", sum_cores nodes slices);
    ("switches", sum_cores nodes (fun c -> c.Machine.stats.Core_sched.switches));
    ("p99", r.Cluster.split.Latency.goodput.Latency.p99);
  ]

let cluster_failures (r : Cluster.result) ~diagnostics =
  let unacked = r.Cluster.offered - r.Cluster.acked in
  ( unacked + r.Cluster.lost_acked + diagnostics,
    Pass.check (unacked = 0)
      (Printf.sprintf "%d of %d requests not acked" unacked r.Cluster.offered)
    @ Pass.check (r.Cluster.lost_acked = 0)
        (Printf.sprintf "%d acked requests lost" r.Cluster.lost_acked)
    @ Pass.check (diagnostics = 0) (Printf.sprintf "%d verifier diagnostics" diagnostics) )

let cluster_untraced ~seed ~size =
  let p = cluster_params ~seed ~size in
  let (_ : Cluster.spec list), trace_s = Pass.timed (fun () -> CHarness.trace p) in
  (* [Cluster.Harness.run] drops the twins' verifier counts; these are
     the same twins *)
  let (_, _, diagnostics), twin_s = Pass.timed (fun () -> instrument_twins ~seed) in
  let run, work_s = Pass.timed (fun () -> CHarness.run p) in
  let r = run.CHarness.result in
  let failed, failures = cluster_failures r ~diagnostics in
  {
    Pass.ops = r.Cluster.offered;
    failed;
    failures;
    work = r.Cluster.acked;
    work_s = [| work_s |];
    setup_s = [| trace_s; twin_s |];
    wall_s = work_s;
    fingerprint = cluster_fingerprint r;
    layers = [];
    table = [];
  }

(* Replay each machine's served requests on a standalone
   [Machine.run] with fresh contexts; returns host seconds. *)
let replay (p : CHarness.params) node (r : Cluster.result) ~trace =
  let secs = ref 0.0 in
  Array.iteri
    (fun i (n : Cluster.node_view) ->
      match n.Cluster.result with
      | None -> ()
      | Some mr ->
          let impl = node ~machine:i ~restart:0 in
          let served =
            Array.to_list mr.Machine.requests
            |> List.sort (fun (a : Machine.request) b ->
                   compare a.Machine.arrival b.Machine.arrival)
            |> List.map (fun (q : Machine.request) ->
                   Machine.request ~rid:q.Machine.rid ~key:q.Machine.key ~home:q.Machine.home
                     ~arrival:q.Machine.arrival
                     (impl.Cluster.make_ctx ~rid:q.Machine.rid ~attempt:0))
          in
          let config = { impl.Cluster.config with Machine.trace } in
          let (_ : Machine.result), s =
            Pass.timed (fun () ->
                Machine.run ~config ~policy:p.CHarness.policy ~mem:impl.Cluster.mem
                  ~requests:served ~scavengers:impl.Cluster.scavengers ())
          in
          secs := !secs +. s)
    r.Cluster.nodes;
  !secs

(* [Cluster.Harness.run] rebuilt from public parts, with a timed node
   factory. *)
let cluster_traced ~seed ~size =
  let p = cluster_params ~seed ~size in
  let body () =
    let kv_program, scav_program, stats = traced_twins ~seed in
    let specs = Span.with_ "gen" (fun () -> CHarness.trace p) in
    let node =
      Span.with_ "gen" (fun () -> CHarness.node_factory ~kv_program ~scav_program p)
    in
    let timed_node ~machine ~restart =
      Span.with_ "cluster.node_build" (fun () -> node ~machine ~restart)
    in
    let r =
      Span.with_ "cluster" (fun () ->
          Cluster.run (cluster_config p) ~node:timed_node ~requests:specs)
    in
    (r, node, stats)
  in
  let r, node, stats = Span.with_ "pass" body in
  (* probes, outside the pass *)
  let stats_instrs = twin_instructions ~seed in
  let replay_s = replay p node r ~trace:true in
  let replay_plain_s = replay p node r ~trace:false in
  let cluster_s = Span.total_s "cluster" in
  let failed, failures = cluster_failures r ~diagnostics:stats.diagnostics in
  let nodes = node_results r in
  let layers =
    [
      ("pmu.samples", float_of_int stats.samples);
      ("pmu.ns_per_instr", Span.self_s "pmu" *. 1e9 /. float_of_int (max 1 stats_instrs));
      ("binopt.yield_sites", float_of_int stats.yield_sites);
      ("verify.diagnostics", float_of_int stats.diagnostics);
      ("cluster.node_build_ms", Span.total_s "cluster.node_build" *. 1e3);
      ( "cluster.des_residual_share",
        (cluster_s -. Span.total_s "cluster.node_build" -. replay_s) /. cluster_s );
      ("obs.trace_cost_ratio", replay_s /. replay_plain_s);
      ( "model.req_per_kcycle",
        1000.0 *. float_of_int r.Cluster.acked /. float_of_int (max 1 r.Cluster.cycles) );
      ("model.p99_cycles", float_of_int r.Cluster.split.Latency.goodput.Latency.p99);
    ]
    @ machine_layers nodes
  in
  {
    Pass.ops = r.Cluster.offered;
    failed;
    failures;
    work = r.Cluster.acked;
    work_s = [| cluster_s |];
    setup_s = [| Span.total_s "pmu" +. Span.total_s "binopt" +. Span.total_s "verify" |];
    wall_s = Span.total_s "pass";
    fingerprint = cluster_fingerprint r;
    layers;
    table = [];
  }
