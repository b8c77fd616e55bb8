open Stallhide_cpu
open Stallhide_mem
open Stallhide_runtime
open Stallhide_sched
open Stallhide_workloads
open Stallhide
module Obs = Stallhide_obs
module Json = Stallhide_util.Json

type opts = { lanes : int; ops : int; seed : int }

let default_opts = { lanes = 8; ops = 1000; seed = 42 }

let workload_names = [ "pointer-chase"; "hash-probe"; "btree"; "kv-server"; "txn-oltp" ]

(* [ws_scale] shrinks the working set (the drift injector's knob): the
   generated *program* is identical for any scale — only the image
   contents and register inits change — which is what makes a profile
   from one scale transplantable onto another. *)
let make ~workload ~lanes ~ops ~manual ~seed ~ws_scale () =
  let scale n = max 16 (n / ws_scale) in
  match workload with
  | "pointer-chase" ->
      Pointer_chase.make ~manual ~lanes ~nodes_per_lane:(scale 2048) ~hops:ops ~seed ()
  | "hash-probe" -> Hash_probe.make ~manual ~lanes ~table_slots:(scale 16384) ~ops ~seed ()
  | "btree" -> Btree.make ~manual ~lanes ~keys:(scale 16384) ~ops ~seed ()
  | "kv-server" ->
      Kv_server.make ~manual ~lanes ~table_slots:(scale 16384) ~requests:ops ~seed ()
  | "txn-oltp" ->
      (* the transaction program is address-free and reads every region
         base from lane registers, so it too is identical at any scale *)
      Stallhide_txn.Txn_oltp.workload ~manual ~lanes ~txns:ops ~keys:(scale 4096) ~seed ()
  | other -> invalid_arg ("Harness.make: unknown workload " ^ other)

type row = {
  scenario : string;
  workload : string;
  arm : string;
  fault : Faults.fault option;
  cycles : int;
  completed : int;
  hidden_cycles : int;
  latency : Latency.summary;
  split : Latency.split option;
  counters : (string * int) list;
}

let row_to_json r =
  Json.Obj
    [
      ("scenario", Json.String r.scenario);
      ("workload", Json.String r.workload);
      ("arm", Json.String r.arm);
      ("fault", (match r.fault with Some f -> Faults.to_json f | None -> Json.Null));
      ("cycles", Json.Int r.cycles);
      ("completed", Json.Int r.completed);
      ("hidden_cycles", Json.Int r.hidden_cycles);
      ("latency", Metrics.latency_to_json r.latency);
      ("split", (match r.split with Some s -> Latency.split_to_json s | None -> Json.Null));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
    ]

let rows_to_json rows = Json.List (List.map row_to_json rows)

let metrics_latency (m : Metrics.t) =
  match m.Metrics.latency with Some s -> s | None -> Latency.empty_summary

let drift_counters (v : Drift.verdict) =
  [
    ("drift.losing_sites", List.length v.Drift.losing);
    ("drift.deinstrumented", v.Drift.deinstrumented);
    ("drift.protected", v.Drift.protected);
    ("drift.stale", Bool.to_int v.Drift.stale);
    ("drift.judged", v.Drift.judged);
  ]

let sub ~seed salt = Faults.sub_seed (Faults.no_faults ~seed) ~salt

(* --- drift: stale profile vs graceful de-instrumentation --- *)

let run_drift ~opts ~workload ~shrink fault =
  let { lanes; ops; seed; _ } = opts in
  (* profile + instrument on the full working set (the "training" run) *)
  let train = make ~workload ~lanes ~ops ~manual:false ~seed ~ws_scale:1 () in
  let profiled = Pipeline.profile train in
  let _, inst = Pipeline.instrument profiled train in
  (* deployment: the same binary against a [shrink]x smaller working
     set — the profiled miss sites now mostly hit *)
  let drifted () = make ~workload ~lanes ~ops ~manual:false ~seed ~ws_scale:shrink () in
  let baseline = Obs.Stream.create () in
  let base_m =
    Baselines.run_sequential ~label:(workload ^ "/drifted-seq")
      ~opts:{ Baselines.default_opts with Baselines.obs = Some baseline }
      (drifted ())
  in
  let s0 = base_m.Metrics.stall in
  let fresh_m, _ = Baselines.run_pgo ~label:(workload ^ "/fresh") (drifted ()) in
  let stale_stream = Obs.Stream.create () in
  let stale_m =
    Baselines.run_round_robin ~label:(workload ^ "/stale")
      ~opts:{ Baselines.default_opts with Baselines.obs = Some stale_stream }
      (Workload.with_program (drifted ()) inst.Pipeline.program)
  in
  (* the defense: attribute measured vs predicted gain per yield site,
     nop out the losers, run the de-instrumented binary *)
  let attribution =
    Obs.Attribution.build ~program:inst.Pipeline.program
      ~orig_of_new:inst.Pipeline.orig_of_new
      ~selected:inst.Pipeline.primary.Stallhide_binopt.Primary_pass.selected
      ~machine:
        Stallhide_binopt.Primary_pass.default_opts.Stallhide_binopt.Primary_pass.machine
      ~estimates:(Stallhide_binopt.Gain_cost.of_profile profiled.Pipeline.profile)
      ~baseline stale_stream
  in
  (* Static back-stop for the defense: a yield covering a load the
     must/may analysis proved [Always_miss] hides a stall on every
     execution whatever the drifted attribution claims, so it is pinned
     against de-instrumentation ([drift.protected]). *)
  let always_miss =
    let a = Stallhide_analysis.Analysis.run train.Workload.program in
    let s = Hashtbl.create 16 in
    List.iter (fun pc -> Hashtbl.replace s pc ()) (Stallhide_analysis.Analysis.always_miss_pcs a);
    s
  in
  let protect pc =
    pc >= 0
    && pc < Array.length inst.Pipeline.orig_of_new
    && Hashtbl.mem always_miss inst.Pipeline.orig_of_new.(pc)
  in
  let prog', verdict = Drift.adapt ~protect attribution inst.Pipeline.program in
  let adapted_m =
    Baselines.run_round_robin ~label:(workload ^ "/adapted")
      (Workload.with_program (drifted ()) prog')
  in
  let mk arm (m : Metrics.t) fault counters =
    {
      scenario = Faults.name (Faults.Drift { shrink });
      workload;
      arm;
      fault;
      cycles = m.Metrics.cycles;
      completed = m.Metrics.ops;
      hidden_cycles = s0 - m.Metrics.stall;
      latency = metrics_latency m;
      split = None;
      counters;
    }
  in
  [
    mk "fault-free" fresh_m None [];
    mk "undefended" stale_m (Some fault) [];
    mk "defended" adapted_m (Some fault)
      (drift_counters verdict @ [ ("drift.lost_cycles", verdict.Drift.lost_cycles) ]);
  ]

(* --- pebs: degraded samples vs attribution-driven repair --- *)

let run_degraded ~opts ~workload fault =
  let { lanes; ops; seed; _ } = opts in
  let w () = make ~workload ~lanes ~ops ~manual:false ~seed ~ws_scale:1 () in
  let s0 = (Baselines.run_sequential ~label:(workload ^ "/seq") (w ())).Metrics.stall in
  let clean_m, _ = Baselines.run_pgo ~label:(workload ^ "/pgo") (w ()) in
  let degraded_config =
    {
      Pipeline.default_profile_config with
      Pipeline.degradation = Faults.degradation_spec ~seed:(sub ~seed 1) fault;
    }
  in
  (* undefended: instrument straight from the lying profile *)
  let a =
    Baselines.run_pgo_attributed ~label:(workload ^ "/pgo-degraded")
      ~profile_config:degraded_config (w ())
  in
  (* defended: the drift detector does not care *why* a site loses —
     misattributed samples and stale profiles look identical from the
     measured-gain side *)
  let prog', verdict = Drift.adapt a.Baselines.attribution a.Baselines.inst.Pipeline.program in
  let adapted_m =
    Baselines.run_round_robin ~label:(workload ^ "/pgo-repaired")
      (Workload.with_program (w ()) prog')
  in
  let mk arm (m : Metrics.t) fault counters =
    {
      scenario = "pebs";
      workload;
      arm;
      fault;
      cycles = m.Metrics.cycles;
      completed = m.Metrics.ops;
      hidden_cycles = s0 - m.Metrics.stall;
      latency = metrics_latency m;
      split = None;
      counters;
    }
  in
  [
    mk "fault-free" clean_m None [];
    mk "undefended" a.Baselines.pgo_metrics (Some fault) [];
    mk "defended" adapted_m (Some fault) (drift_counters verdict);
  ]

(* --- rogue: budget-blowing scavenger vs the watchdog --- *)

let run_rogue ~opts ~workload ~count ~compute fault =
  let lanes = max opts.lanes 2 in
  let { ops; seed; _ } = opts in
  let arm ~rogue ~watchdog =
    let w = make ~workload ~lanes ~ops ~manual:true ~seed ~ws_scale:1 () in
    let recorder = Latency.recorder () in
    let engine = { Engine.default_config with Engine.hooks = Latency.hooks recorder } in
    let primary = Workload.context w ~lane:0 ~id:0 ~mode:Context.Primary in
    let legit =
      Array.init (lanes - 1) (fun i ->
          Workload.context w ~lane:(i + 1) ~id:(i + 1) ~mode:Context.Scavenger)
    in
    let rogues =
      if rogue then
        Array.init count (fun i ->
            Context.create ~id:(lanes + i) ~mode:Context.Scavenger
              (Faults.rogue_program ~compute ()))
      else [||]
    in
    let r =
      Dual_mode.run
        ~config:
          { Dual_mode.engine; switch = Switch_cost.coroutine; drain = false; watchdog }
        (Hierarchy.create Memconfig.default)
        w.Workload.image ~primary ~scavengers:(Array.append legit rogues)
    in
    let latency = Latency.summary (Latency.of_ctx recorder 0) in
    (r, latency, primary)
  in
  (* the hidden-cycles reference: the stall the primary pays alone *)
  let alone_stall =
    let w = make ~workload ~lanes ~ops ~manual:true ~seed ~ws_scale:1 () in
    let ctx = Workload.context w ~lane:0 ~id:0 ~mode:Context.Primary in
    let (_ : Scheduler.result) =
      Scheduler.run_sequential (Hierarchy.create Memconfig.default) w.Workload.image [| ctx |]
    in
    ctx.Context.stall_cycles
  in
  let mk arm (r, latency, (p : Context.t)) fault =
    {
      scenario = "rogue";
      workload;
      arm;
      fault;
      cycles = r.Dual_mode.sched.Scheduler.cycles;
      completed = r.Dual_mode.sched.Scheduler.completed;
      hidden_cycles = alone_stall - p.Context.stall_cycles;
      latency;
      split = None;
      counters =
        [
          ("watchdog.strikes", r.Dual_mode.stats.Core_sched.watchdog_strikes);
          ("watchdog.demotions", r.Dual_mode.stats.Core_sched.watchdog_demotions);
          ("watchdog.quarantines", r.Dual_mode.stats.Core_sched.watchdog_quarantined);
          ("scavenger.switches", r.Dual_mode.stats.Core_sched.scav_dispatches);
        ];
    }
  in
  [
    mk "fault-free" (arm ~rogue:false ~watchdog:None) None;
    mk "undefended" (arm ~rogue:true ~watchdog:None) (Some fault);
    mk "defended"
      (arm ~rogue:true ~watchdog:(Some Core_sched.default_watchdog))
      (Some fault);
  ]

(* --- spike: latency storm vs overload protection --- *)

(* 40 open-loop requests of 6 operations, one every 600 cycles; every
   4th is latency-class. *)
let run_spike ~opts ~workload fault =
  let tasks = 40 and seed = opts.seed in
  let build () =
    let w = make ~workload ~lanes:tasks ~ops:6 ~manual:true ~seed ~ws_scale:1 () in
    let ts =
      List.init tasks (fun i ->
          let ctx = Workload.context w ~lane:i ~id:i ~mode:Context.Primary in
          let class_ = if i mod 4 = 0 then Task.Latency else Task.Batch in
          Task.create ~id:i ~class_ ~arrival:(i * 600) ctx)
    in
    (w, ts)
  in
  let arm ~spiked ~protection =
    let w, ts = build () in
    let hier = Hierarchy.create Memconfig.default in
    if spiked then Faults.prepare_hier fault hier;
    let config =
      { Server.default_config with Server.policy = Server.Side_integration; protection }
    in
    Server.run ~config hier w.Workload.image ts
  in
  (* event-agnostic baseline (every stall exposed), per spike setting:
     the reference that defines hidden cycles *)
  let rtc_stall ~spiked =
    let w, ts = build () in
    let hier = Hierarchy.create Memconfig.default in
    if spiked then Faults.prepare_hier fault hier;
    (Server.run
       ~config:{ Server.default_config with Server.policy = Server.Run_to_completion }
       hier w.Workload.image ts)
      .Server.stall
  in
  let ff = arm ~spiked:false ~protection:None in
  let ff_lat = Latency.summary ff.Server.latency_sojourns in
  (* protection calibrated from the fault-free tail: a request queued
     past the healthy p99 is written off and retried after backoff *)
  let protection =
    {
      Server.deadline = max 512 ff_lat.Latency.p99;
      max_retries = 2;
      retry_backoff = max 256 (ff_lat.Latency.p99 / 2);
      max_queue = max 4 (tasks / 4);
      seed = sub ~seed 2;
    }
  in
  let undef = arm ~spiked:true ~protection:None in
  let def = arm ~spiked:true ~protection:(Some protection) in
  let base_clean = rtc_stall ~spiked:false in
  let base_spiked = rtc_stall ~spiked:true in
  (* how many latency-class tasks the trace offers: anything the server
     shed or expired is missing from [latency_sojourns] and must be
     reported as an SLO violation, censored at the protection deadline
     (a lower bound on what the abandoned client actually waited) *)
  let offered_latency =
    let _, ts = build () in
    List.length (List.filter (fun (t : Task.t) -> t.Task.class_ = Task.Latency) ts)
  in
  let mk arm (r : Server.result) fault base =
    let answered = r.Server.latency_sojourns in
    let split =
      Latency.split
        ~censor:protection.Server.deadline
        ~dropped:(max 0 (offered_latency - List.length answered))
        answered
    in
    {
      scenario = "spike";
      workload;
      arm;
      fault;
      cycles = r.Server.cycles;
      completed = r.Server.completed;
      hidden_cycles = base - r.Server.stall;
      latency = split.Latency.full;
      split = Some split;
      counters =
        [
          ("server.shed", r.Server.shed);
          ("server.timeout", r.Server.timed_out);
          ("server.retry", r.Server.retried);
          ("server.expired", r.Server.expired);
        ];
    }
  in
  [
    mk "fault-free" ff None base_clean;
    mk "undefended" undef (Some fault) base_spiked;
    mk "defended" def (Some fault) base_spiked;
  ]

let run ?(opts = default_opts) ~workload fault =
  if not (List.mem workload workload_names) then
    invalid_arg
      (Printf.sprintf "Harness.run: unknown workload %S (expected %s)" workload
         (String.concat " | " workload_names));
  match fault with
  | Faults.Drift { shrink } -> run_drift ~opts ~workload ~shrink fault
  | Faults.Degrade _ -> run_degraded ~opts ~workload fault
  | Faults.Rogue { count; compute } -> run_rogue ~opts ~workload ~count ~compute fault
  | Faults.Spike _ -> run_spike ~opts ~workload fault
  | f when Faults.is_net f ->
      invalid_arg
        (Printf.sprintf
           "Harness.run: %s is a cluster-level fault; run it through the cluster harness"
           (Faults.name f))
  | _ -> assert false

let run_plan ?(opts = default_opts) ~workloads (plan : Faults.plan) =
  let opts = { opts with seed = plan.Faults.seed } in
  List.concat_map
    (fun workload -> List.concat_map (fun f -> run ~opts ~workload f) plan.Faults.faults)
    workloads
