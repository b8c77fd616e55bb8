open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_sched
open Stallhide_faults

let cfg = Memconfig.default

(* --- spec parsing --- *)

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      let f = Faults.parse_spec spec in
      Alcotest.(check string) spec spec (Faults.describe f))
    [
      "drift:shrink=16";
      "pebs:loss=0.5,skid=2,misattr=0.1";
      "spike:at=500,for=2000,l3=2,dram=8";
      "rogue:count=2,compute=4000";
    ]

let test_spec_defaults () =
  (match Faults.parse_spec "drift" with
  | Faults.Drift { shrink } -> Alcotest.(check int) "shrink default" 128 shrink
  | _ -> Alcotest.fail "drift");
  match Faults.parse_spec "rogue:compute=999" with
  | Faults.Rogue { count; compute } ->
      Alcotest.(check int) "count default" 1 count;
      Alcotest.(check int) "compute override" 999 compute
  | _ -> Alcotest.fail "rogue"

let test_spec_rejects () =
  let rejected s =
    match Faults.parse_spec s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (s ^ " accepted")
  in
  rejected "gremlins";
  rejected "drift:shrink=1";
  rejected "drift:budget=3";
  rejected "pebs:loss=1.5";
  rejected "pebs:skid=-1";
  rejected "spike:for=0";
  rejected "rogue:count=0";
  rejected "rogue:compute"

(* NaN passes a range test written [x < lo || x >= hi]; each knob is
   refused with its range message *)
let test_spec_rejects_nan () =
  List.iter
    (fun (spec, msg) ->
      Alcotest.check_raises spec (Invalid_argument ("Faults.parse_spec: " ^ msg)) (fun () ->
          ignore (Faults.parse_spec spec)))
    [
      ("netloss:p=nan", "netloss: p must be in [0,1) (got nan)");
      ("netloss:reorder=nan", "netloss: reorder must be in [0,1) (got nan)");
      ("pebs:loss=nan", "pebs: loss must be in [0,1] (got nan)");
      ("pebs:misattr=nan", "pebs: misattr must be in [0,1] (got nan)");
    ]

let test_sub_seed_stable () =
  let p = Faults.no_faults ~seed:42 in
  Alcotest.(check int) "stable" (Faults.sub_seed p ~salt:1) (Faults.sub_seed p ~salt:1);
  Alcotest.(check bool) "salts decorrelate" true
    (Faults.sub_seed p ~salt:1 <> Faults.sub_seed p ~salt:2);
  Alcotest.(check bool) "seeds decorrelate" true
    (Faults.sub_seed p ~salt:1 <> Faults.sub_seed (Faults.no_faults ~seed:43) ~salt:1)

(* --- spike injector --- *)

let test_spike_window () =
  let h = Hierarchy.create cfg in
  Hierarchy.inject_spike h ~from_cycle:100 ~until_cycle:200 ~l3_mult:4 ~dram_mult:6;
  (* each probe is a cold line served by DRAM; only one inside the
     window pays the multiplier *)
  let dram = cfg.Memconfig.dram_latency in
  let latency now addr = Hierarchy.access_latency h ~now addr in
  Alcotest.(check int) "before" dram (latency 50 0x10000);
  Alcotest.(check int) "inside: dram multiplied" (6 * dram) (latency 150 0x20000);
  Alcotest.(check int) "until exclusive" dram (latency 200 0x30000)

(* --- PEBS degradation (driven through the profiling pipeline) --- *)

let profile_with degradation =
  let w = Harness.make ~workload:"pointer-chase" ~lanes:2 ~ops:120 ~manual:false ~seed:7 ~ws_scale:1 () in
  Stallhide.Pipeline.profile
    ~config:{ Stallhide.Pipeline.default_profile_config with Stallhide.Pipeline.degradation }
    w

let test_pebs_loss_drops_samples () =
  let clean = profile_with None in
  let degraded =
    profile_with (Some { Stallhide_pmu.Pebs.loss = 0.9; skid = 0; misattr = 0.0; seed = 5 })
  in
  Alcotest.(check bool) "samples lost" true
    (degraded.Stallhide.Pipeline.samples < clean.Stallhide.Pipeline.samples)

let test_pebs_deterministic () =
  let spec = Some { Stallhide_pmu.Pebs.loss = 0.4; skid = 3; misattr = 0.25; seed = 9 } in
  let a = profile_with spec and b = profile_with spec in
  Alcotest.(check int) "same sample count" a.Stallhide.Pipeline.samples
    b.Stallhide.Pipeline.samples;
  let c = profile_with (Some { Stallhide_pmu.Pebs.loss = 0.4; skid = 3; misattr = 0.25; seed = 10 }) in
  (* different seed, same knobs: the loss coin flips land elsewhere *)
  Alcotest.(check bool) "seed matters" true (a.Stallhide.Pipeline.samples <> c.Stallhide.Pipeline.samples)

let test_pebs_spec_validated () =
  let p = Stallhide_pmu.Pebs.create ~event:Stallhide_pmu.Pebs.Loads_all ~period:31 () in
  match Stallhide_pmu.Pebs.degrade p { Stallhide_pmu.Pebs.loss = 2.0; skid = 0; misattr = 0.0; seed = 0 } with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "loss=2.0 accepted"

(* --- Latency.summary total (satellite: no raise on empty) --- *)

let test_latency_empty_summary () =
  let s = Latency.summary [] in
  Alcotest.(check int) "count" 0 s.Latency.count;
  Alcotest.(check int) "p99" 0 s.Latency.p99;
  Alcotest.(check bool) "summarize None" true (Latency.summarize [] = None);
  let one = Latency.summary [ 7 ] in
  Alcotest.(check int) "one sample p999" 7 one.Latency.p999

(* --- server overload protection --- *)

let storm_src =
  {|
loop:
  prefetch [r1]
  yield
  load r1, [r1]
  div r3, r3, 1
  div r3, r3, 1
  syield
  sub r2, r2, 1
  br gt r2, 0, loop
  halt
|}

(* [burst] tasks all arriving at cycle 0 (plus a trickle after), each
   chasing its own cold ring: a queue storm by construction. *)
let storm_tasks ~n ~hops ~interarrival =
  let prog = Asm.parse storm_src in
  let mem = Address_space.create ~bytes:((n * 64 * 128) + 4096) in
  let (_ : int) = Address_space.alloc mem ~bytes:64 in
  let tasks =
    List.init n (fun i ->
        let nodes = 128 in
        let base = Address_space.alloc mem ~bytes:(nodes * 64) in
        for k = 0 to nodes - 1 do
          Address_space.store mem (base + (k * 64)) (base + (((k + 7) * 11 mod nodes) * 64))
        done;
        let ctx = Context.create ~id:i ~mode:Context.Primary prog in
        Context.set_regs ctx [ (Reg.r1, base); (Reg.r2, hops) ];
        Task.create ~id:i ~class_:Task.Batch ~arrival:(i * interarrival) ctx)
  in
  (mem, tasks)

let run_protected ?(n = 24) ?(interarrival = 0) protection =
  let mem, tasks = storm_tasks ~n ~hops:30 ~interarrival in
  let config =
    { Server.default_config with Server.policy = Server.Side_integration; protection }
  in
  Server.run ~config (Hierarchy.create cfg) mem tasks

let test_protection_off_serves_all () =
  let r = run_protected None in
  Alcotest.(check int) "all complete" 24 r.Server.completed;
  Alcotest.(check int) "no shed" 0 r.Server.shed;
  Alcotest.(check int) "no timeout" 0 r.Server.timed_out;
  Alcotest.(check int) "no expiry" 0 r.Server.expired

let test_admission_sheds () =
  let p = { Server.default_protection with Server.max_queue = 4; deadline = max_int / 2 } in
  let r = run_protected (Some p) in
  Alcotest.(check bool) "shed fired" true (r.Server.shed > 0);
  Alcotest.(check int) "accounting" 24 (r.Server.completed + r.Server.shed + r.Server.expired)

let test_deadline_times_out_and_retries () =
  let p =
    {
      Server.deadline = 400;
      max_retries = 1;
      retry_backoff = 256;
      max_queue = 1000;
      seed = 3;
    }
  in
  let r = run_protected (Some p) in
  Alcotest.(check bool) "timeouts fired" true (r.Server.timed_out > 0);
  Alcotest.(check bool) "retries fired" true (r.Server.retried > 0);
  Alcotest.(check bool) "retries bounded" true (r.Server.retried <= r.Server.timed_out);
  Alcotest.(check int) "accounting" 24 (r.Server.completed + r.Server.shed + r.Server.expired)

let test_no_retries_expires () =
  (* max_retries = 0: a timed-out request has no second chance *)
  let p =
    { Server.deadline = 300; max_retries = 0; retry_backoff = 256; max_queue = 1000; seed = 3 }
  in
  let r = run_protected (Some p) in
  Alcotest.(check bool) "expired" true (r.Server.expired > 0);
  Alcotest.(check int) "no retries" 0 r.Server.retried;
  Alcotest.(check int) "expiries are timeouts" r.Server.timed_out r.Server.expired;
  Alcotest.(check int) "accounting" 24 (r.Server.completed + r.Server.shed + r.Server.expired)

let test_protection_deterministic () =
  let p = { Server.default_protection with Server.deadline = 500; seed = 11 } in
  let once () =
    let r = run_protected (Some p) in
    (r.Server.cycles, r.Server.completed, r.Server.retried, r.Server.expired)
  in
  Alcotest.(check bool) "same run" true (once () = once ())

let test_protection_validated () =
  match run_protected (Some { Server.default_protection with Server.deadline = 0 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deadline=0 accepted"

(* --- dual-mode: scale-up / scale-down under early-yield pressure --- *)

(* Scavenger that hits a primary-phase yield (= its own likely miss)
   immediately: dispatching it forces the scheduler to scale up to the
   next scavenger in the pool. *)
let early_yield_scav_src =
  {|
loop:
  prefetch [r1]
  yield
  load r1, [r1]
  syield
  sub r2, r2, 1
  br gt r2, 0, loop
  halt
|}

let timely_scav_src =
  {|
loop:
  add r3, r3, 1
  add r3, r3, 1
  syield
  sub r2, r2, 1
  br gt r2, 0, loop
  halt
|}

let primary_src =
  {|
loop:
  opmark
  prefetch [r1]
  yield
  load r1, [r1]
  sub r2, r2, 1
  br gt r2, 0, loop
  halt
|}

let dual_setup ~scav_src ~scavs ~hops =
  let mem = Address_space.create ~bytes:(64 * 64 * (scavs + 2)) in
  let (_ : int) = Address_space.alloc mem ~bytes:64 in
  let ring () =
    let nodes = 64 in
    let base = Address_space.alloc mem ~bytes:(nodes * 64) in
    for i = 0 to nodes - 1 do
      Address_space.store mem (base + (i * 64)) (base + (((i + 11) * 17 mod nodes) * 64))
    done;
    base
  in
  let primary = Context.create ~id:0 ~mode:Context.Primary (Asm.parse primary_src) in
  Context.set_regs primary [ (Reg.r1, ring ()); (Reg.r2, hops) ];
  let sprog = Asm.parse scav_src in
  let scavengers =
    Array.init scavs (fun i ->
        let c = Context.create ~id:(i + 1) ~mode:Context.Scavenger sprog in
        Context.set_regs c [ (Reg.r1, ring ()); (Reg.r2, hops) ];
        c)
  in
  (mem, primary, scavengers)

let escalations stream =
  Stallhide_obs.Registry.total (Stallhide_obs.Stream.registry stream) "scavenger.escalations"

let test_dual_scale_up_on_early_yields () =
  let mem, primary, scavengers = dual_setup ~scav_src:early_yield_scav_src ~scavs:4 ~hops:40 in
  let stream = Stallhide_obs.Stream.create () in
  let r = Dual_mode.run ~obs:stream (Hierarchy.create cfg) mem ~primary ~scavengers in
  (* cold rings: the first scavenger's own miss-yield forces the pool
     to scale up past it *)
  Alcotest.(check bool) "escalated" true (escalations stream > 0);
  Alcotest.(check bool) "pool used" true (r.Dual_mode.stats.Core_sched.scav_dispatches > 0);
  Alcotest.(check int) "everyone halts" 5 r.Dual_mode.sched.Scheduler.completed

let test_dual_scale_down_on_timely_yields () =
  let mem, primary, scavengers = dual_setup ~scav_src:timely_scav_src ~scavs:4 ~hops:40 in
  let stream = Stallhide_obs.Stream.create () in
  let r = Dual_mode.run ~obs:stream (Hierarchy.create cfg) mem ~primary ~scavengers in
  (* compute-only scavengers always return timely: one dispatch per
     primary stall suffices, the pool never escalates *)
  Alcotest.(check int) "no escalation" 0 (escalations stream);
  Alcotest.(check bool) "still fills stalls" true
    (r.Dual_mode.stats.Core_sched.scav_dispatches > 0);
  Alcotest.(check int) "everyone halts" 5 r.Dual_mode.sched.Scheduler.completed

(* --- watchdog --- *)

let rogue_arm ~watchdog ~bursts ~compute =
  let mem, primary, legit = dual_setup ~scav_src:timely_scav_src ~scavs:2 ~hops:200 in
  let rogue =
    Context.create ~id:9 ~mode:Context.Scavenger (Faults.rogue_program ~bursts ~compute ())
  in
  let stream = Stallhide_obs.Stream.create () in
  let r =
    Dual_mode.run
      ~config:{ Dual_mode.default_config with Dual_mode.watchdog }
      ~obs:stream (Hierarchy.create cfg) mem ~primary
      ~scavengers:(Array.append legit [| rogue |])
  in
  (r, stream)

let test_watchdog_quarantines_rogue () =
  let w = { Core_sched.bound = 256; strikes = 1; backoff = 1024; quarantine_after = 1 } in
  let r, stream = rogue_arm ~watchdog:(Some w) ~bursts:64 ~compute:2000 in
  Alcotest.(check bool) "struck" true (r.Dual_mode.stats.Core_sched.watchdog_strikes >= 1);
  (* quarantine_after = 1: straight to quarantine, no bench in between *)
  Alcotest.(check int) "no benching" 0 r.Dual_mode.stats.Core_sched.watchdog_demotions;
  Alcotest.(check int) "quarantined" 1 r.Dual_mode.stats.Core_sched.watchdog_quarantined;
  let reg = Stallhide_obs.Stream.registry stream in
  Alcotest.(check int) "counter mirrors result" r.Dual_mode.stats.Core_sched.watchdog_strikes
    (Stallhide_obs.Registry.total reg "watchdog.strikes");
  Alcotest.(check int) "quarantine counted" 1
    (Stallhide_obs.Registry.total reg "watchdog.quarantines")

let test_watchdog_backoff_readmits () =
  let w = { Core_sched.bound = 256; strikes = 1; backoff = 512; quarantine_after = 1000 } in
  let r, stream = rogue_arm ~watchdog:(Some w) ~bursts:64 ~compute:2000 in
  Alcotest.(check bool) "repeat demotions" true
    (r.Dual_mode.stats.Core_sched.watchdog_demotions >= 2);
  Alcotest.(check int) "never quarantined" 0 r.Dual_mode.stats.Core_sched.watchdog_quarantined;
  Alcotest.(check bool) "readmitted between demotions" true
    (Stallhide_obs.Registry.total (Stallhide_obs.Stream.registry stream) "watchdog.readmissions"
    >= 1)

let test_watchdog_off_by_default () =
  let r, stream = rogue_arm ~watchdog:None ~bursts:64 ~compute:2000 in
  Alcotest.(check int) "no strikes" 0 r.Dual_mode.stats.Core_sched.watchdog_strikes;
  Alcotest.(check int) "no events" 0
    (Stallhide_obs.Registry.total (Stallhide_obs.Stream.registry stream) "watchdog.strikes")

(* --- harness acceptance: the ISSUE's two hard criteria --- *)

let find_arm rows arm =
  List.find (fun (r : Harness.row) -> r.Harness.arm = arm) rows

let test_rogue_watchdog_keeps_p99 () =
  let opts = { Harness.default_opts with Harness.ops = 600; lanes = 8 } in
  let rows =
    Harness.run ~opts ~workload:"pointer-chase" (Faults.Rogue { count = 1; compute = 3000 })
  in
  let ff = find_arm rows "fault-free"
  and undef = find_arm rows "undefended"
  and def = find_arm rows "defended" in
  let p99 (r : Harness.row) = r.Harness.latency.Latency.p99 in
  Alcotest.(check bool) "fault-free has samples" true (ff.Harness.latency.Latency.count > 0);
  (* undefended: the rogue blows the primary tail past 2x fault-free *)
  Alcotest.(check bool)
    (Printf.sprintf "undefended p99 %d > 2x fault-free %d" (p99 undef) (p99 ff))
    true
    (p99 undef > 2 * p99 ff);
  (* defended: the watchdog keeps the tail within 2x *)
  Alcotest.(check bool)
    (Printf.sprintf "defended p99 %d <= 2x fault-free %d" (p99 def) (p99 ff))
    true
    (p99 def <= 2 * p99 ff);
  Alcotest.(check bool) "watchdog fired" true
    (List.assoc "watchdog.quarantines" def.Harness.counters > 0);
  Alcotest.(check int) "watchdog silent when off" 0
    (List.assoc "watchdog.strikes" undef.Harness.counters)

let test_drift_detector_recovers_half () =
  let opts = { Harness.default_opts with Harness.ops = 1000 } in
  let rows = Harness.run ~opts ~workload:"pointer-chase" (Faults.Drift { shrink = 128 }) in
  let fresh = find_arm rows "fault-free"
  and stale = find_arm rows "undefended"
  and adapted = find_arm rows "defended" in
  let lost = stale.Harness.cycles - fresh.Harness.cycles in
  let recovered = stale.Harness.cycles - adapted.Harness.cycles in
  Alcotest.(check bool) "stale instrumentation loses cycles" true (lost > 0);
  Alcotest.(check bool)
    (Printf.sprintf "recovered %d >= half of %d lost" recovered lost)
    true
    (2 * recovered >= lost);
  Alcotest.(check bool) "losing sites de-instrumented" true
    (List.assoc "drift.deinstrumented" adapted.Harness.counters > 0);
  Alcotest.(check bool) "profile flagged stale" true
    (List.assoc "drift.stale" adapted.Harness.counters > 0)

let test_spike_protection_fires () =
  let rows = Harness.run ~workload:"pointer-chase" (Faults.parse_spec "spike") in
  let undef = find_arm rows "undefended" and def = find_arm rows "defended" in
  Alcotest.(check bool) "spike hurts the tail" true
    (undef.Harness.latency.Latency.p99
    > (find_arm rows "fault-free").Harness.latency.Latency.p99);
  Alcotest.(check bool) "protection reacted" true
    (List.fold_left (fun acc (_, v) -> acc + v) 0 def.Harness.counters > 0);
  Alcotest.(check bool) "defended tail no worse" true
    (def.Harness.latency.Latency.p99 <= undef.Harness.latency.Latency.p99)

let test_harness_deterministic () =
  let opts = { Harness.default_opts with Harness.ops = 200 } in
  let once () =
    List.map
      (fun (r : Harness.row) -> (r.Harness.arm, r.Harness.cycles, r.Harness.hidden_cycles))
      (Harness.run ~opts ~workload:"hash-probe" (Faults.Rogue { count = 1; compute = 2000 }))
  in
  Alcotest.(check bool) "same rows" true (once () = once ())

let test_rogue_program_halts () =
  let prog = Faults.rogue_program ~bursts:3 ~compute:10 () in
  Alcotest.(check bool) "has scavenger yields" true (Program.yield_count prog > 0);
  let ctx = Context.create ~id:0 ~mode:Context.Primary prog in
  let mem = Address_space.create ~bytes:4096 in
  let r = Scheduler.run_sequential (Hierarchy.create cfg) mem [| ctx |] in
  Alcotest.(check int) "halts" 1 r.Scheduler.completed

let () =
  Alcotest.run "faults"
    [
      ( "spec",
        [
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "defaults" `Quick test_spec_defaults;
          Alcotest.test_case "rejects" `Quick test_spec_rejects;
          Alcotest.test_case "rejects NaN knobs" `Quick test_spec_rejects_nan;
          Alcotest.test_case "sub-seed" `Quick test_sub_seed_stable;
        ] );
      ( "injectors",
        [
          Alcotest.test_case "spike window" `Quick test_spike_window;
          Alcotest.test_case "pebs loss" `Quick test_pebs_loss_drops_samples;
          Alcotest.test_case "pebs deterministic" `Quick test_pebs_deterministic;
          Alcotest.test_case "pebs validated" `Quick test_pebs_spec_validated;
          Alcotest.test_case "rogue program halts" `Quick test_rogue_program_halts;
        ] );
      ( "latency",
        [ Alcotest.test_case "empty summary" `Quick test_latency_empty_summary ] );
      ( "server-protection",
        [
          Alcotest.test_case "off by default" `Quick test_protection_off_serves_all;
          Alcotest.test_case "admission sheds" `Quick test_admission_sheds;
          Alcotest.test_case "deadline + retry" `Quick test_deadline_times_out_and_retries;
          Alcotest.test_case "no retries expires" `Quick test_no_retries_expires;
          Alcotest.test_case "deterministic" `Quick test_protection_deterministic;
          Alcotest.test_case "validated" `Quick test_protection_validated;
        ] );
      ( "dual-mode",
        [
          Alcotest.test_case "scale-up on early yields" `Quick test_dual_scale_up_on_early_yields;
          Alcotest.test_case "scale-down on timely yields" `Quick
            test_dual_scale_down_on_timely_yields;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "quarantines rogue" `Quick test_watchdog_quarantines_rogue;
          Alcotest.test_case "backoff readmits" `Quick test_watchdog_backoff_readmits;
          Alcotest.test_case "off by default" `Quick test_watchdog_off_by_default;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "watchdog keeps p99 within 2x" `Quick test_rogue_watchdog_keeps_p99;
          Alcotest.test_case "drift detector recovers half" `Quick
            test_drift_detector_recovers_half;
          Alcotest.test_case "spike protection fires" `Quick test_spike_protection_fires;
          Alcotest.test_case "deterministic" `Quick test_harness_deterministic;
        ] );
    ]
