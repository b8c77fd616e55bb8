open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime

let cfg = Memconfig.default

(* --- Switch cost --- *)

let test_switch_cost_values () =
  Alcotest.(check int) "coroutine full save" 22 (Switch_cost.cost Switch_cost.coroutine ~live:None);
  Alcotest.(check int) "coroutine live=2" 8 (Switch_cost.cost Switch_cost.coroutine ~live:(Some 2));
  Alcotest.(check int) "process flat" 2000 (Switch_cost.cost Switch_cost.os_process ~live:(Some 2));
  Alcotest.(check int) "kthread flat" 1200 (Switch_cost.cost Switch_cost.kernel_thread ~live:None)

let test_switch_cost_at_site () =
  let p = Asm.parse "mov r1, 1\nyield\nadd r2, r1, 0\nhalt" in
  Alcotest.(check int) "unannotated = full" 22 (Switch_cost.at_site Switch_cost.coroutine p 1);
  (Program.annot p 1).Program.live_regs <- Some 3;
  Alcotest.(check int) "annotated" 9 (Switch_cost.at_site Switch_cost.coroutine p 1);
  Alcotest.(check int) "out of range = full" 22 (Switch_cost.at_site Switch_cost.coroutine p 99)

(* --- Latency --- *)

(* Linear interpolation (numpy's "linear", rank = q*(n-1)), rounded to
   the nearest cycle: p50 of 1..100 interpolates between 50 and 51. *)
let test_percentiles () =
  let xs = List.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 51 (Latency.percentile xs 0.50);
  Alcotest.(check int) "p90" 90 (Latency.percentile xs 0.90);
  Alcotest.(check int) "p99" 99 (Latency.percentile xs 0.99);
  Alcotest.(check int) "p100" 100 (Latency.percentile xs 1.0);
  Alcotest.(check int) "single" 7 (Latency.percentile [ 7 ] 0.5);
  match Latency.percentile [] 0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty percentile accepted"

(* Small-n edge cases, where nearest-rank used to snap to an endpoint:
   interpolation uses both neighbours and clamps q outside [0, 1]. *)
let test_percentile_small_n () =
  Alcotest.(check int) "2 elems, p50 midpoint" 15 (Latency.percentile [ 10; 20 ] 0.50);
  Alcotest.(check int) "2 elems, p0" 10 (Latency.percentile [ 10; 20 ] 0.0);
  Alcotest.(check int) "2 elems, p100" 20 (Latency.percentile [ 10; 20 ] 1.0);
  Alcotest.(check int) "3 elems, p50 exact" 2 (Latency.percentile [ 1; 2; 3 ] 0.50);
  Alcotest.(check int) "3 elems, p75 interpolates" 3 (Latency.percentile [ 1; 2; 3 ] 0.75);
  Alcotest.(check int) "unsorted input" 2 (Latency.percentile [ 3; 1; 2 ] 0.50);
  Alcotest.(check int) "q below 0 clamps" 10 (Latency.percentile [ 10; 20 ] (-0.5));
  Alcotest.(check int) "q above 1 clamps" 20 (Latency.percentile [ 10; 20 ] 1.5)

let test_summarize () =
  (match Latency.summarize [] with
  | None -> ()
  | Some _ -> Alcotest.fail "summary of empty");
  match Latency.summarize [ 10; 20; 30; 40 ] with
  | Some s ->
      Alcotest.(check int) "count" 4 s.Latency.count;
      Alcotest.(check (float 0.001)) "mean" 25.0 s.Latency.mean;
      Alcotest.(check int) "max" 40 s.Latency.max
  | None -> Alcotest.fail "no summary"

(* [summarize] reads every order statistic from one sort: it must agree
   with [percentile] at each quantile it reports and with a plain fold
   for count, max, mean and stddev, bit for bit. Small ranges force
   duplicates; negatives and length 1 are in range. *)
let qcheck_summarize_agrees =
  QCheck.Test.make ~name:"summarize agrees with percentile and plain folds" ~count:500
    QCheck.(list_of_size Gen.(1 -- 300) (int_range (-1000) 1000))
    (fun xs ->
      match Latency.summarize xs with
      | None -> false
      | Some s ->
          let n = List.length xs in
          let mean = float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int n in
          let sq =
            List.fold_left
              (fun a x ->
                let d = float_of_int x -. mean in
                a +. (d *. d))
              0.0 xs
          in
          s.Latency.count = n
          && s.Latency.max = List.fold_left max min_int xs
          && Float.equal s.Latency.mean mean
          && Float.equal s.Latency.stddev (sqrt (sq /. float_of_int n))
          && s.Latency.p50 = Latency.percentile xs 0.50
          && s.Latency.p90 = Latency.percentile xs 0.90
          && s.Latency.p99 = Latency.percentile xs 0.99
          && s.Latency.p999 = Latency.percentile xs 0.999)

let test_recorder_skips_first () =
  let r = Latency.recorder () in
  let h = Latency.hooks r in
  h.Events.on_opmark ~ctx:3 ~pc:0 ~cycle:100;
  h.Events.on_opmark ~ctx:3 ~pc:0 ~cycle:150;
  h.Events.on_opmark ~ctx:3 ~pc:0 ~cycle:175;
  Alcotest.(check (list int)) "gaps only" [ 50; 25 ] (Latency.of_ctx r 3);
  Alcotest.(check (list int)) "other ctx empty" [] (Latency.of_ctx r 4);
  Alcotest.(check int) "all" 2 (List.length (Latency.all r))

(* --- Schedulers --- *)

(* Manual-yield pointer chase across [lanes] contexts. *)
let chase ?(manual = true) ~lanes ~hops () =
  let src =
    if manual then
      "loop:\n  prefetch [r1]\n  yield\n  load r1, [r1]\n  opmark\n  sub r2, r2, 1\n  br gt r2, 0, loop\n  halt"
    else "loop:\n  load r1, [r1]\n  opmark\n  sub r2, r2, 1\n  br gt r2, 0, loop\n  halt"
  in
  let prog = Asm.parse src in
  let mem = Address_space.create ~bytes:(1 lsl 23) in
  let (_ : int) = Address_space.alloc mem ~bytes:64 in
  let ctxs =
    Array.init lanes (fun id ->
        let nodes = 2048 in
        let base = Address_space.alloc mem ~bytes:(nodes * 64) in
        for i = 0 to nodes - 1 do
          Address_space.store mem (base + (i * 64)) (base + (((i + 7) * 13 mod nodes) * 64))
        done;
        let ctx = Context.create ~id ~mode:Context.Primary prog in
        Context.set_regs ctx [ (Reg.r1, base); (Reg.r2, hops) ];
        ctx)
  in
  (mem, ctxs)

let test_sequential_exposes_stalls () =
  let mem, ctxs = chase ~manual:false ~lanes:2 ~hops:200 () in
  let hier = Hierarchy.create cfg in
  let r = Scheduler.run_sequential hier mem ctxs in
  Alcotest.(check int) "all complete" 2 r.Scheduler.completed;
  Alcotest.(check bool) "stall dominates" true
    (float_of_int r.Scheduler.stall /. float_of_int r.Scheduler.cycles > 0.8);
  Alcotest.(check int) "no switches" 0 r.Scheduler.switches

let test_round_robin_hides_stalls () =
  let mem_s, ctxs_s = chase ~lanes:8 ~hops:200 () in
  let seq = Scheduler.run_sequential (Hierarchy.create cfg) mem_s ctxs_s in
  let mem_r, ctxs_r = chase ~lanes:8 ~hops:200 () in
  let rr =
    Scheduler.run_round_robin ~switch:Switch_cost.coroutine (Hierarchy.create cfg) mem_r ctxs_r
  in
  Alcotest.(check int) "all complete" 8 rr.Scheduler.completed;
  Alcotest.(check bool) "rr much faster" true (rr.Scheduler.cycles * 3 < seq.Scheduler.cycles);
  Alcotest.(check bool) "efficiency improves" true
    (Scheduler.efficiency rr > 3.0 *. Scheduler.efficiency seq);
  Alcotest.(check bool) "switches happened" true (rr.Scheduler.switches > 1000)

let test_round_robin_single_lane_free_yields () =
  (* Alone in the batch, yields resume for free (no other coroutine). *)
  let mem, ctxs = chase ~lanes:1 ~hops:50 () in
  let r = Scheduler.run_round_robin ~switch:Switch_cost.coroutine (Hierarchy.create cfg) mem ctxs in
  Alcotest.(check int) "no switch charged" 0 r.Scheduler.switch_cycles;
  Alcotest.(check int) "completed" 1 r.Scheduler.completed

let test_scheduler_max_cycles () =
  let mem, ctxs = chase ~lanes:2 ~hops:100000 () in
  let r =
    Scheduler.run_round_robin ~max_cycles:50000 ~switch:Switch_cost.coroutine
      (Hierarchy.create cfg) mem ctxs
  in
  Alcotest.(check bool) "stopped at budget" true (r.Scheduler.cycles >= 50000);
  Alcotest.(check bool) "not far past budget" true (r.Scheduler.cycles < 60000);
  Alcotest.(check int) "none complete" 0 r.Scheduler.completed

let test_scheduler_fault_isolation () =
  (* One faulting coroutine must not prevent others from finishing. *)
  let good = Asm.parse "mov r1, 3\nloop:\n  yield\n  sub r1, r1, 1\n  br gt r1, 0, loop\n  halt" in
  let bad = Asm.parse "ret" in
  let mem = Address_space.create ~bytes:4096 in
  let c0 = Context.create ~id:0 ~mode:Context.Primary good in
  let c1 = Context.create ~id:1 ~mode:Context.Primary bad in
  let r =
    Scheduler.run_round_robin ~switch:Switch_cost.coroutine (Hierarchy.create cfg) mem
      [| c0; c1 |]
  in
  Alcotest.(check int) "good one completed" 1 r.Scheduler.completed;
  Alcotest.(check int) "fault recorded" 1 (List.length r.Scheduler.faults)

(* --- Tracer --- *)

let test_tracer_basics () =
  let t = Tracer.create () in
  Tracer.record t ~ctx:0 ~start:0 ~stop:10;
  Tracer.record t ~ctx:1 ~start:10 ~stop:30;
  Tracer.record t ~ctx:0 ~start:30 ~stop:35;
  Tracer.record t ~ctx:0 ~start:35 ~stop:35 (* empty span ignored *);
  Alcotest.(check int) "spans" 3 (Tracer.span_count t);
  Alcotest.(check int) "busy ctx0" 15 (Tracer.busy_of t 0);
  Alcotest.(check int) "busy ctx1" 20 (Tracer.busy_of t 1);
  let chart = Tracer.render ~width:35 t in
  Alcotest.(check bool) "has both rows" true
    (String.length chart > 0
    && String.split_on_char '\n' chart |> List.length >= 3)

let test_tracer_bounded () =
  let t = Tracer.create ~max_spans:2 () in
  for i = 0 to 4 do
    Tracer.record t ~ctx:0 ~start:(i * 10) ~stop:((i * 10) + 5)
  done;
  Alcotest.(check int) "capped" 2 (Tracer.span_count t);
  Alcotest.(check int) "dropped" 3 (Tracer.dropped t);
  Alcotest.(check string) "empty render" "" (Tracer.render (Tracer.create ()))

let test_tracer_scheduler_integration () =
  let mem, ctxs = chase ~lanes:4 ~hops:50 () in
  let tracer = Tracer.create () in
  let r =
    Scheduler.run_round_robin ~obs:(Tracer.stream tracer) ~switch:Switch_cost.coroutine
      (Hierarchy.create cfg) mem ctxs
  in
  Alcotest.(check int) "all complete" 4 r.Scheduler.completed;
  (* at least one dispatch span per yield and per context *)
  Alcotest.(check bool) "spans recorded" true (Tracer.span_count tracer >= 4 * 50);
  for id = 0 to 3 do
    Alcotest.(check bool) "every ctx appears" true (Tracer.busy_of tracer id > 0)
  done;
  (* every cycle belongs to at most one context: spans are disjoint *)
  let sorted =
    List.sort
      (fun (a : Tracer.span) b -> compare a.Tracer.start b.Tracer.start)
      (Tracer.spans tracer)
  in
  let rec disjoint = function
    | (a : Tracer.span) :: (b :: _ as rest) ->
        a.Tracer.stop <= b.Tracer.start && disjoint rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "spans disjoint" true (disjoint sorted)

(* --- Dual mode --- *)

(* Scavenger program: yields primary-style at its miss, scavenger-style
   every ~50 cycles of compute. *)
let scav_src =
  {|
loop:
  prefetch [r1]
  yield
  load r1, [r1]
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
  prefetch [r1]
  yield
  load r1, [r1]
  opmark
  sub r2, r2, 1
  br gt r2, 0, loop
  halt
|}

let dual_setup ~scavs ~hops =
  let mem = Address_space.create ~bytes:(1 lsl 23) in
  let (_ : int) = Address_space.alloc mem ~bytes:64 in
  let ring () =
    let nodes = 2048 in
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

let test_dual_mode_runs () =
  let mem, primary, scavengers = dual_setup ~scavs:4 ~hops:300 in
  let r = Dual_mode.run (Hierarchy.create cfg) mem ~primary ~scavengers in
  Alcotest.(check int) "all complete" 5 r.Dual_mode.sched.Scheduler.completed;
  Alcotest.(check bool) "primary finished" true (r.Dual_mode.primary_done_at > 0);
  Alcotest.(check bool) "scavengers dispatched" true (r.Dual_mode.scavenger_switches > 100);
  Alcotest.(check (list string)) "no faults" [] r.Dual_mode.sched.Scheduler.faults

let test_dual_mode_beats_sequential_efficiency () =
  let mem, primary, scavengers = dual_setup ~scavs:4 ~hops:300 in
  let r = Dual_mode.run (Hierarchy.create cfg) mem ~primary ~scavengers in
  let mem2, primary2, scavengers2 = dual_setup ~scavs:4 ~hops:300 in
  let all = Array.append [| primary2 |] scavengers2 in
  Array.iter (fun c -> c.Context.mode <- Context.Primary) all;
  let seq = Scheduler.run_sequential (Hierarchy.create cfg) mem2 all in
  Alcotest.(check bool) "dual mode more efficient" true
    (Scheduler.efficiency r.Dual_mode.sched > 2.0 *. Scheduler.efficiency seq)

let test_dual_mode_primary_latency_bounded () =
  (* Primary per-op latency under dual mode stays within a few switch +
     interval lengths of the alone case. *)
  let recorder = Latency.recorder () in
  let engine = { Engine.default_config with Engine.hooks = Latency.hooks recorder } in
  let mem, primary, scavengers = dual_setup ~scavs:4 ~hops:300 in
  let config = { Dual_mode.default_config with Dual_mode.engine } in
  let (_ : Dual_mode.result) = Dual_mode.run ~config (Hierarchy.create cfg) mem ~primary ~scavengers in
  match Latency.summarize (Latency.of_ctx recorder 0) with
  | None -> Alcotest.fail "no primary latencies"
  | Some s ->
      (* an op alone costs ~200+; scavenger detour adds bounded time *)
      Alcotest.(check bool) (Printf.sprintf "p99 bounded (%d)" s.Latency.p99) true
        (s.Latency.p99 < 1500)

let test_dual_mode_no_scavengers () =
  let mem, primary, _ = dual_setup ~scavs:1 ~hops:50 in
  let r = Dual_mode.run (Hierarchy.create cfg) mem ~primary ~scavengers:[||] in
  Alcotest.(check int) "primary completes alone" 1 r.Dual_mode.sched.Scheduler.completed

let () =
  Alcotest.run "runtime"
    [
      ( "switch-cost",
        [
          Alcotest.test_case "values" `Quick test_switch_cost_values;
          Alcotest.test_case "at site" `Quick test_switch_cost_at_site;
        ] );
      ( "latency",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentile small-n" `Quick test_percentile_small_n;
          Alcotest.test_case "summarize" `Quick test_summarize;
          QCheck_alcotest.to_alcotest qcheck_summarize_agrees;
          Alcotest.test_case "recorder" `Quick test_recorder_skips_first;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "sequential exposes stalls" `Quick test_sequential_exposes_stalls;
          Alcotest.test_case "round robin hides stalls" `Quick test_round_robin_hides_stalls;
          Alcotest.test_case "single lane free yields" `Quick test_round_robin_single_lane_free_yields;
          Alcotest.test_case "max cycles" `Quick test_scheduler_max_cycles;
          Alcotest.test_case "fault isolation" `Quick test_scheduler_fault_isolation;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "basics" `Quick test_tracer_basics;
          Alcotest.test_case "bounded" `Quick test_tracer_bounded;
          Alcotest.test_case "scheduler integration" `Quick test_tracer_scheduler_integration;
        ] );
      ( "dual-mode",
        [
          Alcotest.test_case "runs to completion" `Quick test_dual_mode_runs;
          Alcotest.test_case "efficiency win" `Quick test_dual_mode_beats_sequential_efficiency;
          Alcotest.test_case "primary latency bounded" `Quick test_dual_mode_primary_latency_bounded;
          Alcotest.test_case "empty pool" `Quick test_dual_mode_no_scavengers;
        ] );
    ]
