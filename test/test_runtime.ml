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
  let on_opmark = Latency.on_opmark r in
  on_opmark ~ctx:3 ~pc:0 ~cycle:100;
  on_opmark ~ctx:3 ~pc:0 ~cycle:150;
  on_opmark ~ctx:3 ~pc:0 ~cycle:175;
  Alcotest.(check (list int)) "gaps only" [ 50; 25 ] (Latency.of_ctx r 3);
  Alcotest.(check (list int)) "other ctx empty" [] (Latency.of_ctx r 4);
  Alcotest.(check int) "ops" 3 (Latency.ops r);
  Alcotest.(check (option int)) "all" (Some 2)
    (Option.map (fun s -> s.Latency.count) (Latency.summarize_recorder r))

let test_recorder_negative_ctx () =
  let r = Latency.recorder () in
  let on_opmark = Latency.on_opmark r in
  on_opmark ~ctx:0 ~pc:0 ~cycle:0;
  (match on_opmark ~ctx:(-1) ~pc:0 ~cycle:10 with
  | () -> Alcotest.fail "negative context id recorded"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "not counted" 1 (Latency.ops r);
  match Latency.summarize_recorder ~ctx:(-1) r with
  | _ -> Alcotest.fail "negative context id summarized"
  | exception Invalid_argument _ -> ()

(* The recorder before per-context arrays, kept as the model: one table
   of each context's last opmark cycle and one of its latencies (newest
   first), every opmark counted. [all] folds the table in bucket order,
   as that recorder's summaries did. *)
module Model = struct
  type t = { last : (int, int) Hashtbl.t; lats : (int, int list) Hashtbl.t; mutable ops : int }

  let create () = { last = Hashtbl.create 16; lats = Hashtbl.create 16; ops = 0 }

  let opmark m ~ctx ~cycle =
    m.ops <- m.ops + 1;
    match Hashtbl.find_opt m.last ctx with
    | Some prev ->
        let old = Option.value (Hashtbl.find_opt m.lats ctx) ~default:[] in
        Hashtbl.replace m.lats ctx ((cycle - prev) :: old);
        Hashtbl.replace m.last ctx cycle
    | None -> Hashtbl.add m.last ctx cycle

  let of_ctx m ctx = List.rev (Option.value (Hashtbl.find_opt m.lats ctx) ~default:[])

  let all m = Hashtbl.fold (fun _ v acc -> List.rev v @ acc) m.lats []

  let ascending m =
    let ids = List.sort compare (Hashtbl.fold (fun c _ acc -> c :: acc) m.lats []) in
    List.concat_map (of_ctx m) ids
end

let model_ctxs = List.init 21 Fun.id @ [ 5000; 5001; 5002; 5003 ]

(* Random opmark streams: context ids from {0..20} ∪ {5000..5003}, each
   context's clock starting at 0 and never going back, so some opmarks
   (first ones included) land on cycle 0 and some latencies are 0. *)
let qcheck_recorder_matches_model =
  QCheck.Test.make ~name:"recorder matches the hash-table model" ~count:300
    QCheck.(list_of_size Gen.(0 -- 400) (pair (oneofl model_ctxs) (int_range 0 50)))
    (fun stream ->
      let r = Latency.recorder () and m = Model.create () in
      let on_opmark = Latency.on_opmark r in
      let clock = Hashtbl.create 32 in
      List.iter
        (fun (ctx, step) ->
          let cycle = Option.value (Hashtbl.find_opt clock ctx) ~default:0 + step in
          Hashtbl.replace clock ctx cycle;
          on_opmark ~ctx ~pc:0 ~cycle;
          Model.opmark m ~ctx ~cycle)
        stream;
      let same_stats (a : Latency.summary) (b : Latency.summary) =
        a.Latency.count = b.Latency.count
        && Float.equal a.Latency.mean b.Latency.mean
        && a.Latency.p50 = b.Latency.p50
        && a.Latency.p90 = b.Latency.p90
        && a.Latency.p99 = b.Latency.p99
        && a.Latency.p999 = b.Latency.p999
        && a.Latency.max = b.Latency.max
      in
      Latency.ops r = m.Model.ops
      && List.for_all
           (fun c ->
             Latency.of_ctx r c = Model.of_ctx m c
             && Latency.summarize_recorder ~ctx:c r = Latency.summarize (Model.of_ctx m c))
           model_ctxs
      &&
      match
        ( Latency.summarize_recorder r,
          Latency.summarize (Model.all m),
          Latency.summarize (Model.ascending m) )
      with
      | None, None, None -> true
      | Some s, Some bucket, Some asc ->
          same_stats s bucket && Float.equal s.Latency.stddev asc.Latency.stddev
      | _ -> false)

(* The radix sort against [List.sort compare]: small ranges force
   duplicates, negatives are in range, and some arrays hold [min_int]
   and [max_int] together, whose span overflows [max_int]. *)
let qcheck_sort_ints =
  let extremes =
    QCheck.Gen.oneofl
      [ []; [ min_int ]; [ max_int ]; [ min_int; max_int ]; [ max_int; 0; min_int; -1 ] ]
  in
  QCheck.Test.make ~name:"sort_ints agrees with List.sort compare" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(list int)
       QCheck.Gen.(
         map2 ( @ ) extremes
           (list_size (0 -- 300)
              (oneof [ int_range (-20) 20; int_range (-100_000) 100_000; int; return 0 ]))))
    (fun xs ->
      let a = Array.of_list xs in
      Latency.sort_ints a;
      Array.to_list a = List.sort compare xs)

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

(* --- Dispatch timeline (Stream spans) --- *)

module Stream = Stallhide_obs.Stream

let dispatch s ~ctx ~start ~stop =
  Stream.record s (Stallhide_obs.Event.Dispatch { ctx; start; stop })

let busy_of s id =
  List.fold_left
    (fun acc (ctx, start, stop) -> if ctx = id then acc + (stop - start) else acc)
    0 (Stream.spans s)

let test_tracer_basics () =
  let s = Stream.create () in
  dispatch s ~ctx:0 ~start:0 ~stop:10;
  dispatch s ~ctx:1 ~start:10 ~stop:30;
  dispatch s ~ctx:0 ~start:30 ~stop:35;
  Alcotest.(check int) "spans" 3 (List.length (Stream.spans s));
  Alcotest.(check int) "busy ctx0" 15 (busy_of s 0);
  Alcotest.(check int) "busy ctx1" 20 (busy_of s 1);
  Alcotest.(check string) "chart"
    "timeline: 35 cycles, 1 cycles/col\n\
     ctx   0  ##########....................#####\n\
     ctx   1  ..........####################.....\n"
    (Stream.timeline ~width:35 s)

let test_tracer_bounded () =
  let s = Stream.create ~capacity:2 () in
  for i = 0 to 4 do
    dispatch s ~ctx:0 ~start:(i * 10) ~stop:((i * 10) + 5)
  done;
  Alcotest.(check int) "capped" 2 (List.length (Stream.spans s));
  Alcotest.(check int) "dropped" 3 (Stream.dropped s);
  Alcotest.(check string) "drop noted"
    "timeline: 15 cycles, 1 cycles/col\nctx   0  #####.....#####\n(+3 dropped)\n"
    (Stream.timeline ~width:15 s);
  Alcotest.(check string) "empty render" "" (Stream.timeline (Stream.create ()))

let test_tracer_scheduler_integration () =
  let mem, ctxs = chase ~lanes:4 ~hops:50 () in
  let s = Stream.create () in
  let r =
    Scheduler.run_round_robin ~obs:s ~switch:Switch_cost.coroutine (Hierarchy.create cfg) mem
      ctxs
  in
  Alcotest.(check int) "all complete" 4 r.Scheduler.completed;
  (* at least one dispatch span per yield and per context, none empty *)
  let spans = Stream.spans s in
  Alcotest.(check bool) "spans recorded" true (List.length spans >= 4 * 50);
  Alcotest.(check bool) "no empty span" true
    (List.for_all (fun (_, start, stop) -> stop > start) spans);
  for id = 0 to 3 do
    Alcotest.(check bool) "every ctx appears" true (busy_of s id > 0)
  done;
  (* every cycle belongs to at most one context: spans are disjoint *)
  let sorted = List.sort (fun (_, a, _) (_, b, _) -> compare a b) spans in
  let rec disjoint = function
    | (_, _, stop) :: ((_, start, _) :: _ as rest) -> stop <= start && disjoint rest
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
  Alcotest.(check bool) "scavengers dispatched" true
    (r.Dual_mode.stats.Core_sched.scav_dispatches > 100);
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
  let engine = { Engine.default_config with Engine.on_opmark = Latency.on_opmark recorder } in
  let mem, primary, scavengers = dual_setup ~scavs:4 ~hops:300 in
  let config = { Dual_mode.default_config with Dual_mode.engine } in
  let (_ : Dual_mode.result) = Dual_mode.run ~config (Hierarchy.create cfg) mem ~primary ~scavengers in
  match Latency.summarize_recorder ~ctx:0 recorder with
  | None -> Alcotest.fail "no primary latencies"
  | Some s ->
      (* an op alone costs ~200+; scavenger detour adds bounded time *)
      Alcotest.(check bool) (Printf.sprintf "p99 bounded (%d)" s.Latency.p99) true
        (s.Latency.p99 < 1500)

let test_dual_mode_no_scavengers () =
  let mem, primary, _ = dual_setup ~scavs:1 ~hops:50 in
  let r = Dual_mode.run (Hierarchy.create cfg) mem ~primary ~scavengers:[||] in
  Alcotest.(check int) "primary completes alone" 1 r.Dual_mode.sched.Scheduler.completed

(* --- Cursor rule: which scavenger runs next --- *)

(* Three scavengers of five dispatches each (four scavenger-phase
   yields, then the halt), behind a primary that yields six times. *)
let cursor_setup () =
  let mem = Address_space.create ~bytes:4096 in
  let sprog =
    Asm.parse
      "mov r2, 4\nloop:\n  add r3, r3, 1\n  syield\n  sub r2, r2, 1\n  br gt r2, 0, loop\n  halt"
  in
  let pprog = Asm.parse "mov r2, 6\nloop:\n  yield\n  sub r2, r2, 1\n  br gt r2, 0, loop\n  halt" in
  let primary = Context.create ~id:0 ~mode:Context.Primary pprog in
  let scavengers =
    Array.init 3 (fun i -> Context.create ~id:(i + 1) ~mode:Context.Scavenger sprog)
  in
  (mem, primary, scavengers)

let scavenger_dispatches obs =
  List.filter_map
    (function Stallhide_obs.Event.Dispatch { ctx; _ } when ctx > 0 -> Some ctx | _ -> None)
    (Stallhide_obs.Stream.events obs)

let test_dual_mode_rotates () =
  let mem, primary, scavengers = cursor_setup () in
  let obs = Stallhide_obs.Stream.create () in
  let (_ : Dual_mode.result) = Dual_mode.run ~obs (Hierarchy.create cfg) mem ~primary ~scavengers in
  Alcotest.(check (list int))
    "every dispatch moves the cursor on"
    (List.init 15 (fun i -> (i mod 3) + 1))
    (scavenger_dispatches obs)

let test_machine_core_depth_first () =
  let mem, primary, scavengers = cursor_setup () in
  let obs = Stallhide_obs.Stream.create () in
  let core = Core_sched.create ~obs (Hierarchy.create cfg) mem in
  Array.iter (Core_sched.add_scavenger core) scavengers;
  Core_sched.submit core primary;
  while Core_sched.step core ~deadline:max_int = Core_sched.Worked do
    ()
  done;
  Alcotest.(check (list int))
    "one scavenger resumes until it halts"
    (List.init 15 (fun i -> (i / 5) + 1))
    (scavenger_dispatches obs)

(* --- Watchdog on a core that gives scavengers away --- *)

(* [donate] takes an entry out of the front of the pool [A; R; B]; the
   watchdog's verdicts must stay with the scavenger they judge. *)
let test_watchdog_through_donate () =
  let mem, primary, scavs = dual_setup ~scavs:2 ~hops:100 in
  let a = scavs.(0) and b = scavs.(1) in
  let rogue =
    Context.create ~id:9 ~mode:Context.Scavenger
      (Stallhide_faults.Faults.rogue_program ~bursts:16 ~compute:1000 ())
  in
  let obs = Stallhide_obs.Stream.create () in
  let core = Core_sched.create ~obs (Hierarchy.create cfg) mem in
  List.iter (Core_sched.add_scavenger core) [ a; rogue; b ];
  Core_sched.set_watchdog core
    { Core_sched.bound = 256; strikes = 1; backoff = 512; quarantine_after = 2 };
  (match Core_sched.donate core with
  | Some c -> Alcotest.(check int) "A donated" a.Context.id c.Context.id
  | None -> Alcotest.fail "nothing donated");
  Core_sched.submit core primary;
  while
    (not (Core_sched.quiescent core)) && Core_sched.step core ~deadline:max_int = Core_sched.Worked
  do
    ()
  done;
  let reg = Stallhide_obs.Stream.registry obs in
  let verdicts name = Stallhide_obs.Registry.by_ctx reg name in
  let rogue_only name =
    Alcotest.(check (list int)) (name ^ " judge R alone") [ rogue.Context.id ]
      (List.map fst (verdicts name))
  in
  List.iter rogue_only [ "watchdog.strikes"; "watchdog.demotions"; "watchdog.readmissions" ];
  Alcotest.(check (list (pair int int))) "R quarantined" [ (rogue.Context.id, 1) ]
    (verdicts "watchdog.quarantines");
  Alcotest.(check bool) "B served" true (b.Context.instructions > 0);
  Alcotest.(check bool) "A never ran here" true (a.Context.started_at < 0);
  let st = Core_sched.stats core in
  let total = Stallhide_obs.Registry.total reg in
  Alcotest.(check int) "strikes" (total "watchdog.strikes") st.Core_sched.watchdog_strikes;
  Alcotest.(check int) "demotions" (total "watchdog.demotions") st.Core_sched.watchdog_demotions;
  Alcotest.(check int) "quarantines" (total "watchdog.quarantines")
    st.Core_sched.watchdog_quarantined

(* --- Dual mode, pinned --- *)

(* [Dual_mode.run]'s whole result, and the stream it feeds: the
   scheduling counters, the event count and a digest of every event in
   order. The values come from an independent implementation, the loop
   [Dual_mode] kept before it drove a [Core_sched]; they differ only in
   [scav], which now also counts each drain dispatch that ends in a
   halt (default 180, rogue 124 and faulty 123 there). *)
let dual_pin ?config ?max_cycles ~primary ~scavengers mem =
  let obs = Stallhide_obs.Stream.create () in
  let r = Dual_mode.run ?config ?max_cycles ~obs (Hierarchy.create cfg) mem ~primary ~scavengers in
  let s = r.Dual_mode.sched and st = r.Dual_mode.stats in
  let total = Stallhide_obs.Registry.total (Stallhide_obs.Stream.registry obs) in
  let events = Buffer.create 4096 in
  Stallhide_obs.Stream.iter
    (fun e -> Buffer.add_string events (Format.asprintf "%a\n" Stallhide_obs.Event.pp e))
    obs;
  Printf.sprintf
    "cycles=%d stall=%d switch=%d/%d instr=%d completed=%d faults=%d done_at=%d scav=%d \
     wd=%d/%d/%d | switch.count=%d escalations=%d wd.*=%d/%d/%d/%d events=%d %s"
    s.Scheduler.cycles s.Scheduler.stall s.Scheduler.switch_cycles s.Scheduler.switches
    s.Scheduler.instructions s.Scheduler.completed
    (List.length s.Scheduler.faults)
    r.Dual_mode.primary_done_at st.Core_sched.scav_dispatches st.Core_sched.watchdog_strikes
    st.Core_sched.watchdog_demotions st.Core_sched.watchdog_quarantined (total "switch.count")
    (total "scavenger.escalations") (total "watchdog.strikes") (total "watchdog.demotions")
    (total "watchdog.quarantines") (total "watchdog.readmissions")
    (Stallhide_obs.Stream.length obs)
    (Digest.to_hex (Digest.string (Buffer.contents events)))

let test_dual_mode_pinned () =
  let run ?config ?max_cycles ?(scavs = 3) ?(extra = [||]) () =
    let mem, primary, scavengers = dual_setup ~scavs ~hops:30 in
    dual_pin ?config ?max_cycles ~primary ~scavengers:(Array.append scavengers extra) mem
  in
  let rogue =
    Context.create ~id:9 ~mode:Context.Scavenger
      (Stallhide_faults.Faults.rogue_program ~bursts:16 ~compute:1000 ())
  in
  let watchdog = { Core_sched.bound = 256; strikes = 2; backoff = 512; quarantine_after = 2 } in
  let faulty =
    Context.create ~id:7 ~mode:Context.Scavenger
      (Asm.parse
         "mov r2, 2\nloop:\n  add r3, r3, 1\n  syield\n  sub r2, r2, 1\n  br gt r2, 0, loop\n  ret")
  in
  List.iter
    (fun (name, want, got) -> Alcotest.(check string) name want got)
    [
      ( "default",
        "cycles=12334 stall=6574 switch=4620/210 instr=904 completed=4 faults=0 done_at=6628 \
         scav=183 wd=0/0/0 | switch.count=210 escalations=30 wd.*=0/0/0/0 events=454 \
         f2fd9008cb6f4ac72b0ee64b76e43f4e",
        run () );
      ( "no drain",
        "cycles=6628 stall=4114 switch=1980/90 instr=415 completed=1 faults=0 done_at=6628 \
         scav=60 wd=0/0/0 | switch.count=90 escalations=30 wd.*=0/0/0/0 events=211 \
         cccc4c5a83ce0096161f928c5714c524",
        run ~config:{ Dual_mode.default_config with Dual_mode.drain = false } () );
      ( "watchdog on a rogue",
        "cycles=14543 stall=6304 switch=3388/154 instr=4678 completed=3 faults=0 done_at=10187 \
         scav=126 wd=4/1/1 | switch.count=154 escalations=26 wd.*=4/1/1/1 events=344 \
         47b3f867ed1e17735181d4501a981e5f",
        run ~scavs:2 ~extra:[| rogue |]
          ~config:{ Dual_mode.default_config with Dual_mode.watchdog = Some watchdog }
          () );
      ( "max_cycles cuts the primary short",
        "cycles=4000 stall=2470 switch=1210/55 instr=249 completed=0 faults=0 done_at=-1 \
         scav=37 wd=0/0/0 | switch.count=55 escalations=18 wd.*=0/0/0/0 events=129 \
         4d68107bd390e592043ea1ca448890b7",
        run ~max_cycles:4000 () );
      ( "a scavenger faults",
        "cycles=10892 stall=6701 switch=3344/152 instr=673 completed=3 faults=1 done_at=6792 \
         scav=125 wd=0/0/0 | switch.count=152 escalations=28 wd.*=0/0/0/0 events=336 \
         a8bdedcfd5b92dd118d2e8c7f6b28e8f",
        run ~scavs:2 ~extra:[| faulty |] () );
      ( "empty pool",
        "cycles=6090 stall=5190 switch=660/30 instr=181 completed=1 faults=0 done_at=6090 \
         scav=0 wd=0/0/0 | switch.count=30 escalations=0 wd.*=0/0/0/0 events=61 \
         0ad8ce5cb22155788212456393cc8c2e",
        run ~scavs:0 () );
    ]

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
          Alcotest.test_case "recorder rejects negative ids" `Quick test_recorder_negative_ctx;
          QCheck_alcotest.to_alcotest qcheck_recorder_matches_model;
          QCheck_alcotest.to_alcotest qcheck_sort_ints;
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
          Alcotest.test_case "rotates scavengers" `Quick test_dual_mode_rotates;
          Alcotest.test_case "machine core is depth-first" `Quick test_machine_core_depth_first;
          Alcotest.test_case "pinned results" `Quick test_dual_mode_pinned;
          Alcotest.test_case "watchdog through donate" `Quick test_watchdog_through_donate;
        ] );
    ]
