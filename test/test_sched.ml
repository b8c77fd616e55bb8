open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_sched

let cfg = Memconfig.default

(* --- Task --- *)

let dummy_ctx id = Context.create ~id ~mode:Context.Primary (Asm.parse "halt")

let test_task () =
  let t = Task.create ~id:1 ~class_:Task.Latency ~arrival:100 (dummy_ctx 1) in
  Alcotest.(check (option int)) "no sojourn yet" None (Task.sojourn t);
  t.Task.finished_at <- 350;
  Alcotest.(check (option int)) "sojourn" (Some 250) (Task.sojourn t);
  match Task.create ~id:0 ~class_:Task.Batch ~arrival:(-1) (dummy_ctx 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative arrival accepted"

(* --- Server --- *)

let task_src =
  (* Per op: one likely-miss load plus ~144 cycles of service compute;
     the scavenger-phase yield sits one service quantum after the miss
     yield, approximating a 150-cycle inter-yield interval. *)
  {|
loop:
  prefetch [r1]
  yield
  load r1, [r1]
  div r3, r3, 1
  div r3, r3, 1
  div r3, r3, 1
  div r3, r3, 1
  div r3, r3, 1
  div r3, r3, 1
  div r3, r3, 1
  div r3, r3, 1
  div r3, r3, 1
  div r3, r3, 1
  div r3, r3, 1
  div r3, r3, 1
  syield
  sub r2, r2, 1
  br gt r2, 0, loop
  halt
|}

let make_tasks ~n ~hops ~interarrival ~latency_every =
  let prog = Asm.parse task_src in
  let mem = Address_space.create ~bytes:((n * 64 * 256) + 4096) in
  let (_ : int) = Address_space.alloc mem ~bytes:64 in
  let tasks =
    List.init n (fun i ->
        let nodes = 256 in
        let base = Address_space.alloc mem ~bytes:(nodes * 64) in
        for k = 0 to nodes - 1 do
          Address_space.store mem (base + (k * 64)) (base + (((k + 7) * 11 mod nodes) * 64))
        done;
        let ctx = Context.create ~id:i ~mode:Context.Primary prog in
        Context.set_regs ctx [ (Reg.r1, base); (Reg.r2, hops) ];
        let class_ =
          if latency_every > 0 && i mod latency_every = 0 then Task.Latency else Task.Batch
        in
        Task.create ~id:i ~class_ ~arrival:(i * interarrival) ctx)
  in
  (mem, tasks)

let run_policy ?(max_active = 8) policy ~interarrival =
  let mem, tasks = make_tasks ~n:24 ~hops:40 ~interarrival ~latency_every:4 in
  let config = { Server.default_config with Server.policy; max_active } in
  (Server.run ~config (Hierarchy.create cfg) mem tasks, tasks)

let test_server_completes () =
  List.iter
    (fun policy ->
      let r, tasks = run_policy policy ~interarrival:500 in
      Alcotest.(check int) (Server.policy_name policy ^ " all done") 24 r.Server.completed;
      Alcotest.(check int) "no faults" 0 r.Server.faulted;
      List.iter
        (fun t ->
          Alcotest.(check bool) "finished after arrival" true
            (t.Task.finished_at >= t.Task.arrival))
        tasks;
      Alcotest.(check int) "sojourns recorded" 24
        (List.length r.Server.latency_sojourns + List.length r.Server.batch_sojourns))
    [ Server.Run_to_completion; Server.Side_integration; Server.Event_aware ]

let test_server_idle_when_unloaded () =
  (* arrivals far apart: the core must idle between tasks *)
  let r, _ = run_policy Server.Run_to_completion ~interarrival:100000 in
  Alcotest.(check bool) "idle counted" true (r.Server.idle > 0);
  Alcotest.(check bool) "accounting sane" true
    (r.Server.idle + r.Server.switch_cycles + r.Server.stall < r.Server.cycles)

let test_side_integration_beats_rtc () =
  (* loaded system: interleaving should shorten the makespan *)
  let rtc, _ = run_policy Server.Run_to_completion ~interarrival:100 in
  let side, _ = run_policy Server.Side_integration ~interarrival:100 in
  Alcotest.(check bool)
    (Printf.sprintf "makespan %d < %d" side.Server.cycles rtc.Server.cycles)
    true
    (side.Server.cycles < rtc.Server.cycles);
  Alcotest.(check bool) "efficiency up" true
    (Server.efficiency side > Server.efficiency rtc)

let test_event_aware_latency () =
  let side, _ = run_policy Server.Event_aware ~interarrival:100 in
  let sym, _ = run_policy Server.Side_integration ~interarrival:100 in
  let p99 xs = Stallhide_runtime.Latency.percentile xs 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "latency-class p99 %d <= %d"
       (p99 side.Server.latency_sojourns)
       (p99 sym.Server.latency_sojourns))
    true
    (p99 side.Server.latency_sojourns <= p99 sym.Server.latency_sojourns)

let test_unsorted_rejected () =
  let mem, tasks = make_tasks ~n:3 ~hops:5 ~interarrival:10 ~latency_every:0 in
  match Server.run (Hierarchy.create cfg) mem (List.rev tasks) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsorted arrivals accepted"

let test_determinism () =
  let once () = (fun (r, _) -> (r.Server.cycles, r.Server.switches)) (run_policy Server.Event_aware ~interarrival:150) in
  let a = once () and b = once () in
  Alcotest.(check (pair int int)) "same run" a b

let () =
  Alcotest.run "sched"
    [
      ("task", [ Alcotest.test_case "lifecycle" `Quick test_task ]);
      ( "server",
        [
          Alcotest.test_case "completes under all policies" `Quick test_server_completes;
          Alcotest.test_case "idles when unloaded" `Quick test_server_idle_when_unloaded;
          Alcotest.test_case "integration beats run-to-completion" `Quick
            test_side_integration_beats_rtc;
          Alcotest.test_case "event-aware latency" `Quick test_event_aware_latency;
          Alcotest.test_case "unsorted rejected" `Quick test_unsorted_rejected;
          Alcotest.test_case "deterministic" `Quick test_determinism;
        ] );
    ]
