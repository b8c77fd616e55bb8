(* The differential wall in front of the decoded-µop fast path: the
   fast loop must be architecturally bit-identical to the reference
   interpreter — registers, memory, Mem_stats, instruction/stall/cycle
   counts — on every workload, on hundreds of generated programs,
   through every [Baselines] runner with its opmark observer attached
   ([test_baselines_diff_a] and [_b], which share this suite's arms in
   [Engine_arms]), and through the whole SMP harness in every
   placement mode. Each is run in four arms, each interpreter traced
   and untraced: a trace is a stream fed by the engine's probe, and
   the two traced streams must match event for event. The
   zero-allocation regression keeps the fast path actually fast: its
   per-simulated-cycle minor-heap delta must be zero (only a small
   per-[Engine.run]-call constant is allowed, for the returned [stop]
   value), with or without observers, while the reference interpreter
   allocates per instruction. *)

open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_workloads
open Stallhide_check
open Engine_arms
module Harness = Stallhide_smp.Harness

(* Run one arm of the single-engine differential: all lanes
   sequentially on a private hierarchy, the scheduler feeding the
   arm's stream too. Returns everything observable. *)
type run = {
  state : State.t;
  result : Scheduler.result;
  mem_stats : Mem_stats.t;
  per_ctx : (int * int) array;  (* instructions, stall cycles *)
}

(* [contended] runs on one core of a machine with tiny private caches
   and a shared L3 that admits one below-L2 service per 32 cycles, so
   loads hit in L3 and queue there; with [ooo_window] hiding more than
   an L3 hit's stall, the queueing delay can pass the paid stall. *)
let contended_memcfg =
  {
    memcfg with
    Memconfig.l1 = { memcfg.Memconfig.l1 with Memconfig.size_bytes = 256; ways = 2 };
    l2 = { memcfg.Memconfig.l2 with Memconfig.size_bytes = 1024; ways = 2 };
  }

let run_arm ?(stall_shape = [||]) ?(contended = false) a (w : Workload.t) =
  let base =
    { fast_engine with Engine.stall_shape; ooo_window = (if contended then 64 else 0) }
  in
  let obs, engine = arm_engine ~base a in
  let hier =
    if contended then
      Hierarchy.create_core contended_memcfg
        ~shared:(Shared_l3.create ~window:32 ~budget:1 contended_memcfg)
    else Hierarchy.create memcfg
  in
  let ctxs = Workload.contexts w in
  let result = Scheduler.run_sequential ~engine ?obs hier w.Workload.image ctxs in
  ( {
      state = State.capture ~mem:w.Workload.image ctxs;
      result;
      mem_stats = Hierarchy.stats hier;
      per_ctx =
        Array.map (fun (c : Context.t) -> (c.Context.instructions, c.Context.stall_cycles)) ctxs;
    },
    obs )

let same_run label (r : run) (f : run) =
  (match State.diff r.state f.state with
  | None -> ()
  | Some d -> Alcotest.fail (label ^ ": state diff: " ^ d));
  let rr = r.result and rf = f.result in
  Alcotest.(check int) (label ^ ": cycles") rr.Scheduler.cycles rf.Scheduler.cycles;
  Alcotest.(check int) (label ^ ": stall") rr.Scheduler.stall rf.Scheduler.stall;
  Alcotest.(check int)
    (label ^ ": instructions")
    rr.Scheduler.instructions rf.Scheduler.instructions;
  Alcotest.(check int) (label ^ ": completed") rr.Scheduler.completed rf.Scheduler.completed;
  check_mem_stats label r.mem_stats f.mem_stats;
  (* commit order: the engine is in-order, so identical per-context
     instruction counts + identical final state pin the retire sequence *)
  Alcotest.(check (array (pair int int)))
    (label ^ ": per-context instructions, stall_cycles")
    r.per_ctx f.per_ctx

(* [shape] builds a stall-shape table for the workload's program;
   every arm runs under it. *)
let diff_one ?arms ?(shape = fun _ -> [||]) ?contended label ~make =
  let r =
    four_arms ?arms label ~same:same_run ~run:(fun a ->
        let w = make () in
        run_arm ~stall_shape:(shape w.Workload.program) ?contended a w)
  in
  r.result.Scheduler.cycles

let test_workloads_diff () =
  expect_traced "workloads" (fun () ->
      List.iter
        (fun (name, (make : maker)) -> ignore (diff_one name ~make:(fun () -> make 42)))
        makers;
      List.iter
        (fun (name, (mk : fixed_maker)) ->
          ignore (diff_one (name ^ "/manual") ~make:(fun () -> mk ())))
        manual_makers)

(* --- stall shapes on both loops: a table that zeroes the stall at
   every other load and accelerator wait, and one that adds -60..+180
   cycles by pc. Each must move the run (else the arms agree
   trivially) and leave the two loops bit-identical. Untraced here: the
   generated-program property traces shaped runs. --- *)

let untraced = List.filter (fun a -> not a.traced) arms

let zeroing prog =
  let seen = ref 0 in
  Array.init (Stallhide_isa.Program.length prog) (fun pc ->
      match Stallhide_isa.Program.instr prog pc with
      | Stallhide_isa.Instr.Load _ | Stallhide_isa.Instr.Accel_wait _ ->
          incr seen;
          if !seen mod 2 = 1 then -max_int else 0
      | _ -> 0)

let additive prog = Array.init (Stallhide_isa.Program.length prog) (fun pc -> (pc mod 7 * 40) - 60)

let test_shaped_diff () =
  let both name make =
    let plain = diff_one ~arms:untraced name ~make in
    List.iter
      (fun (tname, shape) ->
        let shaped = diff_one ~arms:untraced ~shape (name ^ " " ^ tname) ~make in
        if shaped = plain then Alcotest.failf "%s: the %s table moved nothing" name tname)
      [ ("zeroing", zeroing); ("additive", additive) ]
  in
  List.iter (fun (name, (make : maker)) -> both name (fun () -> make 42)) makers;
  List.iter (fun (name, (mk : fixed_maker)) -> both (name ^ "/manual") (fun () -> mk ())) manual_makers

(* 500 generated programs, raw and scavenger-instrumented: the fast
   path must agree with the reference on programs it has never seen. *)
let test_gen_programs_diff () =
  expect_traced "generated programs" (fun () ->
      for seed = 0 to 499 do
        let case = Gen.case ~seed () in
        let label = Printf.sprintf "gen seed %d" seed in
        ignore (diff_one label ~make:(fun () -> Gen.workload ~prog:case.Gen.program case.Gen.cfg))
      done)

(* The same over 500 random seeds, each program also run with a
   faulting lane, under a stall shape, and on a contended core. *)
let qcheck_gen_programs =
  QCheck.Test.make ~name:"four arms agree on generated programs" ~count:500
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let case = Gen.case ~seed () in
      let make () = Gen.workload ~prog:case.Gen.program case.Gen.cfg in
      let label = Printf.sprintf "gen seed %d" seed in
      ignore (diff_one label ~make);
      ignore (diff_one ~shape:additive (label ^ " additive") ~make);
      ignore (diff_one ~contended:true (label ^ " contended") ~make);
      ignore
        (diff_one (label ^ " faulting lane") ~make:(fun () ->
             let w = make () in
             let lanes = Array.copy w.Workload.lanes in
             lanes.(0) <- lanes.(0) @ [ (Stallhide_isa.Reg.r0, -64); (Stallhide_isa.Reg.r1, -64) ];
             { w with Workload.lanes }));
      true)

(* --- whole-machine differential: the 4-core SMP harness in every
   placement mode, in all four arms. Tracing only adds observation,
   never timing, so every arm must agree on every architectural and
   timing figure, and the traced arms on every core's stream. --- *)

let harness_params ~placement a =
  {
    Harness.default_params with
    Harness.placement = placement;
    requests_per_core = 16;
    scav_tuples = 60;
    trace = a.traced;
    engine_fast = a.fast;
  }

let check_harness_equal label (a : Harness.run) (b : Harness.run) =
  let ra = a.Harness.result and rb = b.Harness.result in
  Alcotest.(check int) (label ^ ": cycles") ra.Stallhide_smp.Machine.cycles
    rb.Stallhide_smp.Machine.cycles;
  Alcotest.(check int)
    (label ^ ": completed")
    ra.Stallhide_smp.Machine.completed rb.Stallhide_smp.Machine.completed;
  Alcotest.(check int) (label ^ ": faulted") ra.Stallhide_smp.Machine.faulted
    rb.Stallhide_smp.Machine.faulted;
  Alcotest.(check int) (label ^ ": steals") ra.Stallhide_smp.Machine.steals
    rb.Stallhide_smp.Machine.steals;
  Alcotest.(check int)
    (label ^ ": donations")
    ra.Stallhide_smp.Machine.donations rb.Stallhide_smp.Machine.donations;
  Array.iter2
    (fun (ca : Stallhide_smp.Machine.core_result) (cb : Stallhide_smp.Machine.core_result) ->
      let p fmt = Printf.sprintf ("%s: core %d " ^^ fmt) label ca.Stallhide_smp.Machine.core_id in
      Alcotest.(check int) (p "cycles") ca.Stallhide_smp.Machine.cycles
        cb.Stallhide_smp.Machine.cycles;
      let sa = ca.Stallhide_smp.Machine.stats and sb = cb.Stallhide_smp.Machine.stats in
      Alcotest.(check int) (p "dispatches") sa.Core_sched.dispatches sb.Core_sched.dispatches;
      Alcotest.(check int) (p "scav_dispatches") sa.Core_sched.scav_dispatches
        sb.Core_sched.scav_dispatches;
      Alcotest.(check int) (p "switches") sa.Core_sched.switches sb.Core_sched.switches;
      Alcotest.(check int) (p "switch_cycles") sa.Core_sched.switch_cycles
        sb.Core_sched.switch_cycles;
      Alcotest.(check int) (p "steals") sa.Core_sched.steals sb.Core_sched.steals;
      Alcotest.(check int) (p "donated") sa.Core_sched.donated sb.Core_sched.donated;
      Alcotest.(check int) (p "escalations") sa.Core_sched.escalations sb.Core_sched.escalations;
      Alcotest.(check int) (p "completions") sa.Core_sched.completions sb.Core_sched.completions;
      Alcotest.(check int) (p "faults") sa.Core_sched.fault_count sb.Core_sched.fault_count;
      check_mem_stats
        (Printf.sprintf "%s: core %d" label ca.Stallhide_smp.Machine.core_id)
        ca.Stallhide_smp.Machine.mem cb.Stallhide_smp.Machine.mem;
      Alcotest.(check (list int)) (p "sojourns") ca.Stallhide_smp.Machine.sojourns
        cb.Stallhide_smp.Machine.sojourns)
    ra.Stallhide_smp.Machine.per_core rb.Stallhide_smp.Machine.per_core;
  let la = ra.Stallhide_smp.Machine.l3 and lb = rb.Stallhide_smp.Machine.l3 in
  Alcotest.(check int) (label ^ ": l3 admitted") la.Shared_l3.admitted lb.Shared_l3.admitted;
  Alcotest.(check int) (label ^ ": l3 queued") la.Shared_l3.queued lb.Shared_l3.queued;
  Alcotest.(check int)
    (label ^ ": l3 queue_cycles")
    la.Shared_l3.queue_cycles lb.Shared_l3.queue_cycles;
  Alcotest.(check int) (label ^ ": l3 writes") la.Shared_l3.writes lb.Shared_l3.writes;
  Alcotest.(check int)
    (label ^ ": l3 invalidations")
    la.Shared_l3.invalidations lb.Shared_l3.invalidations

let test_harness_placements_diff () =
  List.iter
    (fun placement ->
      let label = "harness/" ^ Stallhide.Pipeline.placement_name placement in
      let runs = List.map (fun a -> (a, Harness.run (harness_params ~placement a))) arms in
      let first = snd (List.hd runs) in
      List.iter (fun (a, r) -> check_harness_equal (label ^ " [" ^ arm_name a ^ "]") first r) runs;
      let core_streams a =
        Array.map
          (fun (c : Stallhide_smp.Machine.core_result) -> c.Stallhide_smp.Machine.stream)
          (List.assoc a runs).Harness.result.Stallhide_smp.Machine.per_core
      in
      Array.iteri
        (fun i reference ->
          check_streams (Printf.sprintf "%s: core %d traced streams" label i) reference
            (core_streams { fast = true; traced = true }).(i))
        (core_streams { fast = false; traced = true }))
    [ Harness.Pgo; Harness.Static; Harness.Hybrid ]

(* --- zero-allocation regression ---

   Drive >= 10k simulated cycles of every workload through the fast
   path with a pre-warmed µop cache and assert the minor-heap delta is
   bounded by a small constant per [Engine.run] call (the returned
   [stop] value) — i.e. zero words per simulated cycle. *)

(* The words [engine] allocates over a 10k-cycle window, the per-call
   allowance, the cycles and the calls. *)
let window_alloc engine (w : Workload.t) =
  let hier = Hierarchy.create memcfg in
  let ctxs = Workload.contexts w in
  let clock = ref 0 in
  (* warm-up: the first entry decodes the program (allocates once) *)
  Array.iter
    (fun c -> ignore (Engine.run engine hier w.Workload.image ~clock ~deadline:(!clock + 1) c))
    ctxs;
  let deadline = !clock + 10_000 in
  let calls = ref 0 in
  let rec drive c =
    incr calls;
    match Engine.run engine hier w.Workload.image ~clock ~deadline c with
    | Engine.Yielded _ -> if !clock < deadline then drive c
    | Engine.Halted | Engine.Out_of_budget | Engine.Fault _ -> ()
  in
  let m0 = Gc.minor_words () in
  Array.iter drive ctxs;
  let m1 = Gc.minor_words () in
  (* 48 words/call covers the per-[run]-entry constant: the fast
     loop's two local closures and the [Yielded]/[stop] result.
     Anything per-cycle or per-instruction would show up as thousands
     of words over a 10k-cycle window. *)
  (m1 -. m0, float_of_int ((!calls * 48) + 64), !clock, !calls)

let zero_alloc_run label engine w =
  let words, allowance, cycles, calls = window_alloc engine w in
  if words > allowance then
    Alcotest.failf "%s: fast path allocated %.0f minor words over %d cycles (%d calls)" label
      words cycles calls

(* Observers that allocate nothing must not cost the loop an
   allocation either: an opmark observer and a probe whose tracer
   counts (a stream allocates its events, so these are plain
   counters). *)
let counting_observers () =
  let marks = ref 0 and events = ref 0 in
  let probe = Probe.create () in
  let count ~ctx:_ ~pc:_ ~stall:_ ~cycle:_ = incr events in
  Probe.trace probe
    {
      Probe.load = (fun ~ctx:_ ~pc:_ ~addr:_ ~level:_ ~stall:_ ~queue:_ ~cycle:_ -> incr events);
      stall = count;
      frontend = count;
      yield = (fun ~ctx:_ ~pc:_ ~kind:_ ~fired:_ ~cycle:_ -> incr events);
      opmark = (fun ~ctx:_ ~pc:_ ~cycle:_ -> incr events);
    };
  ( marks,
    events,
    {
      fast_engine with
      Engine.on_opmark = (fun ~ctx:_ ~pc:_ ~cycle:_ -> incr marks);
      probe = Some probe;
    } )

let test_zero_alloc () =
  List.iter
    (fun (name, (make : maker)) ->
      zero_alloc_run name fast_engine (make 7);
      let marks, events, engine = counting_observers () in
      zero_alloc_run (name ^ " + observers") engine (make 7);
      if !marks = 0 || !events <= !marks then
        Alcotest.failf "%s: %d opmarks, %d probe events" name !marks !events)
    makers

(* [fast] alone picks the loop: with every observer attached and a
   stall shape, [fast] keeps the allocation-free µop loop, and
   [fast = false] the reference interpreter, which allocates per
   instruction. *)
let test_fast_picks_the_loop () =
  List.iter
    (fun (name, (make : maker)) ->
      let _, _, engine = counting_observers () in
      let w = make 7 in
      let stall_shape = additive w.Workload.program in
      zero_alloc_run (name ^ ": fast") { engine with Engine.stall_shape } w;
      let words, allowance, _, _ =
        window_alloc { engine with Engine.stall_shape; fast = false } (make 7)
      in
      if words <= 4.0 *. allowance then
        Alcotest.failf "%s: fast = false allocated %.0f words, as little as the µop loop" name
          words)
    makers

let () =
  Alcotest.run "engine-diff"
    [
      ( "fast-vs-reference",
        [
          Alcotest.test_case "fast alone picks the loop" `Quick test_fast_picks_the_loop;
          Alcotest.test_case "nine workloads (+manual variants)" `Quick test_workloads_diff;
          Alcotest.test_case "500 generated programs" `Slow test_gen_programs_diff;
          QCheck_alcotest.to_alcotest ~long:false qcheck_gen_programs;
          Alcotest.test_case "stall shapes, nine workloads (+manual variants)" `Quick
            test_shaped_diff;
        ] );
      ( "whole-machine",
        [
          Alcotest.test_case "harness placements pgo/static/hybrid" `Slow
            test_harness_placements_diff;
        ] );
      ("zero-alloc", [ Alcotest.test_case "no per-cycle allocation" `Quick test_zero_alloc ]);
    ]
