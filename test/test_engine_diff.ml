(* The differential wall in front of the decoded-µop fast path: the
   fast loop must be architecturally bit-identical to the reference
   interpreter — registers, memory, Mem_stats, instruction/stall/cycle
   counts — on every workload, on hundreds of generated programs,
   through every [Baselines] runner with its opmark observers attached,
   and through the whole SMP harness in every placement mode. The
   zero-allocation regression keeps the fast path actually fast: its
   per-simulated-cycle minor-heap delta must be zero (only a small
   per-[Engine.run]-call constant is allowed, for the returned [stop]
   value), with or without an opmark observer. *)

open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_workloads
open Stallhide_check
module Harness = Stallhide_smp.Harness

let memcfg = Memconfig.default

let fast_engine = Engine.default_config

let ref_engine = { Engine.default_config with Engine.fast = false }

(* The nine workloads, fresh per arm (runs mutate the image), on their
   own image unless given one to share. *)
type maker = ?image:Address_space.t -> int -> Workload.t

let makers : (string * maker) list =
  [
    ("pointer-chase", fun ?image seed -> Pointer_chase.make ?image ~seed ());
    ("hash-probe", fun ?image seed -> Hash_probe.make ?image ~seed ());
    ("array-scan", fun ?image seed -> Array_scan.make ?image ~seed ());
    ("btree", fun ?image seed -> Btree.make ?image ~seed ());
    ("graph-bfs", fun ?image seed -> Graph_bfs.make ?image ~seed ());
    ("group-by", fun ?image seed -> Group_by.make ?image ~seed ());
    ("hash-join", fun ?image seed -> Hash_join.make ?image ~seed ());
    ("kv-server", fun ?image seed -> Kv_server.make ?image ~seed ());
    ("offload", fun ?image seed -> Offload.make ?image ~seed ());
  ]

(* A maker with its seed fixed. *)
type fixed_maker = ?image:Address_space.t -> unit -> Workload.t

(* The hand-instrumented (manual) variants, which exercise the yield
   opcodes on the fast path. *)
let manual_makers : (string * fixed_maker) list =
  [
    ("pointer-chase", fun ?image () -> Pointer_chase.make ?image ~manual:true ~seed:42 ());
    ("hash-probe", fun ?image () -> Hash_probe.make ?image ~manual:true ~seed:42 ());
    ("group-by", fun ?image () -> Group_by.make ?image ~manual:true ~seed:42 ());
    ("kv-server", fun ?image () -> Kv_server.make ?image ~manual:true ~seed:42 ());
    ("offload", fun ?image () -> Offload.make ?image ~manual:true ~seed:42 ());
  ]

let check_mem_stats label (a : Mem_stats.t) (b : Mem_stats.t) =
  let f name g = Alcotest.(check int) (label ^ ": " ^ name) (g a) (g b) in
  f "demand_accesses" (fun s -> s.Mem_stats.demand_accesses);
  f "l1_hits" (fun s -> s.Mem_stats.l1_hits);
  f "l2_hits" (fun s -> s.Mem_stats.l2_hits);
  f "l3_hits" (fun s -> s.Mem_stats.l3_hits);
  f "dram_accesses" (fun s -> s.Mem_stats.dram_accesses);
  f "inflight_hits" (fun s -> s.Mem_stats.inflight_hits);
  f "prefetches" (fun s -> s.Mem_stats.prefetches);
  f "useless_prefetches" (fun s -> s.Mem_stats.useless_prefetches)

(* Run one arm of the single-engine differential: all lanes
   sequentially on a private hierarchy. Returns everything observable. *)
let run_arm engine (w : Workload.t) =
  let hier = Hierarchy.create memcfg in
  let ctxs = Workload.contexts w in
  let r = Scheduler.run_sequential ~engine hier w.Workload.image ctxs in
  (ctxs, hier, r)

(* [shape] builds a stall-shape table for the workload's program;
   both arms run under it. *)
let diff_one ?(shape = fun _ -> [||]) label ~make =
  let wf = make () in
  let wr = make () in
  let stall_shape = shape wf.Workload.program in
  let cf, hf, rf = run_arm { fast_engine with Engine.stall_shape } wf in
  let cr, hr, rr = run_arm { ref_engine with Engine.stall_shape } wr in
  let sf = State.capture ~mem:wf.Workload.image cf in
  let sr = State.capture ~mem:wr.Workload.image cr in
  (match State.diff sr sf with
  | None -> ()
  | Some d -> Alcotest.fail (label ^ ": fast/reference state diff: " ^ d));
  Alcotest.(check int) (label ^ ": cycles") rr.Scheduler.cycles rf.Scheduler.cycles;
  Alcotest.(check int) (label ^ ": stall") rr.Scheduler.stall rf.Scheduler.stall;
  Alcotest.(check int)
    (label ^ ": instructions")
    rr.Scheduler.instructions rf.Scheduler.instructions;
  Alcotest.(check int) (label ^ ": completed") rr.Scheduler.completed rf.Scheduler.completed;
  check_mem_stats label (Hierarchy.stats hr) (Hierarchy.stats hf);
  (* commit order: the engine is in-order, so identical per-context
     instruction counts + identical final state pin the retire sequence *)
  Array.iter2
    (fun (a : Context.t) (b : Context.t) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: ctx %d instructions" label a.Context.id)
        a.Context.instructions b.Context.instructions;
      Alcotest.(check int)
        (Printf.sprintf "%s: ctx %d stall_cycles" label a.Context.id)
        a.Context.stall_cycles b.Context.stall_cycles)
    cr cf;
  rf.Scheduler.cycles

let test_workloads_diff () =
  List.iter (fun (name, (make : maker)) -> ignore (diff_one name ~make:(fun () -> make 42))) makers;
  List.iter
    (fun (name, (mk : fixed_maker)) ->
      ignore (diff_one (name ^ "/manual") ~make:(fun () -> mk ())))
    manual_makers

(* --- stall shapes on both loops: a table that zeroes the stall at
   every other load and accelerator wait, and one that adds -60..+180
   cycles by pc. Each must move the run (else the arms agree
   trivially) and leave the two loops bit-identical. --- *)

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
    let plain = diff_one name ~make in
    List.iter
      (fun (tname, shape) ->
        let shaped = diff_one ~shape (name ^ " " ^ tname) ~make in
        if shaped = plain then Alcotest.failf "%s: the %s table moved nothing" name tname)
      [ ("zeroing", zeroing); ("additive", additive) ]
  in
  List.iter (fun (name, (make : maker)) -> both name (fun () -> make 42)) makers;
  List.iter (fun (name, (mk : fixed_maker)) -> both (name ^ "/manual") (fun () -> mk ())) manual_makers

(* --- the [Baselines] runners: they attach an op counter and a latency
   recorder, both opmark observers, so their fast arm runs the µop loop
   with hooks firing. Every figure they report, down to the last bit of
   the latency mean and stddev, must match the reference arm. --- *)

let metrics = Alcotest.testable Stallhide.Metrics.pp ( = )

let latency = Alcotest.(option (testable Latency.pp_summary ( = )))

let baselines_opts fast =
  { Stallhide.Baselines.default_opts with
    Stallhide.Baselines.engine = { Engine.default_config with Engine.fast } }

let diff_baselines label ~(make : fixed_maker) =
  let module B = Stallhide.Baselines in
  let both run = (run (baselines_opts false), run (baselines_opts true)) in
  let r, f = both (fun opts -> B.run_sequential ~opts (make ())) in
  Alcotest.check metrics (label ^ ": run_sequential") r f;
  let r, f = both (fun opts -> B.run_round_robin ~opts (make ())) in
  Alcotest.check metrics (label ^ ": run_round_robin") r f;
  (* dual mode: the workload's lanes scavenge behind one kv-server
     primary lane on a shared image *)
  let r, f =
    both (fun opts ->
        let image = Address_space.create ~bytes:(1 lsl 24) in
        let primary = Kv_server.make ~image ~requests:200 ~seed:42 () in
        B.run_dual ~opts ~primary ~scavengers:(make ~image ()) ())
  in
  Alcotest.check metrics (label ^ ": run_dual") r.B.metrics f.B.metrics;
  Alcotest.check latency (label ^ ": run_dual primary latency") r.B.primary_latency
    f.B.primary_latency;
  Alcotest.(check int)
    (label ^ ": run_dual scavenger switches")
    r.B.stats.Core_sched.scav_dispatches f.B.stats.Core_sched.scav_dispatches

let test_baselines_diff () =
  List.iter
    (fun (name, (make : maker)) -> diff_baselines name ~make:(fun ?image () -> make ?image 42))
    makers;
  List.iter (fun (name, mk) -> diff_baselines (name ^ "/manual") ~make:mk) manual_makers

(* 500 generated programs, raw and scavenger-instrumented: the fast
   path must agree with the reference on programs it has never seen. *)
let test_gen_programs_diff () =
  for seed = 0 to 499 do
    let case = Gen.case ~seed () in
    let label = Printf.sprintf "gen seed %d" seed in
    ignore (diff_one label ~make:(fun () -> Gen.workload ~prog:case.Gen.program case.Gen.cfg))
  done

let test_fast_engaged_sanity () =
  let engaged hooks = Engine.fast_engaged { fast_engine with Engine.hooks } in
  Alcotest.(check bool) "default engages" true (Engine.fast_engaged fast_engine);
  Alcotest.(check bool) "fast=false disengages" false (Engine.fast_engaged ref_engine);
  Alcotest.(check bool) "stream hooks disengage" false
    (engaged (Stallhide_obs.Stream.hooks (Stallhide_obs.Stream.create ())));
  (* both loops apply a shape, so it does not choose between them *)
  Alcotest.(check bool) "stall_shape keeps the µop loop" true
    (Engine.fast_engaged { fast_engine with Engine.stall_shape = [| 0; -max_int; 300 |] });
  (* any one per-instruction observer, or a yield observer, needs the
     reference interpreter *)
  let n = Events.nop in
  List.iter
    (fun (field, hooks) -> Alcotest.(check bool) (field ^ " disengages") false (engaged hooks))
    [
      ("on_retire", { n with Events.on_retire = (fun ~ctx:_ ~pc:_ ~instr:_ ~cycle:_ -> ()) });
      ("on_load", { n with Events.on_load = (fun _ -> ()) });
      ( "on_branch",
        { n with Events.on_branch = (fun ~ctx:_ ~pc:_ ~target:_ ~taken:_ ~cycle:_ -> ()) } );
      ("on_stall", { n with Events.on_stall = (fun ~ctx:_ ~pc:_ ~cycles:_ ~cycle:_ -> ()) });
      ( "on_frontend_stall",
        { n with Events.on_frontend_stall = (fun ~ctx:_ ~pc:_ ~cycles:_ ~cycle:_ -> ()) } );
      ( "on_yield",
        { n with Events.on_yield = (fun ~ctx:_ ~pc:_ ~kind:_ ~fired:_ ~cycle:_ -> ()) } );
    ];
  (* opmark observers ride the fast loop, alone or composed *)
  let r = Latency.recorder () in
  Alcotest.(check bool) "latency recorder engages" true (engaged (Latency.hooks r));
  Alcotest.(check bool) "composed with nop engages" true
    (engaged (Events.compose [ Events.nop; Latency.hooks r ]));
  Alcotest.(check bool) "two composed recorders engage" true
    (engaged (Events.compose [ Latency.hooks (Latency.recorder ()); Latency.hooks r ]));
  (* compose leaves unobserved fields physically nop's *)
  let c = Events.compose [] in
  let same field a b = Alcotest.(check bool) ("compose [] keeps nop's " ^ field) true (a == b) in
  same "on_retire" c.Events.on_retire n.Events.on_retire;
  same "on_load" c.Events.on_load n.Events.on_load;
  same "on_branch" c.Events.on_branch n.Events.on_branch;
  same "on_stall" c.Events.on_stall n.Events.on_stall;
  same "on_frontend_stall" c.Events.on_frontend_stall n.Events.on_frontend_stall;
  same "on_opmark" c.Events.on_opmark n.Events.on_opmark;
  same "on_yield" c.Events.on_yield n.Events.on_yield

(* --- whole-machine differential: the SMP harness in every placement
   mode, fast (trace off) vs reference (trace on). The trace flag only
   adds observation, never timing, so the two arms must agree on every
   architectural and timing figure. --- *)

let harness_params ~placement ~fast =
  {
    Harness.default_params with
    Harness.placement = placement;
    requests_per_core = 16;
    scav_tuples = 60;
    trace = not fast;
    engine_fast = fast;
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
      let r_ref = Harness.run (harness_params ~placement ~fast:false) in
      let r_fast = Harness.run (harness_params ~placement ~fast:true) in
      check_harness_equal label r_ref r_fast)
    [ Harness.Pgo; Harness.Static; Harness.Hybrid ]

(* --- zero-allocation regression ---

   Drive >= 10k simulated cycles of every workload through the engaged
   fast path with a pre-warmed µop cache and assert the minor-heap
   delta is bounded by a small constant per [Engine.run] call (the
   returned [stop] value) — i.e. zero words per simulated cycle. *)

let zero_alloc_run label engine (w : Workload.t) =
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
  let words = m1 -. m0 in
  (* 48 words/call covers the per-[run]-entry constant: the fast
     loop's two local closures and the [Yielded]/[stop] result.
     Anything per-cycle or per-instruction would show up as thousands
     of words over a 10k-cycle window. *)
  let allowance = float_of_int ((!calls * 48) + 64) in
  if words > allowance then
    Alcotest.failf "%s: fast path allocated %.0f minor words over %d cycles (%d calls)" label
      words !clock !calls

(* Opmark observers that allocate nothing must not cost the loop an
   allocation either: the fast loop calls them in place, and [compose]
   fires several from an array, with no boxing. (A latency recorder
   allocates when one of its arrays grows, so these are plain
   counters.) *)
let opmark_counter () =
  let n = ref 0 in
  (n, { Events.nop with Events.on_opmark = (fun ~ctx:_ ~pc:_ ~cycle:_ -> incr n) })

let test_zero_alloc () =
  List.iter
    (fun (name, (make : maker)) ->
      zero_alloc_run name fast_engine (make 7);
      let ops_a, count_a = opmark_counter () in
      let ops_b, count_b = opmark_counter () in
      zero_alloc_run (name ^ " + two opmark counters")
        { fast_engine with Engine.hooks = Events.compose [ count_a; count_b ] }
        (make 7);
      if !ops_a = 0 || !ops_a <> !ops_b then
        Alcotest.failf "%s: opmark counters fired %d and %d times" name !ops_a !ops_b)
    makers

let () =
  Alcotest.run "engine-diff"
    [
      ( "fast-vs-reference",
        [
          Alcotest.test_case "fast_engaged gating" `Quick test_fast_engaged_sanity;
          Alcotest.test_case "nine workloads (+manual variants)" `Quick test_workloads_diff;
          Alcotest.test_case "500 generated programs" `Slow test_gen_programs_diff;
          Alcotest.test_case "Baselines runners (+manual variants)" `Quick test_baselines_diff;
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
