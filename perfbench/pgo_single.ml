(* pgo-single: the §3.2 pipeline on one core for every registered
   workload, in three arms — no hiding ([run_sequential]), profile-guided
   yields ([run_pgo]: profile, instrument, round-robin) and static
   placement ([run_static]: cache analysis, instrument, round-robin).
   Each arm gets a fresh workload, so simulated caches start empty. *)

open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_workloads
open Stallhide
module Analysis = Stallhide_analysis.Analysis
module Verify = Stallhide_verify.Verify
module Gain_cost = Stallhide_binopt.Gain_cost
module Primary_pass = Stallhide_binopt.Primary_pass

(* Every workload of the CLI registry at its CLI shape (16 lanes),
   with the operations per lane (full size, tiny size) chosen so that no
   program dominates the pass. group-by keeps its full size when tiny:
   its image does not fit fewer tuples per lane. *)
let programs =
  let open Stallhide_txn in
  [
    ( "pointer-chase", 140, 42,
      fun ~ops ~seed -> Pointer_chase.make ~lanes:16 ~nodes_per_lane:2048 ~hops:ops ~seed () );
    ( "hash-probe", 100, 30,
      fun ~ops ~seed -> Hash_probe.make ~lanes:16 ~table_slots:16384 ~ops ~seed () );
    ("btree", 20, 6, fun ~ops ~seed -> Btree.make ~lanes:16 ~keys:16384 ~ops ~seed ());
    ( "array-scan", 14, 4,
      fun ~ops ~seed -> Array_scan.make ~lanes:16 ~block_words:64 ~ops ~seed () );
    ( "hash-join", 66, 20,
      fun ~ops ~seed -> Hash_join.make ~lanes:16 ~build_rows:16384 ~ops ~seed () );
    ("kv-server", 100, 30, fun ~ops ~seed -> Kv_server.make ~lanes:16 ~requests:ops ~seed ());
    ( "graph-bfs", 4, 2,
      fun ~ops ~seed -> Graph_bfs.make ~lanes:16 ~vertices:(ops * 32) ~degree:4 ~seed () );
    ( "group-by", 300, 300,
      fun ~ops ~seed -> Group_by.make ~lanes:16 ~groups:16384 ~tuples:ops ~seed () );
    ("offload", 200, 60, fun ~ops ~seed -> Offload.make ~lanes:16 ~ops ~overlap:24 ~seed ());
    ("txn-oltp", 20, 6, fun ~ops ~seed -> Txn_oltp.workload ~lanes:16 ~txns:ops ~seed ());
  ]

let ops_of size (full, tiny) = match size with Pass.Tiny -> tiny | Pass.Full | Pass.C25 -> full

let no_estimates =
  { Gain_cost.miss_probability = (fun _ -> None); stall_per_miss = (fun _ -> None) }

let static_primary analysis =
  {
    Primary_pass.default_opts with
    Primary_pass.placement = Gain_cost.Static (Analysis.to_classifier analysis);
  }

type arm = { cycles : int; instructions : int; sim_s : float }

type program_result = {
  name : string;
  none : arm;
  pgo : arm;
  static : arm;
  setup_s : float array;  (** profile, instrument, analysis, static instrument *)
}

let arm_of (m : Metrics.t) sim_s =
  { cycles = m.Metrics.cycles; instructions = m.Metrics.instructions; sim_s }

(* Untraced: the arms as [Baselines.run_pgo] / [run_static] compose
   them, with set-up timed apart from simulation. *)
let run_untraced ~make =
  let w = make () in
  let none_m, none_s = Pass.timed (fun () -> Baselines.run_sequential w) in
  let w = make () in
  let profiled, profile_s = Pass.timed (fun () -> Pipeline.profile w) in
  let (w', _), inst_s = Pass.timed (fun () -> Pipeline.instrument profiled w) in
  let pgo_m, pgo_s = Pass.timed (fun () -> Baselines.run_round_robin w') in
  let w = make () in
  let analysis, analysis_s =
    Pass.timed (fun () -> Analysis.run ~mem:Memconfig.default w.Workload.program)
  in
  let sinst, sinst_s =
    Pass.timed (fun () ->
        Pipeline.instrument_with ~estimates:no_estimates ~primary:(static_primary analysis)
          w.Workload.program)
  in
  let static_m, static_s =
    Pass.timed (fun () ->
        Baselines.run_round_robin (Workload.with_program w sinst.Pipeline.program))
  in
  ( arm_of none_m none_s,
    arm_of pgo_m pgo_s,
    arm_of static_m static_s,
    [| profile_s; inst_s; analysis_s; sinst_s |] )

(* Traced: the same arms with the rewrite and its validation in
   separate spans, plus a probe (outside the pass) that reruns the PGO
   binary through [Scheduler.run_round_robin] with no hooks, so the
   decoded-µop loop runs where [Baselines] cannot use it. *)
let run_traced ~make =
  let sched0 = Span.total_s "sched" in
  let w = Span.with_ "gen" make in
  let none_m = Span.with_ "sched" (fun () -> Baselines.run_sequential w) in
  let none_s = Span.total_s "sched" -. sched0 in
  let w = Span.with_ "gen" make in
  let profiled = Span.with_ "pmu" (fun () -> Pipeline.profile w) in
  let w', inst = Span.with_ "binopt" (fun () -> Pipeline.instrument ~verify:false profiled w) in
  let validate ~orig (inst : Pipeline.instrumented) =
    let o =
      Span.with_ "verify" (fun () ->
          Verify.validate ~orig ~orig_of_new:inst.Pipeline.orig_of_new inst.Pipeline.program)
    in
    Verify.errors o + Verify.warnings o
  in
  let diags = validate ~orig:w.Workload.program inst in
  let pgo_m = Span.with_ "sched" (fun () -> Baselines.run_round_robin w') in
  let pgo_s = Span.total_s "sched" -. sched0 -. none_s in
  let w = Span.with_ "gen" make in
  let analysis =
    Span.with_ "analysis" (fun () -> Analysis.run ~mem:Memconfig.default w.Workload.program)
  in
  let sinst =
    Span.with_ "binopt" (fun () ->
        Pipeline.instrument_with ~estimates:no_estimates ~primary:(static_primary analysis)
          ~verify:false w.Workload.program)
  in
  let diags = diags + validate ~orig:w.Workload.program sinst in
  let static_m =
    Span.with_ "sched" (fun () ->
        Baselines.run_round_robin (Workload.with_program w sinst.Pipeline.program))
  in
  let static_s = Span.total_s "sched" -. sched0 -. none_s -. pgo_s in
  (arm_of none_m none_s, arm_of pgo_m pgo_s, arm_of static_m static_s, diags, profiled, inst)

let fast_probe ~make (inst : Pipeline.instrumented) =
  let w = Workload.with_program (make ()) inst.Pipeline.program in
  let ctxs = Workload.contexts w in
  let hier = Hierarchy.create Memconfig.default in
  let r, s =
    Pass.timed (fun () ->
        Scheduler.run_round_robin ~engine:Engine.default_config ~switch:Switch_cost.coroutine hier
          w.Workload.image ctxs)
  in
  (r, s, Hierarchy.stats hier)

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let speedup base arm = float_of_int base.cycles /. float_of_int (max 1 arm.cycles)

let fingerprint results =
  List.concat_map
    (fun r ->
      [
        (r.name ^ ".none", r.none.cycles);
        (r.name ^ ".pgo", r.pgo.cycles);
        (r.name ^ ".static", r.static.cycles);
      ])
    results

(* Per-program results, printed before the result line: a geometric
   mean would hide a program whose PGO arm got slower. *)
let table results =
  Printf.sprintf "%-14s %12s %12s %12s %8s %8s %8s %8s" "program" "none cyc" "pgo cyc"
    "static cyc" "pgo x" "static x" "sim ms" "setup ms"
  :: List.map
       (fun r ->
         Printf.sprintf "%-14s %12d %12d %12d %8.3f %8.3f %8.1f %8.1f" r.name r.none.cycles
           r.pgo.cycles r.static.cycles (speedup r.none r.pgo) (speedup r.none r.static)
           ((r.none.sim_s +. r.pgo.sim_s +. r.static.sim_s) *. 1e3)
           (Pass.sum r.setup_s *. 1e3))
       results

let sim_totals results =
  List.fold_left
    (fun (i, s) r ->
      ( i + r.none.instructions + r.pgo.instructions + r.static.instructions,
        s +. r.none.sim_s +. r.pgo.sim_s +. r.static.sim_s ))
    (0, 0.0) results

let pass_of ~results ~failures ~failed ~layers =
  let instrs, _ = sim_totals results in
  {
    Pass.ops = 3 * List.length results;
    failed;
    failures;
    work = instrs;
    work_s =
      Array.of_list
        (List.concat_map (fun r -> [ r.none.sim_s; r.pgo.sim_s; r.static.sim_s ]) results);
    setup_s = Array.concat (List.map (fun r -> r.setup_s) results);
    wall_s = Span.total_s "pass";
    fingerprint = fingerprint results;
    layers;
    table = table results;
  }

(* Name the program a failure happened in. *)
let in_program name f =
  try f () with e -> failwith (Printf.sprintf "%s: %s" name (Printexc.to_string e))

let untraced ~seed ~size =
  let results, wall_s = Pass.timed @@ fun () ->
    List.map
      (fun (name, full, tiny, mk) ->
        let make () = mk ~ops:(ops_of size (full, tiny)) ~seed in
        let none, pgo, static, setup_s = in_program name (fun () -> run_untraced ~make) in
        { name; none; pgo; static; setup_s })
      programs
  in
  { (pass_of ~results ~failures:[] ~failed:0 ~layers:[]) with Pass.wall_s }

(* The pass span is opened per program, so that the probe between
   programs stays outside it. *)
let traced ~seed ~size =
  let samples = ref 0 and yields = ref 0 and diags_total = ref 0 in
  let profiled_instrs = ref 0 in
  let fast_s = ref 0.0 and fast_instrs = ref 0 in
  let mem = ref [] in
  let failures = ref [] in
  let results =
    List.map
      (fun (name, full, tiny, mk) ->
        let make () = mk ~ops:(ops_of size (full, tiny)) ~seed in
        let none, pgo, static, diags, profiled, inst =
          in_program name (fun () -> Span.with_ "pass" (fun () -> run_traced ~make))
        in
        profiled_instrs := !profiled_instrs + none.instructions;
        samples := !samples + profiled.Pipeline.samples;
        yields := !yields + inst.Pipeline.primary.Primary_pass.yield_sites;
        diags_total := !diags_total + diags;
        (* probe, outside the pass *)
        let r, s, st = fast_probe ~make inst in
        fast_s := !fast_s +. s;
        fast_instrs := !fast_instrs + r.Scheduler.instructions;
        mem := st :: !mem;
        if r.Scheduler.cycles <> pgo.cycles then
          failures :=
            Printf.sprintf "%s: hook-free rerun took %d cycles, Baselines %d" name
              r.Scheduler.cycles pgo.cycles
            :: !failures;
        { name; none; pgo; static; setup_s = [||] })
      programs
  in
  let instrs, sim_s = sim_totals results in
  let sched_ns = sim_s *. 1e9 /. float_of_int (max 1 instrs) in
  let fast_ns = !fast_s *. 1e9 /. float_of_int (max 1 !fast_instrs) in
  let layers =
    [
      ("pmu.samples", float_of_int !samples);
      ("pmu.ns_per_instr", Span.self_s "pmu" *. 1e9 /. float_of_int (max 1 !profiled_instrs));
      ("binopt.yield_sites", float_of_int !yields);
      ("verify.diagnostics", float_of_int !diags_total);
      ("sched.ns_per_instr", sched_ns);
      ("engine.fast_ns_per_instr", fast_ns);
      ("engine.hook_overhead_ratio", sched_ns /. fast_ns);
      ("model.pgo_speedup", geomean (List.map (fun r -> speedup r.none r.pgo) results));
      ("model.static_speedup", geomean (List.map (fun r -> speedup r.none r.static) results));
    ]
    @ Pass.mem_layers (fun f -> List.fold_left (fun a m -> a + f m) 0 !mem)
  in
  let failed = !diags_total + List.length !failures in
  let failures =
    Pass.check (!diags_total = 0) (Printf.sprintf "%d verifier diagnostics" !diags_total)
    @ List.rev !failures
  in
  let setup_s =
    List.fold_left (fun a l -> a +. Span.total_s l) 0.0 [ "pmu"; "binopt"; "verify"; "analysis" ]
  in
  { (pass_of ~results ~failures ~failed ~layers) with Pass.setup_s = [| setup_s |] }
