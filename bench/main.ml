(* Benchmark harness: regenerates the paper's Figure 1 and one table per
   quantitative claim (C2..C11). See DESIGN.md §4 for the experiment
   index and EXPERIMENTS.md for paper-vs-measured discussion.

   Usage: dune exec bench/main.exe            (all experiments)
          dune exec bench/main.exe -- F1 C7   (a subset) *)

open Stallhide
open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_binopt
open Stallhide_runtime
open Stallhide_workloads

let seed = 20230619

let ff = Experiment.ff

let pct = Experiment.pct

let fi = Experiment.fi

let chase ?image ?(lanes = 16) ?(nodes = 2048) ?(hops = 300) ?compute ?manual () =
  Pointer_chase.make ?image ?manual ~lanes ~nodes_per_lane:nodes ~hops ?compute ~seed ()

let opts_with ?(mem_cfg = Memconfig.default) ?(switch = Switch_cost.coroutine) () =
  { Baselines.default_opts with Baselines.mem_cfg; switch }

(* ------------------------------------------------------------------ *)
(* F1 — Figure 1: which mechanism hides events of which duration.      *)
(* ------------------------------------------------------------------ *)

let f1_row ~work d =
  let mem_cfg = Memconfig.with_dram_latency Memconfig.default d in
  let opts = opts_with ~mem_cfg () in
  (* software mechanisms scale concurrency on demand *)
  let sw_lanes = min 128 (max 16 (d / max 1 work)) in
  let none = Baselines.run_sequential ~opts (chase ~lanes:8 ~compute:work ()) in
  let ooo = Baselines.run_ooo ~opts ~window:48 (chase ~lanes:8 ~compute:work ()) in
  let smt2 = Baselines.run_smt ~opts (chase ~lanes:2 ~compute:work ()) in
  let smt8 = Baselines.run_smt ~opts (chase ~lanes:8 ~compute:work ()) in
  let coro, _ = Baselines.run_pgo ~opts (chase ~lanes:sw_lanes ~compute:work ()) in
  let os =
    Baselines.run_round_robin
      ~opts:(opts_with ~mem_cfg ~switch:Switch_cost.os_process ())
      (chase ~lanes:sw_lanes ~compute:work ~manual:true ())
  in
  [
    fi d;
    fi work;
    fi sw_lanes;
    pct none.Metrics.efficiency;
    pct ooo.Metrics.efficiency;
    pct smt2.Metrics.efficiency;
    pct smt8.Metrics.efficiency;
    pct coro.Metrics.efficiency;
    pct os.Metrics.efficiency;
  ]

let f1 () =
  let durations = [ 8; 20; 50; 100; 200; 500; 1000; 2000; 5000; 20000 ] in
  let header =
    [ "event cyc"; "work"; "sw lanes"; "none"; "OoO-48"; "SMT-2"; "SMT-8"; "coro+PGO"; "OS thr" ]
  in
  Experiment.table ~title:"F1 (Figure 1): CPU efficiency vs event duration, fixed 12-cycle work"
    ~note:
      "pointer-chase events with 12 compute cycles between events (memory-bound shape); \
       software rows scale concurrency with duration"
    ~header
    (List.map (f1_row ~work:12) durations);
  Experiment.table
    ~title:"F1b (Figure 1): CPU efficiency when per-event work scales with event duration"
    ~note:
      "work = max(12, event/8): the coarse-task regime where OS scheduling becomes viable at \
       the long end"
    ~header
    (List.map (fun d -> f1_row ~work:(max 12 (d / 8)) d) durations)

(* ------------------------------------------------------------------ *)
(* C2 — context-switch costs: modeled cycles and real fiber switches.  *)
(* ------------------------------------------------------------------ *)

let fiber_switch_ns () =
  let open Bechamel in
  let test =
    Test.make ~name:"ping-pong"
      (Staged.stage (fun () -> Stallhide_fibers.Fiber.ping_pong ~rounds:100))
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"fiber" [ test ]) in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _name o acc ->
      match Analyze.OLS.estimates o with Some (ns :: _) -> ns /. 200.0 | _ -> acc)
    res nan

let c2 () =
  let ghz = 2.0 in
  let model name cost = [ name; fi cost; ff (float_of_int cost /. ghz) ^ " ns" ] in
  let fiber_ns = fiber_switch_ns () in
  let rows =
    [
      model "OS process switch" (Switch_cost.cost Switch_cost.os_process ~live:None);
      model "kernel thread switch" (Switch_cost.cost Switch_cost.kernel_thread ~live:None);
      model "coroutine, full 16-reg save" (Switch_cost.cost Switch_cost.coroutine ~live:None);
      model "coroutine, 4 live regs" (Switch_cost.cost Switch_cost.coroutine ~live:(Some 4));
      model "coroutine, 2 live regs" (Switch_cost.cost Switch_cost.coroutine ~live:(Some 2));
      [ "OCaml effects fiber (measured on host)"; "-"; ff fiber_ns ^ " ns" ];
    ]
  in
  Experiment.table ~title:"C2: context-switch costs (model cycles @ 2 GHz; fiber measured)"
    ~note:"the <10 ns coroutine-switch premise of the paper, cf. Boost fcontext 9 ns"
    ~header:[ "mechanism"; "cycles"; "time" ] rows

(* ------------------------------------------------------------------ *)
(* C3 — recovering memory-stall cycles: none vs manual vs PGO.         *)
(* ------------------------------------------------------------------ *)

let c3_workload name ~lanes ~manual =
  match name with
  | "pointer-chase" -> chase ~lanes ~manual ~hops:300 ()
  | "hash-probe" -> Hash_probe.make ~lanes ~manual ~table_slots:16384 ~ops:300 ~seed ()
  | "btree" -> Btree.make ~lanes ~manual ~keys:16384 ~ops:150 ~seed ()
  | _ -> assert false

let c3 () =
  List.iter
    (fun name ->
      let rows =
        List.map
          (fun lanes ->
            let none = Baselines.run_sequential (c3_workload name ~lanes ~manual:false) in
            let manual = Baselines.run_round_robin (c3_workload name ~lanes ~manual:true) in
            let pgo, _ = Baselines.run_pgo (c3_workload name ~lanes ~manual:false) in
            [
              fi lanes;
              ff ~decimals:3 none.Metrics.throughput;
              ff ~decimals:3 manual.Metrics.throughput;
              ff ~decimals:3 pgo.Metrics.throughput;
              pct pgo.Metrics.efficiency;
              ff (Metrics.speedup pgo none) ^ "x";
            ])
          [ 1; 2; 4; 8; 16; 32; 64 ]
      in
      Experiment.table
        ~title:(Printf.sprintf "C3: throughput (ops/kcycle) vs concurrency — %s" name)
        ~note:"none = sequential; manual = developer yields (CoroBase-style); PGO = this paper"
        ~header:[ "coroutines"; "none"; "manual"; "PGO"; "PGO eff"; "PGO vs none" ]
        rows)
    [ "pointer-chase"; "hash-probe"; "btree" ]

(* ------------------------------------------------------------------ *)
(* C4 — sampling fidelity: precision/recall and throughput vs period.  *)
(* ------------------------------------------------------------------ *)

let c4 () =
  let w () = Btree.make ~lanes:16 ~keys:16384 ~ops:200 ~seed () in
  let oracle_set = List.sort_uniq compare (Pipeline.oracle_selection (w ())) in
  let rows =
    List.map
      (fun scale ->
        let config =
          {
            Pipeline.default_profile_config with
            Pipeline.exec_period = 31 * scale;
            miss_period = 17 * scale;
            stall_period = 127 * scale;
          }
        in
        let profiled = Pipeline.profile ~config (w ()) in
        let est = Gain_cost.of_profile profiled.Pipeline.profile in
        let selected =
          Gain_cost.select Gain_cost.Cost_benefit Gain_cost.default_machine est
            (w ()).Workload.program
        in
        let inter = List.filter (fun pc -> List.mem pc oracle_set) selected in
        let precision =
          if selected = [] then nan
          else float_of_int (List.length inter) /. float_of_int (List.length selected)
        in
        let recall =
          if oracle_set = [] then nan
          else float_of_int (List.length inter) /. float_of_int (List.length oracle_set)
        in
        let metrics, _ = Baselines.run_pgo ~profile_config:config (w ()) in
        [
          fi (17 * scale);
          fi profiled.Pipeline.samples;
          pct
            (float_of_int profiled.Pipeline.overhead_cycles
            /. float_of_int (max 1 profiled.Pipeline.run_cycles));
          pct precision;
          pct recall;
          ff ~decimals:3 metrics.Metrics.throughput;
        ])
      [ 1; 4; 16; 64; 256; 1024 ]
  in
  let none = Baselines.run_sequential (w ()) in
  Experiment.table ~title:"C4: profile fidelity vs sampling period (btree, 16 lanes)"
    ~note:
      (Printf.sprintf
         "oracle yield sites: %d; uninstrumented throughput %.3f ops/kcyc; precision/recall of \
          cost-benefit site selection vs the same policy on full-trace estimates"
         (List.length oracle_set) none.Metrics.throughput)
    ~header:[ "miss period"; "samples"; "overhead"; "precision"; "recall"; "PGO tput" ]
    rows

(* ------------------------------------------------------------------ *)
(* C5 — yield coalescing on independent adjacent loads (hash join).    *)
(* ------------------------------------------------------------------ *)

let c5 () =
  let mk ?(manual = false) () = Hash_join.make ~lanes:16 ~build_rows:16384 ~ops:200 ~manual ~seed () in
  let none = Baselines.run_sequential (mk ()) in
  let manual = Baselines.run_round_robin ~label:"manual (expert coalesced)" (mk ~manual:true ()) in
  let pgo_no, inst_no =
    Baselines.run_pgo ~label:"PGO, coalescing off"
      ~primary:{ Primary_pass.default_opts with Primary_pass.coalesce = false }
      (mk ())
  in
  let pgo_co, inst_co = Baselines.run_pgo ~label:"PGO, coalescing on" (mk ()) in
  let row (m : Metrics.t) sites =
    [
      m.Metrics.label;
      ff ~decimals:3 m.Metrics.throughput;
      pct m.Metrics.efficiency;
      fi m.Metrics.switches;
      fi m.Metrics.switch_cycles;
      sites;
    ]
  in
  Experiment.table ~title:"C5: yield coalescing (hash join, 4 independent loads per op)"
    ~note:"coalescing hoists the batch's prefetches and amortizes one switch over 4 misses"
    ~header:[ "mechanism"; "ops/kcyc"; "eff"; "switches"; "switch cyc"; "yield sites" ]
    [
      row none "-";
      row manual "1/op";
      row pgo_no (fi inst_no.Pipeline.primary.Primary_pass.yield_sites);
      row pgo_co (fi inst_co.Pipeline.primary.Primary_pass.yield_sites);
    ];
  (* ablation: how much coalescing is enough? *)
  let rows =
    List.map
      (fun max_group ->
        let primary = { Primary_pass.default_opts with Primary_pass.max_group } in
        let m, inst = Baselines.run_pgo ~primary (mk ()) in
        [
          fi max_group;
          fi inst.Pipeline.primary.Primary_pass.yield_sites;
          ff ~decimals:3 m.Metrics.throughput;
          fi m.Metrics.switch_cycles;
        ])
      [ 1; 2; 4; 8 ]
  in
  Experiment.table ~title:"C5b: coalescing group-size cap (same hash join)"
    ~note:"the kernel offers groups of 4 independent loads; larger caps change nothing"
    ~header:[ "max group"; "yield sites"; "ops/kcyc"; "switch cyc" ]
    rows

(* ------------------------------------------------------------------ *)
(* C6 — register-liveness save reduction.                              *)
(* ------------------------------------------------------------------ *)

let strip_liveness prog =
  for pc = 0 to Program.length prog - 1 do
    (Program.annot prog pc).Program.live_regs <- None
  done

let c6 () =
  let rows =
    List.map
      (fun (name, mk) ->
        let w : Workload.t = mk () in
        let w', inst = Pipeline.place w in
        let with_lv = Baselines.run_round_robin ~label:"liveness" w' in
        strip_liveness w'.Workload.program;
        let without = Baselines.run_round_robin ~label:"full save" w' in
        let avg_live =
          let sites = ref 0 and sum = ref 0 in
          Array.iteri
            (fun pc i ->
              match i with
              | Instr.Yield _ | Instr.Yield_cond _ ->
                  incr sites;
                  ignore pc
              | _ -> ())
            (Program.code inst.Pipeline.program);
          ignore sum;
          !sites
        in
        ignore avg_live;
        [
          name;
          ff ~decimals:3 without.Metrics.throughput;
          ff ~decimals:3 with_lv.Metrics.throughput;
          fi without.Metrics.switch_cycles;
          fi with_lv.Metrics.switch_cycles;
          ff (Metrics.speedup with_lv without) ^ "x";
        ])
      [
        ("pointer-chase", fun () -> chase ~lanes:16 ());
        ("hash-probe", fun () -> Hash_probe.make ~lanes:16 ~table_slots:16384 ~ops:300 ~seed ());
        ("hash-join", fun () -> Hash_join.make ~lanes:16 ~build_rows:16384 ~ops:200 ~seed ());
      ]
  in
  Experiment.table ~title:"C6: liveness-limited register save at yield sites"
    ~note:"same instrumented binary, with and without the liveness annotation"
    ~header:
      [ "workload"; "tput full-save"; "tput liveness"; "switch cyc full"; "switch cyc live"; "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* Dual-mode helpers (C7, C8).                                          *)
(* ------------------------------------------------------------------ *)

type dual_setup = {
  kv : Workload.t;  (** instrumented primary *)
  scav : Workload.t;  (** instrumented scavengers *)
}

let make_dual ~interval () =
  let im = Address_space.create ~bytes:(1 lsl 25) in
  let kv = Kv_server.make ~image:im ~requests:1000 ~service_compute:30 ~seed () in
  let scav = chase ~image:im ~lanes:8 ~hops:1500 ~compute:250 () in
  let kv', _ = Pipeline.place ~scavenger_interval:interval kv in
  let scav', _ = Pipeline.place ~scavenger_interval:interval scav in
  { kv = kv'; scav = scav' }

(* Symmetric round-robin over the same mixed contexts, for comparison. *)
let run_symmetric { kv; scav } =
  let recorder = Latency.recorder () in
  let engine = { Engine.default_config with Engine.on_opmark = Latency.on_opmark recorder } in
  let kv_ctx = Workload.context kv ~lane:0 ~id:0 ~mode:Context.Primary in
  let s_ctxs =
    Array.init (Workload.lane_count scav) (fun l ->
        Workload.context scav ~lane:l ~id:(l + 1) ~mode:Context.Primary)
  in
  let r =
    Scheduler.run_round_robin ~engine ~switch:Switch_cost.coroutine
      (Hierarchy.create Memconfig.default) kv.Workload.image
      (Array.append [| kv_ctx |] s_ctxs)
  in
  let m =
    Metrics.of_sched ~label:"symmetric RR" ~ops:(Latency.ops recorder)
      ~latency:(Latency.summarize_recorder recorder)
      r
  in
  (m, Latency.summarize_recorder ~ctx:0 recorder)

let c7 () =
  let alone =
    let im = Address_space.create ~bytes:(1 lsl 25) in
    Baselines.run_sequential ~label:"primary alone"
      (Kv_server.make ~image:im ~requests:1000 ~service_compute:30 ~seed ())
  in
  let sym_m, sym_lat = run_symmetric (make_dual ~interval:200 ()) in
  let ds = make_dual ~interval:200 () in
  let dual = Baselines.run_dual ~label:"dual-mode (asymmetric)" ~primary:ds.kv ~scavengers:ds.scav () in
  let lat_cols = function
    | Some (s : Latency.summary) -> [ fi s.Latency.p50; fi s.Latency.p99 ]
    | None -> [ "-"; "-" ]
  in
  let row label (m : Metrics.t) plat =
    [ label; pct m.Metrics.efficiency; ff ~decimals:3 m.Metrics.throughput ] @ lat_cols plat
  in
  Experiment.table
    ~title:"C7: asymmetric concurrency — KV primary + 8 batch scavengers"
    ~note:
      "dual-mode should keep primary latency near 'alone' while lifting efficiency near \
       symmetric's"
    ~header:[ "mechanism"; "total eff"; "total ops/kcyc"; "primary p50"; "primary p99" ]
    [
      row "primary alone" alone alone.Metrics.latency;
      row "symmetric RR" sym_m sym_lat;
      row "dual-mode (asymmetric)" dual.Baselines.metrics dual.Baselines.primary_latency;
    ]

let c8 () =
  let rows =
    List.map
      (fun interval ->
        let ds = make_dual ~interval () in
        let d = Baselines.run_dual ~primary:ds.kv ~scavengers:ds.scav () in
        let lat = d.Baselines.primary_latency in
        let p50, p99 =
          match lat with
          | Some s -> (fi s.Latency.p50, fi s.Latency.p99)
          | None -> ("-", "-")
        in
        [
          fi interval;
          p50;
          p99;
          pct d.Baselines.metrics.Metrics.efficiency;
          fi d.Baselines.stats.Core_sched.scav_dispatches;
        ])
      [ 50; 100; 150; 200; 250; 300; 400 ]
  in
  Experiment.table ~title:"C8: scavenger inter-yield interval controls the latency/efficiency knob"
    ~note:"smaller target interval -> prompter return to the primary, more switches"
    ~header:[ "target cyc"; "primary p50"; "primary p99"; "total eff"; "scav dispatches" ]
    rows

(* ------------------------------------------------------------------ *)
(* C9 — instrumentation policy trade-off: hit-heavy vs miss-heavy.     *)
(* ------------------------------------------------------------------ *)

let c9 () =
  let policies =
    [
      ("always", Gain_cost.Always);
      ("threshold 0.1", Gain_cost.Threshold 0.1);
      ("threshold 0.5", Gain_cost.Threshold 0.5);
      ("threshold 0.9", Gain_cost.Threshold 0.9);
      ("cost-benefit", Gain_cost.Cost_benefit);
    ]
  in
  let workloads =
    [
      ( "hash-probe, L2-resident table (hit-heavy)",
        fun () -> Hash_probe.make ~lanes:16 ~table_slots:256 ~ops:300 ~seed () );
      ("array-scan (streaming, 1/8 miss)", fun () -> Array_scan.make ~lanes:16 ~block_words:64 ~ops:150 ~seed ());
      ("pointer-chase (miss-heavy)", fun () -> chase ~lanes:16 ());
    ]
  in
  List.iter
    (fun (wname, mk) ->
      let none = Baselines.run_sequential (mk ()) in
      let rows =
        List.map
          (fun (pname, policy) ->
            let primary = { Primary_pass.default_opts with Primary_pass.policy } in
            let m, inst = Baselines.run_pgo ~primary (mk ()) in
            [
              pname;
              fi inst.Pipeline.primary.Primary_pass.yield_sites;
              ff ~decimals:3 m.Metrics.throughput;
              pct m.Metrics.efficiency;
              ff (Metrics.speedup m none) ^ "x";
            ])
          policies
      in
      Experiment.table
        ~title:(Printf.sprintf "C9: yield-placement policy — %s" wname)
        ~note:
          (Printf.sprintf "uninstrumented: %.3f ops/kcyc; aggressive yields must not tax hits"
             none.Metrics.throughput)
        ~header:[ "policy"; "yield sites"; "ops/kcyc"; "eff"; "vs none" ]
        rows)
    workloads

(* ------------------------------------------------------------------ *)
(* C10 — SMT's bounded concurrency vs software coroutines.             *)
(* ------------------------------------------------------------------ *)

let c10 () =
  let smt_rows =
    List.map
      (fun k ->
        let m = Baselines.run_smt (chase ~lanes:k ()) in
        [ Printf.sprintf "SMT-%d (hardware)" k; pct m.Metrics.efficiency ])
      [ 1; 2; 4; 8 ]
  in
  let coro_rows =
    List.map
      (fun n ->
        let m, _ = Baselines.run_pgo (chase ~lanes:n ()) in
        [ Printf.sprintf "coroutines-%d (PGO)" n; pct m.Metrics.efficiency ])
      [ 2; 4; 8; 16; 32; 64 ]
  in
  Experiment.table ~title:"C10: degrees of concurrency — SMT contexts vs software coroutines"
    ~note:"2-8 hardware contexts cannot cover a ~200-cycle miss; software scales past it"
    ~header:[ "mechanism"; "CPU efficiency" ]
    (smt_rows @ coro_rows)

(* ------------------------------------------------------------------ *)
(* C11 — §4.1: hardware residency exposure (conditional yields).       *)
(* ------------------------------------------------------------------ *)

let c11 () =
  (* Sweep the table footprint across the cache sizes so the slot-load
     miss ratio goes from ~0 to ~1. *)
  let rows =
    List.map
      (fun slots ->
        let mk () = Hash_probe.make ~lanes:16 ~table_slots:slots ~ops:300 ~seed () in
        let footprint_kb = slots * 64 / 1024 in
        let none = Baselines.run_sequential (mk ()) in
        let static =
          let primary = { Primary_pass.default_opts with Primary_pass.policy = Gain_cost.Always } in
          fst (Baselines.run_pgo ~primary (mk ()))
        in
        let cond =
          let primary =
            {
              Primary_pass.default_opts with
              Primary_pass.policy = Gain_cost.Always;
              conditional = true;
            }
          in
          fst (Baselines.run_pgo ~primary (mk ()))
        in
        let pgo = fst (Baselines.run_pgo (mk ())) in
        [
          fi footprint_kb ^ " KB";
          ff ~decimals:3 none.Metrics.throughput;
          ff ~decimals:3 static.Metrics.throughput;
          ff ~decimals:3 cond.Metrics.throughput;
          ff ~decimals:3 pgo.Metrics.throughput;
        ])
      [ 256; 1024; 4096; 16384; 65536 ]
  in
  Experiment.table
    ~title:"C11: hardware residency exposure — static vs conditional yields (hash probe)"
    ~note:
      "conditional = yield only when the line is not in L1/L2 (needs the §4.1 hardware support); \
       PGO = static placement from profiles (today's hardware)"
    ~header:[ "table"; "none"; "static always"; "conditional"; "PGO cost-benefit" ]
    rows


(* ------------------------------------------------------------------ *)
(* C12 — §4.2 scheduler integration for µs-scale tasks.                *)
(* ------------------------------------------------------------------ *)

let c12_tasks ~interarrival =
  let open Stallhide_sched in
  let im = Address_space.create ~bytes:(1 lsl 25) in
  (* instrumented task kernels produced by the real pipeline *)
  let kv = Kv_server.make ~image:im ~lanes:8 ~requests:30 ~service_compute:60 ~seed () in
  let kv', _ = Pipeline.place ~scavenger_interval:150 kv in
  let an = chase ~image:im ~lanes:24 ~nodes:512 ~hops:60 ~compute:150 () in
  let an', _ = Pipeline.place ~scavenger_interval:150 an in
  let tasks = ref [] in
  let next_id = ref 0 in
  let add class_ w lane arrival =
    let ctx = Workload.context w ~lane ~id:!next_id ~mode:Context.Primary in
    tasks := Task.create ~id:!next_id ~class_ ~arrival ctx :: !tasks;
    incr next_id
  in
  (* every 4th arrival is a latency-class KV task *)
  let kv_lane = ref 0 and an_lane = ref 0 in
  for i = 0 to 31 do
    if i mod 4 = 0 && !kv_lane < 8 then begin
      add Task.Latency kv' !kv_lane (i * interarrival);
      incr kv_lane
    end
    else if !an_lane < 24 then begin
      add Task.Batch an' !an_lane (i * interarrival);
      incr an_lane
    end
  done;
  (im, List.rev !tasks)

let c12 () =
  let open Stallhide_sched in
  let rows =
    List.concat_map
      (fun interarrival ->
        List.map
          (fun policy ->
            let im, tasks = c12_tasks ~interarrival in
            let config = { Server.default_config with Server.policy; max_active = 12 } in
            let r = Server.run ~config (Hierarchy.create Memconfig.default) im tasks in
            let p xs q =
              match xs with [] -> "-" | _ -> fi (Latency.percentile xs q)
            in
            [
              fi interarrival;
              Server.policy_name policy;
              p r.Server.latency_sojourns 0.5;
              p r.Server.latency_sojourns 0.99;
              p r.Server.batch_sojourns 0.99;
              pct (Server.efficiency r);
              fi r.Server.cycles;
            ])
          [ Server.Run_to_completion; Server.Side_integration; Server.Event_aware ])
      [ 500; 2000; 8000 ]
  in
  Experiment.table ~title:"C12: scheduler integration for short tasks (§4.2)"
    ~note:
      "32 open-loop tasks (25% latency-class KV, 75% batch analytics); side-integration = \
       scheduler exposes its ready set to the hiding mechanism; event-aware = scheduler also \
       classifies tasks (batch run as scavengers)"
    ~header:
      [ "interarrival"; "policy"; "lat p50"; "lat p99"; "batch p99"; "core eff"; "makespan" ]
    rows

(* ------------------------------------------------------------------ *)
(* C13 — §4.2 coroutine isolation: SFI x stall hiding.                 *)
(* ------------------------------------------------------------------ *)

let c13 () =
  let rows =
    List.map
      (fun (name, mk) ->
        let base : Workload.t = mk () in
        let sfi_prog, _, rep = Sfi_pass.run Sfi_pass.default_opts base.Workload.program in
        let sandboxed w =
          (* one protection domain per coroutine batch: the whole image *)
          let hi = Address_space.capacity_bytes w.Workload.image in
          fun (ctxs : Context.t array) ->
            Array.iter (fun c -> c.Context.domain <- Some (0, hi)) ctxs;
            ctxs
        in
        let run_plain w = Baselines.run_sequential w in
        let run_sfi (w : Workload.t) =
          let w = Workload.with_program w sfi_prog in
          let recorder = Latency.recorder () in
          let engine =
            { Engine.default_config with Engine.on_opmark = Latency.on_opmark recorder }
          in
          let ctxs = sandboxed w (Workload.contexts w) in
          let r = Scheduler.run_sequential ~engine (Hierarchy.create Memconfig.default) w.Workload.image ctxs in
          Metrics.of_sched ~label:(name ^ "/sfi") ~ops:(Latency.ops recorder) r
        in
        let run_sfi_pgo (w : Workload.t) =
          let w = Workload.with_program w sfi_prog in
          let w', _ = Pipeline.place w in
          let recorder = Latency.recorder () in
          let engine =
            { Engine.default_config with Engine.on_opmark = Latency.on_opmark recorder }
          in
          let ctxs = sandboxed w' (Workload.contexts w') in
          let r =
            Scheduler.run_round_robin ~engine ~switch:Switch_cost.coroutine
              (Hierarchy.create Memconfig.default) w'.Workload.image ctxs
          in
          Metrics.of_sched ~label:(name ^ "/sfi+pgo") ~ops:(Latency.ops recorder) r
        in
        let plain = run_plain (mk ()) in
        let sfi = run_sfi (mk ()) in
        let pgo, _ = Baselines.run_pgo (mk ()) in
        let sfi_pgo = run_sfi_pgo (mk ()) in
        let overhead a b = Printf.sprintf "%.1f%%" (100.0 *. ((b /. a) -. 1.0)) in
        [
          name;
          fi rep.Sfi_pass.guards;
          fi rep.Sfi_pass.elided;
          overhead sfi.Metrics.throughput plain.Metrics.throughput;
          overhead sfi_pgo.Metrics.throughput pgo.Metrics.throughput;
          ff ~decimals:3 pgo.Metrics.throughput;
          ff ~decimals:3 sfi_pgo.Metrics.throughput;
        ])
      [
        ("pointer-chase", fun () -> chase ~lanes:16 ());
        ("hash-probe", fun () -> Hash_probe.make ~lanes:16 ~table_slots:16384 ~ops:300 ~seed ());
        ("btree", fun () -> Btree.make ~lanes:16 ~keys:16384 ~ops:150 ~seed ());
      ]
  in
  Experiment.table ~title:"C13: software fault isolation x stall hiding (§4.2)"
    ~note:
      "guards are per-memory-access bounds checks; 'SFI tax' = slowdown SFI causes without and \
       with stall hiding. Once stalls are hidden the checks no longer sit in a stall shadow, \
       so isolation costs relatively more — but stays under a few percent"
    ~header:
      [ "workload"; "guards"; "elided"; "SFI tax alone"; "SFI tax w/ PGO"; "PGO"; "PGO+SFI" ]
    rows


(* ------------------------------------------------------------------ *)
(* C14 — store-heavy analytics kernels (BFS, aggregation).             *)
(* ------------------------------------------------------------------ *)

let c14 () =
  let rows =
    List.map
      (fun (name, mk) ->
        let none = Baselines.run_sequential (mk false) in
        let manual = Baselines.run_round_robin (mk true) in
        let pgo, inst = Baselines.run_pgo (mk false) in
        [
          name;
          ff ~decimals:3 none.Metrics.throughput;
          ff ~decimals:3 manual.Metrics.throughput;
          ff ~decimals:3 pgo.Metrics.throughput;
          fi inst.Pipeline.primary.Primary_pass.yield_sites;
          ff (Metrics.speedup pgo none) ^ "x";
        ])
      [
        ( "graph-bfs (8 lanes)",
          fun manual -> Graph_bfs.make ~manual ~lanes:8 ~vertices:16384 ~degree:4 ~seed () );
        ( "group-by (8 lanes)",
          fun manual -> Group_by.make ~manual ~lanes:8 ~groups:16384 ~tuples:600 ~seed () );
      ]
  in
  Experiment.table ~title:"C14: store-mutating analytics kernels"
    ~note:
      "BFS visited flags and aggregation accumulators are load-modify-store; cooperative \
       yields never split the read-modify-write, so results stay exact (checked in the tests)"
    ~header:[ "workload"; "none"; "manual"; "PGO"; "yield sites"; "PGO vs none" ]
    rows;
  (* The cautionary counterpart: too many interleaved lanes thrash the
     LLC and interleaving can lose — a contention effect outside the
     paper's gain/cost model. *)
  let rows2 =
    List.map
      (fun lanes ->
        let mk () = Graph_bfs.make ~lanes ~vertices:8192 ~degree:4 ~seed () in
        let none = Baselines.run_sequential (mk ()) in
        let pgo, _ = Baselines.run_pgo (mk ()) in
        [
          fi lanes;
          ff ~decimals:3 none.Metrics.throughput;
          ff ~decimals:3 pgo.Metrics.throughput;
          ff (Metrics.speedup pgo none) ^ "x";
        ])
      [ 2; 4; 8; 16 ]
  in
  Experiment.table ~title:"C14b: interleaving vs cache contention (graph-bfs, 8192 vertices)"
    ~note:
      "each lane adds ~96 KB of working set; past the LLC the interleaved lanes evict each \
       other and the profile-guided gain inverts — a limit the paper's static gain/cost model \
       does not see"
    ~header:[ "lanes"; "none"; "PGO"; "PGO vs none" ]
    rows2


(* ------------------------------------------------------------------ *)
(* C15 — onboard-accelerator operations (the other event class).       *)
(* ------------------------------------------------------------------ *)

let c15 () =
  let rows =
    List.concat_map
      (fun accel_latency ->
        let mem_cfg = { Memconfig.default with Memconfig.accel_latency } in
        let opts = opts_with ~mem_cfg () in
        let mk manual = Offload.make ~manual ~lanes:16 ~ops:300 ~overlap:24 ~seed () in
        let none = Baselines.run_sequential ~opts (mk false) in
        let manual = Baselines.run_round_robin ~opts (mk true) in
        let pgo, _ = Baselines.run_pgo ~opts (mk false) in
        let row (m : Metrics.t) =
          [
            fi accel_latency;
            m.Metrics.label;
            ff ~decimals:3 m.Metrics.throughput;
            pct m.Metrics.efficiency;
            pct (float_of_int m.Metrics.stall /. float_of_int (max 1 m.Metrics.cycles));
          ]
        in
        [ row none; row manual; row pgo ])
      [ 50; 150; 400 ]
  in
  Experiment.table ~title:"C15: hiding onboard-accelerator waits (offload kernel, 24-cycle overlap)"
    ~note:
      "the wait site has no load event; the pipeline finds it from STALL_CYCLES samples alone \
       and hides it with a plain yield — the mechanism generalizes beyond cache misses"
    ~header:[ "accel lat"; "mechanism"; "ops/kcyc"; "eff"; "stall%" ]
    rows


(* ------------------------------------------------------------------ *)
(* C16 — §3.2 footnote: filtering front-end stalls out of the profile. *)
(* ------------------------------------------------------------------ *)

let c16 () =
  (* A 2 KiB icache and an offload kernel whose unrolled body exceeds it:
     every iteration front-end-stalls heavily, while the accelerator wait
     never actually blocks (the body overlaps the full latency). The
     generic stalled-cycles event cannot tell the difference. *)
  let icache = Some { Memconfig.size_bytes = 2048; ways = 4; latency = 14 } in
  let mem_cfg = { Memconfig.default with Memconfig.icache } in
  let opts = opts_with ~mem_cfg () in
  (* code_bloat chosen so the await lands on an icache line head: its
     fetch miss is then attributed to the wait pc, the worst case for a
     cause-blind profile *)
  let mk () = Offload.make ~lanes:8 ~ops:200 ~overlap:170 ~code_bloat:604 ~seed () in
  let rows =
    List.map
      (fun (label, frontend_period) ->
        let config = { Pipeline.default_profile_config with Pipeline.frontend_period } in
        let m, inst = Baselines.run_pgo ~opts ~profile_config:config (mk ()) in
        let spurious =
          List.exists
            (fun pc ->
              match Program.instr (mk ()).Workload.program pc with
              | Instr.Accel_wait _ -> true
              | _ -> false)
            inst.Pipeline.primary.Primary_pass.selected
        in
        [
          label;
          fi inst.Pipeline.primary.Primary_pass.yield_sites;
          (if spurious then "yes" else "no");
          ff ~decimals:3 m.Metrics.throughput;
          fi m.Metrics.switches;
        ])
      [ ("generic stall event only", None); ("+ FRONTEND_STALLS filter", Some 127) ]
  in
  let none = Baselines.run_sequential ~opts (mk ()) in
  Experiment.table
    ~title:"C16: cause-filtering the stall profile (icache-thrashing offload kernel)"
    ~note:
      (Printf.sprintf
         "uninstrumented: %.3f ops/kcyc; the wait never blocks (170-cycle overlap vs 150 \
          latency) but front-end stalls land on its pc; without the extra event the pipeline \
          instruments a spurious site"
         none.Metrics.throughput)
    ~header:[ "profile"; "yield sites"; "spurious wait yield"; "ops/kcyc"; "switches" ]
    rows


(* ------------------------------------------------------------------ *)
(* C17 — how cheap must switches be? (the paper's core premise)        *)
(* ------------------------------------------------------------------ *)

let c17 () =
  let none = Baselines.run_sequential (chase ~lanes:16 ()) in
  let rows =
    List.map
      (fun base ->
        let switch = { Switch_cost.base; per_reg = (if base <= 22 then 1 else 0); full_regs = 16 } in
        let opts = { Baselines.default_opts with Baselines.switch } in
        let raw = Baselines.run_round_robin ~opts (chase ~lanes:16 ~manual:true ()) in
        let machine =
          {
            Gain_cost.default_machine with
            Gain_cost.switch_base = float_of_int base;
            switch_per_reg = (if base <= 22 then 1.0 else 0.0);
          }
        in
        let primary = { Primary_pass.default_opts with Primary_pass.machine } in
        let pgo, inst = Baselines.run_pgo ~opts ~primary (chase ~lanes:16 ()) in
        [
          fi base;
          ff (float_of_int base /. 2.0) ^ " ns";
          ff ~decimals:3 raw.Metrics.throughput;
          ff ~decimals:3 pgo.Metrics.throughput;
          fi inst.Pipeline.primary.Primary_pass.yield_sites;
          ff (Metrics.speedup pgo none) ^ "x";
        ])
      [ 2; 6; 22; 60; 100; 200; 400; 1200; 2000 ]
  in
  Experiment.table
    ~title:"C17: sensitivity to context-switch cost (pointer chase, 16 coroutines)"
    ~note:
      (Printf.sprintf
         "uninstrumented: %.3f ops/kcyc. 'raw' forces yields regardless of cost (manual \
          program); 'model-aware' lets the gain/cost policy decide — it stops instrumenting \
          once a switch round-trip exceeds the ~196-cycle stall, exactly the paper's \
          kernel-thread argument"
         none.Metrics.throughput)
    ~header:[ "switch cyc"; "@2GHz"; "raw tput"; "model-aware tput"; "sites"; "vs none" ]
    rows

(* ------------------------------------------------------------------ *)
(* C18 — fault injection: runtime self-defense (lib/faults).           *)
(* ------------------------------------------------------------------ *)

let c18 () =
  let module F = Stallhide_faults.Faults in
  let module H = Stallhide_faults.Harness in
  let rows =
    List.concat_map
      (fun spec ->
        let fault = F.parse_spec spec in
        List.concat_map
          (fun workload -> H.run ~workload fault)
          [ "pointer-chase"; "hash-probe" ])
      F.fault_names
  in
  Experiment.table ~title:"C18: fault injection — undefended vs runtime self-defense (lib/faults)"
    ~note:
      "each fault at default knobs, seed 42. defended = scheduler watchdog (rogue), \
       attribution-driven de-instrumentation (drift/pebs) or overload protection calibrated \
       off the fault-free p99 (spike). negative hidden cycles = stale yields cost more than \
       they hide"
    ~header:[ "fault"; "workload"; "arm"; "cycles"; "hidden cyc"; "p99"; "p999"; "defense" ]
    (List.map
       (fun (r : H.row) ->
         let fired = List.filter (fun (_, v) -> v > 0) r.H.counters in
         [
           r.H.scenario;
           r.H.workload;
           r.H.arm;
           fi r.H.cycles;
           fi r.H.hidden_cycles;
           fi r.H.latency.Latency.p99;
           fi r.H.latency.Latency.p999;
           (if fired = [] then "-"
            else
              String.concat " "
                (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fired));
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* C19 — lib/smp: multi-core scaling, dispatch policy, stealing.       *)
(* ------------------------------------------------------------------ *)

let c19 () =
  let module S = Stallhide_smp in
  let module D = Stallhide_sched.Dispatch in
  (* harness defaults: sharded kv-server, Zipf(1.1) keys, open-loop
     arrivals with constant per-core offered load, batch scavengers
     enqueued on core 0 *)
  let base = S.Harness.default_params in
  let run ?(policy = D.Jbsq) ?(steal = true) ?(pgo = true) cores =
    S.Harness.run { base with S.Harness.cores; policy; steal; pgo }
  in
  let one = run 1 in
  let one_nopgo = run ~pgo:false 1 in
  let scaled = List.map (fun c -> (c, run c, run ~pgo:false c)) [ 1; 2; 4; 8 ] in
  Experiment.table
    ~title:"C19: multi-core scaling — sharded kv-server, JBSQ + stealing (lib/smp)"
    ~note:
      "shared L3 (16 below-L2 services per 32-cycle window) + cross-core invalidation; \
       per-core offered load held constant, so ideal scaling is Nx throughput"
    ~header:
      [ "cores"; "PGO tput"; "speedup"; "eff"; "noPGO tput"; "noPGO speedup"; "p50"; "p99"; "steals" ]
    (List.map
       (fun (c, r, n) ->
         let s = r.S.Harness.result.S.Machine.summary in
         [
           fi c;
           ff ~decimals:3 r.S.Harness.throughput;
           ff (S.Harness.speedup ~base:one r) ^ "x";
           pct (S.Harness.efficiency ~base:one r);
           ff ~decimals:3 n.S.Harness.throughput;
           ff (S.Harness.speedup ~base:one_nopgo n) ^ "x";
           fi s.Latency.p50;
           fi s.Latency.p99;
           fi r.S.Harness.result.S.Machine.steals;
         ])
       scaled);
  let combos =
    List.map
      (fun (policy, steal) -> (policy, steal, run ~policy ~steal 4))
      [ (D.D_fcfs, false); (D.D_fcfs, true); (D.Jbsq, false); (D.Jbsq, true) ]
  in
  Experiment.table
    ~title:"C19b: dispatch policy x scavenger stealing at 4 cores (Zipf 1.1 keys)"
    ~note:
      "d-FCFS inherits the key skew (the hot shard's queue is the tail); JBSQ steers around \
       it; stealing spreads the core-0 batch backlog either way"
    ~header:[ "policy"; "steal"; "tput"; "p50"; "p99"; "steals"; "l3 inval" ]
    (List.map
       (fun (policy, steal, r) ->
         let s = r.S.Harness.result.S.Machine.summary in
         [
           D.policy_name policy;
           (if steal then "on" else "off");
           ff ~decimals:3 r.S.Harness.throughput;
           fi s.Latency.p50;
           fi s.Latency.p99;
           fi r.S.Harness.result.S.Machine.steals;
           fi r.S.Harness.result.S.Machine.l3.Stallhide_mem.Shared_l3.invalidations;
         ])
       combos);
  (* acceptance scalars, machine-readable *)
  let find_combo p st =
    let _, _, r = List.find (fun (p', st', _) -> p' = p && st' = st) combos in
    r
  in
  let _, r8, _ = List.find (fun (c, _, _) -> c = 8) scaled in
  let jbsq_steal = find_combo D.Jbsq true in
  let dfcfs_nosteal = find_combo D.D_fcfs false in
  let diagnostics r = r.S.Harness.verify_errors + r.S.Harness.verify_warnings in
  Experiment.record "speedup_8core_pgo"
    (Stallhide_util.Json.Float (S.Harness.speedup ~base:one r8));
  Experiment.record "efficiency_8core_pgo"
    (Stallhide_util.Json.Float (S.Harness.efficiency ~base:one r8));
  Experiment.record "p99_jbsq_steal"
    (Stallhide_util.Json.Int jbsq_steal.S.Harness.result.S.Machine.summary.Latency.p99);
  Experiment.record "p99_dfcfs_nosteal"
    (Stallhide_util.Json.Int dfcfs_nosteal.S.Harness.result.S.Machine.summary.Latency.p99);
  Experiment.record "steals_8core" (Stallhide_util.Json.Int r8.S.Harness.result.S.Machine.steals);
  Experiment.record "verify_diagnostics"
    (Stallhide_util.Json.Int
       (List.fold_left
          (fun acc (_, r, n) -> acc + diagnostics r + diagnostics n)
          (List.fold_left (fun acc (_, _, r) -> acc + diagnostics r) 0 combos)
          scaled))

(* ------------------------------------------------------------------ *)
(* C21 — causal ground-truth recovery: `why` vs injected causes.       *)
(* ------------------------------------------------------------------ *)

let c21 () =
  let module Why = Stallhide_why.Why in
  let module Sweep = Stallhide_why.Sweep in
  let module Causal = Stallhide_why.Causal in
  let cases =
    (* workload x injected cause; each must come back ranked #1 within
       its kind under both the mean and the p99 metric *)
    List.concat_map
      (fun wl -> List.map (fun inj -> (wl, inj)) [ "l3"; "dram"; "site" ])
      [ "kv-server"; "hash-join" ]
  in
  let analyze wl inj metric =
    let injection =
      match Why.injection_of_string inj with Ok i -> i | Error msg -> failwith msg
    in
    Why.analyze
      { Why.default_config with Why.workload = wl; seed; metric; injection = Some injection }
  in
  let rows =
    List.map
      (fun (wl, inj) ->
        let a99 = analyze wl inj Sweep.P99 in
        let amean = analyze wl inj Sweep.Mean in
        let truth (a : Why.analysis) = Option.get a.Why.truth in
        let rank a = match (truth a).Why.rank with Some r -> string_of_int r | None -> "-" in
        let contribution (a : Why.analysis) =
          let t = truth a in
          match
            List.find_opt
              (fun (c : Causal.contribution) -> c.Causal.target.Causal.id = t.Why.injected)
              a.Why.causal.Causal.rows
          with
          | Some c -> (Sweep.series_value a.Why.config.Why.metric c.Causal.contribution).Sweep.value
          | None -> nan
        in
        (wl, inj, a99, amean, rank a99, rank amean, contribution a99))
      cases
  in
  Experiment.table
    ~title:"C21: causal ground-truth recovery (`why` ranks the injected cause first)"
    ~note:
      "each row inflates one known cause (whole-run lib/faults spike on a memory level, or \
       extra per-execution stall at the dominant yield site) and re-runs the counterfactual \
       attribution; rank is the injected cause's position within its kind"
    ~header:[ "workload"; "injected"; "id"; "rank(p99)"; "rank(mean)"; "Δp99 (cycles)" ]
    (List.map
       (fun (wl, inj, a99, _amean, r99, rmean, contrib) ->
         [
           wl;
           inj;
           (Option.get a99.Why.truth).Why.injected;
           r99;
           rmean;
           ff contrib;
         ])
       rows);
  let recovered_all =
    List.for_all (fun (_, _, a99, amean, _, _, _) -> Why.recovered a99 && Why.recovered amean) rows
  in
  List.iter
    (fun (wl, inj, a99, amean, _, _, _) ->
      Experiment.record
        (Printf.sprintf "recovered_%s_%s" wl inj)
        (Stallhide_util.Json.Bool (Why.recovered a99 && Why.recovered amean)))
    rows;
  Experiment.record "recovered_all" (Stallhide_util.Json.Bool recovered_all);
  if not recovered_all then
    failwith "C21: an injected ground-truth cause was not ranked #1 by `why`"

(* ------------------------------------------------------------------ *)
(* C22 — placement matrix: profile-free static analysis vs PGO.        *)
(* ------------------------------------------------------------------ *)

let c22_workloads =
  [
    "pointer-chase"; "hash-probe"; "btree"; "array-scan"; "hash-join"; "kv-server";
    "graph-bfs"; "group-by"; "offload";
  ]

let c22_make name ~lanes ~ops =
  match name with
  | "pointer-chase" -> chase ~lanes ~hops:ops ()
  | "hash-probe" -> Hash_probe.make ~lanes ~table_slots:16384 ~ops ~seed ()
  | "btree" -> Btree.make ~lanes ~keys:16384 ~ops ~seed ()
  | "array-scan" -> Array_scan.make ~lanes ~block_words:64 ~ops ~seed ()
  | "hash-join" -> Hash_join.make ~lanes ~build_rows:16384 ~ops ~seed ()
  | "kv-server" -> Kv_server.make ~lanes ~requests:ops ~seed ()
  | "graph-bfs" -> Graph_bfs.make ~lanes ~vertices:(ops * 32) ~degree:4 ~seed ()
  | "group-by" -> Group_by.make ~lanes ~groups:16384 ~tuples:ops ~seed ()
  | "offload" -> Offload.make ~lanes ~ops ~overlap:24 ~seed ()
  | _ -> assert false

let c22 () =
  let lanes = 16 and ops = 300 in
  let matrix =
    List.map
      (fun name ->
        let w () = c22_make name ~lanes ~ops in
        let none = Baselines.run_sequential (w ()) in
        let pgo, _ = Baselines.run_pgo (w ()) in
        let static, _ = Baselines.run_pgo ~placement:Pipeline.Static (w ()) in
        let hybrid, _ = Baselines.run_pgo ~placement:Pipeline.Hybrid (w ()) in
        (name, none, pgo, static, hybrid))
      c22_workloads
  in
  let gain (m : Metrics.t) (none : Metrics.t) = m.Metrics.throughput -. none.Metrics.throughput in
  Experiment.table
    ~title:"C22: yield-placement evidence — PGO profile vs static must/may analysis vs hybrid"
    ~note:
      "same pipeline, three evidence sources: PGO = sampled profile (needs a training run); \
       static = must/may cache classification + taint priors (no profiling run at all); \
       hybrid = profile with proven always-hit/always-miss overrides. gain = throughput over \
       sequential; ratio = static gain / PGO gain"
    ~header:
      [ "workload"; "seq tput"; "PGO"; "static"; "hybrid"; "static/PGO gain"; "hybrid>=PGO" ]
    (List.map
       (fun (name, none, pgo, static, hybrid) ->
         let gp = gain pgo none and gs = gain static none and gh = gain hybrid none in
         [
           name;
           ff ~decimals:3 none.Metrics.throughput;
           ff ~decimals:3 pgo.Metrics.throughput;
           ff ~decimals:3 static.Metrics.throughput;
           ff ~decimals:3 hybrid.Metrics.throughput;
           (if gp > 1e-9 then pct (gs /. gp) else "-");
           (if gh >= gp -. 1e-9 then "yes" else "NO");
         ])
       matrix);
  (* Drift: train PGO on the full working set, deploy against an 8x
     smaller one (the PR-3 stale-profile scenario). The static build
     never saw a training run, so there is nothing to go stale. *)
  let module H = Stallhide_faults.Harness in
  let shrink = 32 in
  let drift_rows =
    List.map
      (fun workload ->
        let train = H.make ~workload ~lanes:8 ~ops:1000 ~manual:false ~seed:42 ~ws_scale:1 () in
        let _, inst = Pipeline.place train in
        let drifted () =
          H.make ~workload ~lanes:8 ~ops:1000 ~manual:false ~seed:42 ~ws_scale:shrink ()
        in
        let seq = Baselines.run_sequential ~label:(workload ^ "/drifted-seq") (drifted ()) in
        let stale =
          Baselines.run_round_robin ~label:(workload ^ "/stale-pgo")
            (Workload.with_program (drifted ()) inst.Pipeline.program)
        in
        let fresh, _ = Baselines.run_pgo ~label:(workload ^ "/fresh-pgo") (drifted ()) in
        let static, _ =
          Baselines.run_pgo ~label:(workload ^ "/static") ~placement:Pipeline.Static (drifted ())
        in
        (workload, seq, stale, fresh, static))
      [ "pointer-chase"; "hash-probe" ]
  in
  Experiment.table
    ~title:
      (Printf.sprintf "C22b: placement under profile drift (working set shrunk %dx after training)"
         shrink)
    ~note:
      "stale = the binary instrumented from the full-working-set profile, deployed after the \
       shrink (its yields now fire on hits); fresh = re-profiled after the shrink (the \
       expensive fix); static = profile-free placement, immune to drift by construction"
    ~header:[ "workload"; "seq tput"; "stale PGO"; "fresh PGO"; "static"; "static vs stale" ]
    (List.map
       (fun (workload, seq, stale, fresh, static) ->
         [
           workload;
           ff ~decimals:3 seq.Metrics.throughput;
           ff ~decimals:3 stale.Metrics.throughput;
           ff ~decimals:3 fresh.Metrics.throughput;
           ff ~decimals:3 static.Metrics.throughput;
           ff (static.Metrics.throughput /. stale.Metrics.throughput) ^ "x";
         ])
       drift_rows);
  (* acceptance scalars, machine-readable *)
  let ratio_floor = 0.6 in
  let static_ok =
    List.for_all
      (fun (_, none, pgo, static, _) ->
        let gp = gain pgo none and gs = gain static none in
        (* workloads PGO itself barely helps (compute-bound shapes) are
           judged on absolute loss instead of the ratio *)
        gp <= 0.05 *. none.Metrics.throughput || gs >= ratio_floor *. gp)
      matrix
  in
  let hybrid_ok =
    List.for_all
      (fun (_, none, pgo, _, hybrid) -> gain hybrid none >= gain pgo none -. 1e-9)
      matrix
  in
  let drift_ok =
    List.for_all
      (fun (_, _, stale, _, static) ->
        static.Metrics.throughput >= stale.Metrics.throughput)
      drift_rows
  in
  List.iter
    (fun (name, none, pgo, static, hybrid) ->
      let gp = gain pgo none in
      Experiment.record
        (Printf.sprintf "static_gain_ratio_%s" name)
        (if gp > 1e-9 then Stallhide_util.Json.Float (gain static none /. gp)
         else Stallhide_util.Json.Null);
      Experiment.record
        (Printf.sprintf "hybrid_gain_ratio_%s" name)
        (if gp > 1e-9 then Stallhide_util.Json.Float (gain hybrid none /. gp)
         else Stallhide_util.Json.Null))
    matrix;
  Experiment.record "static_ge_60pct_pgo" (Stallhide_util.Json.Bool static_ok);
  Experiment.record "hybrid_ge_pgo" (Stallhide_util.Json.Bool hybrid_ok);
  Experiment.record "static_beats_stale_pgo" (Stallhide_util.Json.Bool drift_ok);
  if not static_ok then failwith "C22: static placement under 60% of PGO gain";
  if not hybrid_ok then failwith "C22: hybrid placement lost to plain PGO";
  if not drift_ok then failwith "C22: static placement lost to a stale PGO binary under drift"

(* ------------------------------------------------------------------ *)
(* C23 — fault-tolerant cluster serving (lib/net + lib/cluster).       *)
(* ------------------------------------------------------------------ *)

let c23 () =
  let module CH = Stallhide_cluster.Harness in
  let module Cl = Stallhide_cluster.Cluster in
  let module S = Stallhide_smp in
  let module F = Stallhide_faults.Faults in
  let machines = 4 and cores = 8 in
  let base =
    {
      CH.default_params with
      CH.machines;
      cores;
      requests = 256;
      seed;
    }
  in
  (* Capacity: saturate the cluster (every request arrives immediately)
     and read the work-bound goodput; offered-load points are fractions
     of it. *)
  let cap = CH.run { base with CH.interarrival = 1 } in
  let at_load frac =
    (* mean cluster-wide gap for offered rate frac * capacity *)
    let gap = 1000.0 /. (frac *. cap.CH.goodput_rpk) in
    { base with CH.interarrival = int_of_float (gap *. float_of_int (machines * cores)) }
  in
  let p70 = at_load 0.70 in
  let defense, slo = CH.calibrate p70 in
  let p70 = { p70 with CH.slo_deadline = slo } in
  (* crash+slow-node mix: machine 0 crashes mid-trace and restarts a
     fresh replica; machine 1 serves with 6x L3/DRAM latency throughout *)
  let mix p =
    let last_send =
      List.fold_left (fun acc (s : Cl.spec) -> max acc s.Cl.send) 0 (CH.trace p)
    in
    [
      F.Crash { machine = 0; at = 50; percent = true; down = last_send / 4 };
      F.Slownode { machine = 1; mult = 6 };
    ]
  in
  let arm ~faults ~defended p =
    CH.run
      { p with CH.faults; defense = (if defended then Some defense else None) }
  in
  let loads = [ (0.5, at_load 0.5); (0.7, p70); (0.9, at_load 0.9); (1.1, at_load 1.1) ] in
  let rows =
    List.map
      (fun (frac, p) ->
        let p = { p with CH.slo_deadline = slo } in
        let ff_ = arm ~faults:[] ~defended:false p in
        let und = arm ~faults:(mix p) ~defended:false p in
        let def = arm ~faults:(mix p) ~defended:true p in
        (frac, ff_, und, def))
      loads
  in
  let full r = r.CH.result.Cl.split.Latency.full in
  let dropped r = r.CH.result.Cl.split.Latency.dropped in
  Experiment.table
    ~title:"C23: cluster tail latency vs offered load — crash + slow-node mix (lib/cluster)"
    ~note:
      "4 machines x 8 cores, P2c LB; mix = machine 0 crashes at 50% of the trace (restarts \
       after a quarter-trace outage), machine 1 at 6x L3/DRAM latency; dropped requests \
       censored at the SLO deadline, so shedding cannot flatter the tail"
    ~header:[ "load"; "arm"; "acked"; "dropped"; "p50"; "p99"; "p999"; "retries"; "hedges" ]
    (List.concat_map
       (fun (frac, ff_, und, def) ->
         List.map
           (fun (label, r) ->
             let c k = try List.assoc k r.CH.result.Cl.counters with Not_found -> 0 in
             [
               pct frac;
               label;
               fi r.CH.result.Cl.acked;
               fi (dropped r);
               fi (full r).Latency.p50;
               fi (full r).Latency.p99;
               fi (full r).Latency.p999;
               fi (c "client.retries");
               fi (c "client.hedges");
             ])
           [ ("fault-free", ff_); ("undefended", und); ("defended", def) ])
       rows);
  (* stall-hiding retention: PGO gain at cluster scale vs the same gain
     on one 8-core machine, at matched per-core composition (48
     requests/core, the C19 default) and the same per-core offered
     load, so dilution could only come from the network/LB layer *)
  let one = S.Harness.run { S.Harness.default_params with S.Harness.cores } in
  let one_nopgo =
    S.Harness.run { S.Harness.default_params with S.Harness.cores; pgo = false }
  in
  let matched =
    {
      base with
      CH.requests = S.Harness.default_params.S.Harness.requests_per_core * cores * machines;
      interarrival = S.Harness.default_params.S.Harness.interarrival;
    }
  in
  let cl = CH.run matched in
  let cl_nopgo = CH.run { matched with CH.pgo = false } in
  let gain_single = one.S.Harness.throughput /. one_nopgo.S.Harness.throughput in
  let gain_cluster = cl.CH.goodput_rpk /. cl_nopgo.CH.goodput_rpk in
  let retention = (gain_cluster -. 1.0) /. (gain_single -. 1.0) in
  Experiment.table
    ~title:"C23b: stall-hiding gain at cluster scale"
    ~note:
      "PGO-instrumented vs uninstrumented serving; 48 requests/core at the C19 offered load \
       in both setups, so any gap is the network/LB layer's doing"
    ~header:[ "setup"; "noPGO tput"; "PGO tput"; "gain" ]
    [
      [
        "1 machine x 8 cores";
        ff ~decimals:3 one_nopgo.S.Harness.throughput;
        ff ~decimals:3 one.S.Harness.throughput;
        ff gain_single ^ "x";
      ];
      [
        "4 machines x 8 cores";
        ff ~decimals:3 cl_nopgo.CH.goodput_rpk;
        ff ~decimals:3 cl.CH.goodput_rpk;
        ff gain_cluster ^ "x";
      ];
    ];
  (* replay determinism across the full defended mix *)
  let _, _, _, def70 = List.find (fun (frac, _, _, _) -> frac = 0.7) rows in
  let def70' = arm ~faults:(mix p70) ~defended:true p70 in
  let identical =
    def70.CH.result.Cl.cycles = def70'.CH.result.Cl.cycles
    && def70.CH.result.Cl.acked = def70'.CH.result.Cl.acked
    && (full def70).Latency.p99 = (full def70').Latency.p99
  in
  (* the cluster fuzz oracle, end to end *)
  let module O = Stallhide_check.Oracle in
  let module G = Stallhide_check.Gen in
  let oracle_failures =
    List.length
      (List.filter
         (fun s ->
           match O.check_case O.Cluster (G.case ~seed:s ()) with
           | O.Pass | O.Invalid _ -> false
           | O.Counterexample _ -> true)
         (List.init 10 (fun i -> i + 1)))
  in
  (* acceptance scalars, machine-readable *)
  let _, ff70, und70, d70 = List.find (fun (frac, _, _, _) -> frac = 0.7) rows in
  let ff_p99 = max 1 (full ff70).Latency.p99 in
  let und_ratio = float_of_int (full und70).Latency.p99 /. float_of_int ff_p99 in
  let def_ratio = float_of_int (full d70).Latency.p99 /. float_of_int ff_p99 in
  let lost =
    List.fold_left
      (fun acc (_, a, b, c) ->
        acc + a.CH.result.Cl.lost_acked + b.CH.result.Cl.lost_acked + c.CH.result.Cl.lost_acked)
      0 rows
  in
  Experiment.record "p99_ratio_defended_mix_70" (Stallhide_util.Json.Float def_ratio);
  Experiment.record "p99_ratio_undefended_mix_70" (Stallhide_util.Json.Float und_ratio);
  Experiment.record "lost_acked_total" (Stallhide_util.Json.Int lost);
  Experiment.record "stallhide_gain_single_8core" (Stallhide_util.Json.Float gain_single);
  Experiment.record "stallhide_gain_cluster_4x8" (Stallhide_util.Json.Float gain_cluster);
  Experiment.record "stallhide_retention" (Stallhide_util.Json.Float retention);
  Experiment.record "replay_deterministic" (Stallhide_util.Json.Bool identical);
  Experiment.record "cluster_oracle_failures" (Stallhide_util.Json.Int oracle_failures);
  if def_ratio > 3.0 then
    failwith
      (Printf.sprintf "C23: defended p99 %.2fx fault-free under the mix (bound: 3x)" def_ratio);
  if und_ratio <= 10.0 then
    failwith
      (Printf.sprintf "C23: undefended p99 only %.2fx fault-free — the mix has no teeth"
         und_ratio);
  if lost > 0 then
    failwith (Printf.sprintf "C23: %d acked request(s) lost across failover" lost);
  if retention < 0.5 then
    failwith
      (Printf.sprintf "C23: cluster retains only %.0f%% of the single-machine stall-hiding gain"
         (100.0 *. retention));
  if not identical then failwith "C23: defended mix replay diverged under equal seeds";
  if oracle_failures > 0 then
    failwith (Printf.sprintf "C23: %d cluster fuzz-oracle counterexample(s)" oracle_failures)

(* ------------------------------------------------------------------ *)
(* C24 — CoroBase-style transaction engine (lib/txn).                  *)
(* ------------------------------------------------------------------ *)

let c24 () =
  let module R = Stallhide_txn.Runner in
  let module L = Latency in
  let modes = [ R.Seq; R.Interleaved; R.Interleaved_pgo ] in
  let p = { R.default_params with R.seed } in
  let p99 (m : Metrics.t) =
    match m.Metrics.latency with Some s -> s.L.p99 | None -> 0
  in
  let p50 (m : Metrics.t) =
    match m.Metrics.latency with Some s -> s.L.p50 | None -> 0
  in
  let row mix (o : R.outcome) =
    let m = o.R.metrics in
    let c = o.R.counters in
    [
      R.mode_to_string o.R.mode;
      fi mix;
      fi m.Metrics.cycles;
      ff ~decimals:3 m.Metrics.throughput;
      fi (p50 m);
      fi (p99 m);
      fi c.R.commits;
      fi c.R.aborts;
      fi c.R.latch_waits;
      Printf.sprintf "%d/%d" c.R.group_prefetch_hits c.R.lookups;
    ]
  in
  (* batch-of-gets (the CoroBase multi-get headline) and a 50% multi-put
     mix, all three modes on one core *)
  let gets = List.map (fun m -> R.run m p) modes in
  let mixed = List.map (fun m -> R.run m { p with R.mix = 50 }) modes in
  Experiment.table
    ~title:"C24: transaction engine — sequential vs interleaved vs interleaved+PGO (1 core)"
    ~note:
      "K=8 in-flight transaction coroutines, 96 txns each, batch=4 Zipfian keys over an \
       8192-key latched table; tput is index ops/kcycle, latency is per-transaction (commit \
       opmark); gph = lookups answered by the group-prefetched home slot"
    ~header:
      [ "mode"; "mix%"; "cycles"; "tput"; "p50"; "p99"; "commits"; "aborts"; "waits"; "gph" ]
    (List.map (row 0) gets @ List.map (row 50) mixed);
  (* the lib/smp machine: one transaction per request, per-core tables,
     scan scavengers under the interleaved modes *)
  let cores = 4 in
  let smp_p = { p with R.txns = 48 } in
  let smp = List.map (fun m -> (m, R.run_smp ~cores m smp_p)) modes in
  Experiment.table
    ~title:(Printf.sprintf "C24b: transaction engine on the %d-core machine" cores)
    ~note:
      "one transaction per request (sojourn = per-txn latency), 48 requests/core with \
       staggered arrivals, per-core table instances, 2 analytics-scan scavengers/core in \
       the interleaved modes; a core serves one transaction at a time (FIFO), so the \
       dual-mode win here is scan dispatches into transaction stall windows, not request \
       throughput; interleaved-pgo instruments once and rebinds per core"
    ~header:
      [ "mode"; "cycles"; "txn/kcyc"; "p50"; "p99"; "p999"; "commits"; "waits"; "scav disp" ]
    (List.map
       (fun ((m : R.mode), (o : R.smp_outcome)) ->
         [
           R.mode_to_string m;
           fi o.R.cycles;
           ff ~decimals:3 o.R.txn_throughput;
           fi o.R.summary.L.p50;
           fi o.R.summary.L.p99;
           fi o.R.summary.L.p999;
           fi o.R.smp_counters.R.commits;
           fi o.R.smp_counters.R.latch_waits;
           fi o.R.scav_dispatches;
         ])
       smp);
  let tput mode runs =
    let o = List.find (fun (o : R.outcome) -> o.R.mode = mode) runs in
    o.R.metrics.Metrics.throughput
  in
  Experiment.record "gets_seq_tput" (Stallhide_util.Json.Float (tput R.Seq gets));
  Experiment.record "gets_interleaved_tput" (Stallhide_util.Json.Float (tput R.Interleaved gets));
  Experiment.record "gets_pgo_tput" (Stallhide_util.Json.Float (tput R.Interleaved_pgo gets));
  (* the claims under test: interleaving beats sequential on
     batch-of-gets, and the pipeline's group prefetching beats the
     per-key expert annotation *)
  if tput R.Interleaved gets <= tput R.Seq gets then
    failwith "C24: interleaved transactions did not beat sequential on batch-of-gets";
  if tput R.Interleaved_pgo gets <= tput R.Interleaved gets then
    failwith "C24: interleaved+PGO did not beat the manual interleaving";
  if tput R.Interleaved_pgo gets <= tput R.Seq gets then
    failwith "C24: interleaved+PGO did not beat sequential";
  let smp_of mode = snd (List.find (fun ((m : R.mode), _) -> m = mode) smp) in
  List.iter
    (fun ((m : R.mode), (o : R.smp_outcome)) ->
      if o.R.smp_counters.R.commits <> cores * smp_p.R.txns then
        failwith
          (Printf.sprintf "C24b: %s committed %d of %d transactions" (R.mode_to_string m)
             o.R.smp_counters.R.commits (cores * smp_p.R.txns)))
    smp;
  (* dual-mode on the machine: the interleaved modes must actually fill
     transaction stall windows with scan work, and may cost at most 15%
     of sequential request throughput for it *)
  List.iter
    (fun mode ->
      let o = smp_of mode in
      if o.R.scav_dispatches = 0 then
        failwith
          (Printf.sprintf "C24b: no scavenger dispatches under %s" (R.mode_to_string mode));
      if o.R.txn_throughput < 0.85 *. (smp_of R.Seq).R.txn_throughput then
        failwith
          (Printf.sprintf "C24b: %s retains under 85%% of sequential txn throughput"
             (R.mode_to_string mode)))
    [ R.Interleaved; R.Interleaved_pgo ]

(* ------------------------------------------------------------------ *)
(* C25 — engine speed: decoded-uop fast loop vs reference interpreter. *)
(* ------------------------------------------------------------------ *)

(* Simulated-cycles/sec of the pre-fast-path engine on this workload,
   measured from the seed tree (commit e9510b7) on the reference dev
   box: 45,724,394 core-cycles in ~0.88 s. Absolute host-dependent
   number — the CI gate below compares the two in-run arms against
   each other, not against this. *)
let c25_seed_cps = 52.0e6

let c25 () =
  let module S = Stallhide_smp in
  let module M = S.Machine in
  (* The C19 kv-server configuration scaled up (4 cores, 4096
     requests/core, ~46M simulated cycles) so the run is long enough
     to time. [reference] is the pre-PR engine shape: boxed-instruction
     interpreter with the per-core dispatch tracer on. [fast] is the
     decoded-uop zero-alloc loop with tracing off. Identical simulated
     machine either way — the arms must agree bit-for-bit. *)
  let base =
    { S.Harness.default_params with S.Harness.cores = 4; requests_per_core = 4096 }
  in
  let arm ~fast =
    let p = { base with S.Harness.trace = not fast; engine_fast = fast } in
    (* best-of-3 wall clock: the simulation is deterministic, the host
       is not *)
    let best = ref infinity and result = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let r = S.Harness.run p in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    let r = match !result with Some r -> r | None -> assert false in
    (r, !best)
  in
  let fingerprint (r : S.Harness.run) =
    let tot f =
      Array.fold_left (fun a (c : M.core_result) -> a + f c) 0 r.S.Harness.result.M.per_core
    in
    ( tot (fun c -> c.M.cycles),
      tot (fun c -> c.M.mem.Stallhide_mem.Mem_stats.demand_accesses),
      tot (fun c -> c.M.stats.Stallhide_runtime.Core_sched.switches),
      r.S.Harness.result.M.completed )
  in
  let rref, wall_ref = arm ~fast:false in
  let rfast, wall_fast = arm ~fast:true in
  let ((cyc_ref, _, _, _) as fp_ref) = fingerprint rref in
  let fp_fast = fingerprint rfast in
  if fp_ref <> fp_fast then failwith "C25: fast and reference arms diverged";
  let cps wall = float_of_int cyc_ref /. wall in
  let ref_cps = cps wall_ref and fast_cps = cps wall_fast in
  let speedup = fast_cps /. ref_cps in
  Experiment.table
    ~title:"C25: engine speed — decoded-uop fast loop vs reference interpreter (C19 config)"
    ~note:
      "same simulated machine both arms (4-core kv-server, 4096 req/core); arms verified \
       bit-identical on core-cycles, demand accesses, switches and completions before \
       timing is reported; fast = uop cache + Bigarray register file + zero-alloc step \
       loop, tracing off; cycles/sec is host-dependent — the ratio is the result"
    ~header:[ "arm"; "wall s"; "sim cycles"; "Mcyc/s"; "vs reference" ]
    [
      [ "reference"; ff ~decimals:3 wall_ref; fi cyc_ref; ff (ref_cps /. 1e6); "1.00x" ];
      [ "fast"; ff ~decimals:3 wall_fast; fi cyc_ref; ff (fast_cps /. 1e6); ff speedup ^ "x" ];
    ];
  Experiment.record "sim_cycles" (Stallhide_util.Json.Int cyc_ref);
  Experiment.record "reference_cps" (Stallhide_util.Json.Float ref_cps);
  Experiment.record "fast_cps" (Stallhide_util.Json.Float fast_cps);
  Experiment.record "speedup" (Stallhide_util.Json.Float speedup);
  Experiment.record "seed_cps_recorded" (Stallhide_util.Json.Float c25_seed_cps);
  (* regression gate: the fast loop must actually be a fast loop. The
     threshold is deliberately below the ~4.5x measured in the dev
     profile so CI noise on shared runners does not flap the build; a
     real regression (fast path silently disengaging, alloc creep)
     lands near 1.0x. *)
  if speedup < 1.35 then
    failwith (Printf.sprintf "C25: engine speedup %.2fx below the 1.35x regression floor" speedup)

(* ------------------------------------------------------------------ *)
(* C26 — host ns per memory-hierarchy call.                           *)
(* ------------------------------------------------------------------ *)

type c26_call = Access | Prefetch | Probe

let c26_calls = 1 lsl 20

(* The timed loops: only the call, the address fetch and the clock.
   An access advances the clock by its latency, as a blocking core
   would; a prefetch or probe by one cycle. The sum keeps the results
   live and is checked against the untimed pass. *)
let c26_loop call h ~now addrs =
  let now = ref now and sum = ref 0 in
  (match call with
  | Access ->
      for i = 0 to Array.length addrs - 1 do
        let l = Hierarchy.access_latency h ~now:!now (Array.unsafe_get addrs i) in
        now := !now + l;
        sum := !sum + l
      done
  | Prefetch ->
      for i = 0 to Array.length addrs - 1 do
        Hierarchy.prefetch h ~now:!now (Array.unsafe_get addrs i);
        incr now
      done
  | Probe ->
      for i = 0 to Array.length addrs - 1 do
        sum := !sum + Hierarchy.resident_code h ~now:!now (Array.unsafe_get addrs i);
        incr now
      done);
  !sum

let c26 () =
  let random k ~bytes n =
    let r = Random.State.make [| seed; k |] in
    Array.init n (fun _ -> Random.State.int r (bytes / 8) * 8)
  in
  let n = c26_calls and mib = 1 lsl 20 in
  (* name, call, untimed warm-up accesses, timed addresses *)
  let streams =
    [
      ("L1 hits cycling over 64 lines", Access, [||], fun () -> Array.init n (fun i -> i land 63 * 64));
      ("random L1 hits in 8 KiB", Access, [||], fun () -> random 1 ~bytes:8192 n);
      ("random L2/L3 hits in 256 KiB", Access, [||], fun () -> random 2 ~bytes:(256 * 1024) n);
      ("random DRAM-level lines over 64 MiB", Access, [||], fun () -> random 3 ~bytes:(64 * mib) n);
      ("a new line every access", Access, [||], fun () -> Array.init n (fun i -> i * 64));
      ("random prefetches over 64 MiB", Prefetch, [||], fun () -> random 4 ~bytes:(64 * mib) n);
      ( "residency probes in 1 MiB, warm",
        Probe,
        random 5 ~bytes:mib 65536,
        fun () -> random 6 ~bytes:mib n );
    ]
  in
  let fresh warm =
    let h = Hierarchy.create Memconfig.default in
    let now = c26_loop Access h ~now:0 warm in
    (h, now)
  in
  let row (name, call, warm, addrs) =
    let addrs = addrs () in
    (* Untimed pass: what each call returned, where it was served
       ([last_level]; a probe's own code, absent counted as DRAM), and
       a checksum of (result, level, queued) per call. *)
    let h, now0 = fresh warm in
    let levels = Array.make 4 0 and sum = ref 0 and check = ref 0 and now = ref now0 in
    Array.iter
      (fun a ->
        let r, level =
          match call with
          | Access ->
              let l = Hierarchy.access_latency h ~now:!now a in
              now := !now + l;
              (l, Hierarchy.last_level h)
          | Prefetch ->
              Hierarchy.prefetch h ~now:!now a;
              incr now;
              (0, Hierarchy.last_level h)
          | Probe ->
              let c = Hierarchy.resident_code h ~now:!now a in
              incr now;
              (c, if c < 0 then 3 else c)
        in
        sum := !sum + r;
        levels.(level) <- levels.(level) + 1;
        check := Hashtbl.hash (!check, r, level, Hierarchy.last_queued h))
      addrs;
    let best = ref infinity in
    for _ = 1 to 5 do
      let h, now = fresh warm in
      let t0 = Unix.gettimeofday () in
      let got = c26_loop call h ~now addrs in
      let dt = Unix.gettimeofday () -. t0 in
      if got <> !sum then failwith (Printf.sprintf "C26: %s: timed pass diverged" name);
      if dt < !best then best := dt
    done;
    [
      name;
      fi n;
      fi levels.(0);
      fi levels.(1);
      fi levels.(2);
      fi levels.(3);
      fi !sum;
      Printf.sprintf "%08x" !check;
      ff ~decimals:1 (!best *. 1e9 /. float_of_int n);
    ]
  in
  Experiment.table ~title:"C26: host ns per memory-hierarchy call (Memconfig.default, fresh hierarchy)"
    ~note:
      "seeded streams; level = Hierarchy.last_level after an access or prefetch (a prefetch \
       that finds its line in L1 leaves it unchanged), resident_code for a probe (absent \
       counted as DRAM); sum adds the results (latencies, probe codes); check folds \
       (result, level, queued) per call; ns/call is best of 5 \
       timed passes on a fresh hierarchy, each checked against the untimed pass"
    ~header:[ "stream"; "calls"; "L1"; "L2"; "L3"; "DRAM"; "sum"; "check"; "ns/call" ]
    (List.map row streams)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("F1", f1);
    ("C2", c2);
    ("C3", c3);
    ("C4", c4);
    ("C5", c5);
    ("C6", c6);
    ("C7", c7);
    ("C8", c8);
    ("C9", c9);
    ("C10", c10);
    ("C11", c11);
    ("C12", c12);
    ("C13", c13);
    ("C14", c14);
    ("C15", c15);
    ("C16", c16);
    ("C17", c17);
    ("C18", c18);
    ("C19", c19);
    ("C21", c21);
    ("C22", c22);
    ("C23", c23);
    ("C24", c24);
    ("C25", c25);
    ("C26", c26);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split ids json_out = function
    | "--json-out" :: path :: rest -> split ids (Some path) rest
    | a :: rest -> split (a :: ids) json_out rest
    | [] -> (List.rev ids, json_out)
  in
  let requested, json_out = split [] None args in
  let json_path = match json_out with Some p -> p | None -> "BENCH_results.json" in
  let selected =
    match requested with
    | [] -> experiments
    | ids ->
        List.filter (fun (id, _) -> List.exists (String.equal id) ids) experiments
  in
  if selected = [] then begin
    prerr_endline "unknown experiment id; available:";
    List.iter (fun (id, _) -> prerr_endline ("  " ^ id)) experiments;
    exit 1
  end;
  List.iter
    (fun (id, f) ->
      Experiment.group id;
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      Experiment.record "wall_seconds" (Stallhide_util.Json.Float dt);
      Printf.printf "   [%s finished in %.1fs]\n%!" id dt)
    selected;
  Experiment.write_json ~path:json_path;
  (* Every instrumented binary above went through the fail-fast
     translation validator in Pipeline.instrument — reaching this line
     means all of them were verifier-clean (a rejection would have
     aborted the run with Verify.Rejected). *)
  Printf.printf
    "all instrumented binaries translation-validated (lib/verify); results written to %s\n%!"
    json_path
