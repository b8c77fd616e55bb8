open Stallhide_workloads
module Json = Stallhide_util.Json
module Hierarchy = Stallhide_mem.Hierarchy
module Memconfig = Stallhide_mem.Memconfig
module Engine = Stallhide_cpu.Engine
module Latency = Stallhide_runtime.Latency
module Scheduler = Stallhide_runtime.Scheduler
module Switch_cost = Stallhide_runtime.Switch_cost
module Context = Stallhide_cpu.Context
module Faults = Stallhide_faults.Faults
module Sweep = Stallhide_obs.Sweep
module Causal = Stallhide_obs.Causal
module Critical_path = Stallhide_obs.Critical_path
module Stream = Stallhide_obs.Stream
module Attribution = Stallhide_obs.Attribution
module Dispatch = Stallhide_sched.Dispatch
module Machine = Stallhide_smp.Machine
module Harness = Stallhide_smp.Harness
module Pipeline = Stallhide.Pipeline

type injection =
  | Level_spike of { l3_mult : int; dram_mult : int }
  | Site_load of { extra : int }

let injection_name = function
  | Level_spike { l3_mult; dram_mult } -> Printf.sprintf "spike:l3=%d,dram=%d" l3_mult dram_mult
  | Site_load { extra } -> Printf.sprintf "site:+%d" extra

let injection_of_string s =
  match String.lowercase_ascii (String.trim s) with
  (* The L3 multiplier must push the spiked latency past what the
     instrumented runtime can hide by interleaving (~(lanes-1) *
     (switch + compute) cycles per miss): an 8x L3 spike (400 cycles)
     is still absorbed by the yields — the causal table correctly
     reports it as near-harmless — so it is useless as a recoverable
     ground truth. 16x (800 cycles) leaves a residual no schedule can
     hide. DRAM at 8x (1600 cycles) is far past the envelope already. *)
  | "l3" -> Ok (Level_spike { l3_mult = 16; dram_mult = 1 })
  | "dram" -> Ok (Level_spike { l3_mult = 1; dram_mult = 8 })
  | "site" -> Ok (Site_load { extra = 300 })
  | low when String.length low >= 6 && String.sub low 0 6 = "spike:" -> (
      match Faults.parse_spec s with
      | Faults.Spike { l3_mult; dram_mult; _ } -> Ok (Level_spike { l3_mult; dram_mult })
      | _ -> Error (Printf.sprintf "%S is not a spike fault" s)
      | exception Invalid_argument msg -> Error msg
      | exception Failure msg -> Error msg)
  | _ -> Error (Printf.sprintf "unknown injection %S (expected l3 | dram | site | spike:...)" s)

type config = {
  workload : string;
  lanes : int;
  ops : int;
  seed : int;
  repeats : int;
  metric : Sweep.metric;
  injection : injection option;
}

let default_config =
  {
    workload = "kv-server";
    lanes = 8;
    ops = 1000;
    seed = 42;
    repeats = 3;
    metric = Sweep.P99;
    injection = None;
  }

let workload_names =
  [
    "pointer-chase"; "hash-probe"; "btree"; "array-scan"; "hash-join"; "kv-server"; "graph-bfs";
    "group-by"; "offload"; "txn-oltp";
  ]

let make_workload name ~lanes ~ops ~manual ~seed =
  match name with
  | "pointer-chase" -> Pointer_chase.make ~manual ~lanes ~nodes_per_lane:2048 ~hops:ops ~seed ()
  | "hash-probe" -> Hash_probe.make ~manual ~lanes ~table_slots:16384 ~ops ~seed ()
  | "btree" -> Btree.make ~manual ~lanes ~keys:16384 ~ops ~seed ()
  | "array-scan" -> Array_scan.make ~manual ~lanes ~block_words:64 ~ops ~seed ()
  | "hash-join" -> Hash_join.make ~manual ~lanes ~build_rows:16384 ~ops ~seed ()
  (* cache-resident hot table (the SMP harness's shard-table size):
     the default 512 KiB table is exactly the L3, which starves the L3
     of hits and makes level attribution degenerate *)
  | "kv-server" -> Kv_server.make ~manual ~lanes ~table_slots:4096 ~requests:ops ~seed ()
  | "graph-bfs" -> Graph_bfs.make ~manual ~lanes ~vertices:(ops * 32) ~degree:4 ~seed ()
  | "group-by" -> Group_by.make ~manual ~lanes ~groups:16384 ~tuples:ops ~seed ()
  | "offload" -> Offload.make ~manual ~lanes ~ops ~overlap:24 ~seed ()
  (* one transaction is a multi-key batch (~10x the per-op work of the
     flat workloads), so scale the op budget down to keep the
     counterfactual re-runs affordable; lanes is K, the in-flight
     transaction coroutines *)
  | "txn-oltp" ->
      Stallhide_txn.Txn_oltp.workload ~manual ~lanes ~txns:(max 1 (ops / 10)) ~keys:4096
        ~seed ()
  | other -> invalid_arg ("Why.make_workload: unknown workload " ^ other)

type ground_truth = { injected : string; rank : int option }

type analysis = { config : config; causal : Causal.report; truth : ground_truth option }

(* ---- shared plumbing ---------------------------------------------- *)

let sample_of_summary (s : Latency.summary) : Sweep.sample =
  {
    Sweep.count = s.Latency.count;
    mean = s.mean;
    p50 = s.p50;
    p90 = s.p90;
    p99 = s.p99;
    p999 = s.p999;
    max = s.max;
  }

(* A whole-run spike: the [Faults] window machinery with the window
   opened at cycle 0 and never closed. *)
let spike_fault ~l3_mult ~dram_mult =
  Faults.Spike { at = 0; duration = max_int / 2; l3_mult; dram_mult }

(* The instrumented program is built once per analysis: the program
   text is seed-invariant (only image contents and register inits
   depend on the seed), so yield-site pcs are stable across repeated
   seeds and the site targets stay comparable. *)
type prepared = {
  program : Stallhide_isa.Program.t;
  orig_of_new : int array;
  sites : (int * Stallhide_isa.Instr.yield_kind * int list) list;
}

let prepare cfg =
  let wl = make_workload cfg.workload ~lanes:cfg.lanes ~ops:cfg.ops ~manual:false ~seed:cfg.seed in
  let _, inst = Pipeline.place wl in
  let sites =
    Attribution.covering_sites inst.Pipeline.program ~orig_of_new:inst.Pipeline.orig_of_new
      ~selected:inst.Pipeline.primary.selected
  in
  { program = inst.Pipeline.program; orig_of_new = inst.Pipeline.orig_of_new; sites }

(* [pc] seen by the engine is an instrumented pc; site membership is
   defined over the original pcs the site covers. Returns the
   instrumented pcs that map to one of [covered]. *)
let covered_pcs prepared covered =
  let oon = prepared.orig_of_new in
  List.filter (fun pc -> List.mem oon.(pc) covered) (List.init (Array.length oon) Fun.id)

(* One deterministic single-core run: rebuild the image at [seed],
   rebind the prepared program, arm the injection (spike on the
   hierarchy, extra stall at the injected site's loads), then apply the
   counterfactual under test (zero one level, or zero one site's
   residual stall). Both stall edits are one per-pc shape table, so the
   run stays on the µop loop. *)
let run_single cfg prepared ?(memcfg = Memconfig.default) ?lanes ~seed ~zero_level
    ~zero_site ~inject_site () =
  let lanes = Option.value lanes ~default:cfg.lanes in
  let wl = make_workload cfg.workload ~lanes ~ops:cfg.ops ~manual:false ~seed in
  let wl = Workload.with_program wl prepared.program in
  let hier = Hierarchy.create memcfg in
  (match cfg.injection with
  | Some (Level_spike { l3_mult; dram_mult }) ->
      Faults.prepare_hier (spike_fault ~l3_mult ~dram_mult) hier
  | _ -> ());
  (match zero_level with Some l -> Hierarchy.set_level_scale hier l ~percent:0 | None -> ());
  let inject =
    match (cfg.injection, inject_site) with
    | Some (Site_load { extra }), Some pcs -> List.map (fun pc -> (pc, extra)) pcs
    | _ -> []
  in
  let zero = List.map (fun pc -> (pc, -max_int)) (Option.value zero_site ~default:[]) in
  let stall_shape =
    match inject @ zero with
    | [] -> [||]
    | deltas ->
        let shape = Array.make (Stallhide_isa.Program.length prepared.program) 0 in
        (* zeroing comes last, so it wins at a pc both touch *)
        List.iter (fun (pc, d) -> shape.(pc) <- d) deltas;
        shape
  in
  let recorder = Latency.recorder () in
  let engine =
    { Engine.default_config with hooks = Latency.hooks recorder; stall_shape }
  in
  let _ =
    Scheduler.run_round_robin ~engine ~switch:Switch_cost.coroutine hier wl.Workload.image
      (Workload.contexts wl)
  in
  sample_of_summary (Latency.summary (Latency.all recorder))

(* The "dominant" yield site for ground-truth injection: the selected
   site whose covered loads execute the most in a clean baseline run
   (ties go to the lowest yield pc), counted by [Pipeline.ground_truth]
   over the whole run. Deterministic given the seed. *)
let pick_site cfg prepared =
  match prepared.sites with
  | [] -> None
  | sites ->
      let wl =
        make_workload cfg.workload ~lanes:cfg.lanes ~ops:cfg.ops ~manual:false ~seed:cfg.seed
      in
      let truth = Pipeline.ground_truth (Workload.with_program wl prepared.program) in
      let execs pc = match Hashtbl.find_opt truth pc with Some (e, _, _) -> e | None -> 0 in
      let score covered =
        List.fold_left (fun acc pc -> acc + execs pc) 0 (covered_pcs prepared covered)
      in
      let best =
        List.fold_left
          (fun acc (pc, _kind, covered) ->
            let s = score covered in
            match acc with
            | Some (_, _, best_s) when best_s >= s -> acc
            | _ -> Some (pc, covered, s))
          None sites
      in
      Option.map (fun (pc, covered, _s) -> (pc, covered)) best

(* ---- causal attribution ------------------------------------------- *)

let seeds_of cfg = List.init (max 1 cfg.repeats) (fun i -> cfg.seed + i)

let analyze cfg =
  let cfg = { cfg with repeats = max 1 cfg.repeats } in
  let prepared = prepare cfg in
  let injected_site =
    match cfg.injection with Some (Site_load _) -> pick_site cfg prepared | _ -> None
  in
  let inject_pcs = Option.map (fun (_pc, covered) -> covered_pcs prepared covered) injected_site in
  let seeds = seeds_of cfg in
  let base seed =
    run_single cfg prepared ~seed ~zero_level:None ~zero_site:None ~inject_site:inject_pcs ()
  in
  let resource_targets =
    List.map
      (fun level ->
        let name = Hierarchy.level_name level in
        ( {
            Causal.id = "level:" ^ name;
            kind = Causal.Resource;
            detail = Printf.sprintf "re-price %s services to the L1 cost" name;
          },
          fun seed ->
            run_single cfg prepared ~seed ~zero_level:(Some level) ~zero_site:None
              ~inject_site:inject_pcs () ))
      [ Hierarchy.L2; Hierarchy.L3; Hierarchy.Dram ]
  in
  let site_targets =
    List.map
      (fun (pc, kind, covered) ->
        let pcs = covered_pcs prepared covered in
        let kind_name =
          match kind with Stallhide_isa.Instr.Primary -> "primary" | Scavenger -> "scavenger"
        in
        ( {
            Causal.id = Printf.sprintf "site:%d" pc;
            kind = Causal.Site;
            detail =
              Printf.sprintf "zero residual stall at %s yield@%d (%d loads)" kind_name pc
                (List.length covered);
          },
          fun seed ->
            run_single cfg prepared ~seed ~zero_level:None ~zero_site:(Some pcs)
              ~inject_site:inject_pcs () ))
      prepared.sites
  in
  let causal = Causal.run ~seeds ~base ~targets:(resource_targets @ site_targets) in
  let truth =
    match cfg.injection with
    | None -> None
    | Some (Level_spike { l3_mult; dram_mult }) ->
        let id = if dram_mult > l3_mult then "level:DRAM" else "level:L3" in
        Some { injected = id; rank = Causal.rank_of cfg.metric causal ~id }
    | Some (Site_load _) -> (
        match injected_site with
        | None -> Some { injected = "site:?"; rank = None }
        | Some (pc, _) ->
            let id = Printf.sprintf "site:%d" pc in
            Some { injected = id; rank = Causal.rank_of cfg.metric causal ~id })
  in
  { config = cfg; causal; truth }

let recovered a = match a.truth with Some { rank = Some 1; _ } -> true | _ -> false

let analysis_to_json a =
  let truth =
    match a.truth with
    | None -> Json.Null
    | Some { injected; rank } ->
        Json.Obj
          [
            ("injected", Json.String injected);
            ("rank", match rank with Some r -> Json.Int r | None -> Json.Null);
            ("recovered", Json.Bool (recovered a));
          ]
  in
  Json.Obj
    [
      ("workload", Json.String a.config.workload);
      ("lanes", Json.Int a.config.lanes);
      ("ops", Json.Int a.config.ops);
      ("seed", Json.Int a.config.seed);
      ("repeats", Json.Int a.config.repeats);
      ("metric", Json.String (Sweep.metric_name a.config.metric));
      ( "injection",
        match a.config.injection with
        | Some i -> Json.String (injection_name i)
        | None -> Json.Null );
      ("truth", truth);
      ("causal", Causal.to_json ~metric:a.config.metric a.causal);
    ]

let pp_analysis ppf a =
  Format.fprintf ppf "why %s: metric %s, seeds %s%s@."
    a.config.workload
    (Sweep.metric_name a.config.metric)
    (String.concat "," (List.map string_of_int (Causal.(a.causal.seeds))))
    (match a.config.injection with
    | Some i -> Printf.sprintf ", injected %s" (injection_name i)
    | None -> "");
  Causal.pp ~metric:a.config.metric ppf a.causal;
  match a.truth with
  | None -> ()
  | Some { injected; rank } ->
      Format.fprintf ppf "ground truth: %s ranked %s -> %s@." injected
        (match rank with Some r -> "#" ^ string_of_int r | None -> "absent")
        (if recovered a then "RECOVERED" else "MISSED")

(* ---- sensitivity sweep -------------------------------------------- *)

let half_cache (l : Memconfig.level_cfg) =
  { l with Memconfig.size_bytes = max 4096 (l.Memconfig.size_bytes / 2) }

let smp_prepare_core cfg =
  match cfg.injection with
  | Some (Level_spike { l3_mult; dram_mult }) ->
      fun _core hier -> Faults.prepare_hier (spike_fault ~l3_mult ~dram_mult) hier
  | _ -> fun _core _hier -> ()

let smp_params cfg seed =
  {
    Harness.default_params with
    Harness.seed;
    requests_per_core = 24;
    prepare_core = smp_prepare_core cfg;
  }

let smp_sample params =
  let r = Harness.run params in
  sample_of_summary r.Harness.result.Machine.summary

let smp_sweep cfg =
  let seeds = seeds_of cfg in
  let base seed = smp_sample (smp_params cfg seed) in
  let mem = Memconfig.default in
  let knob id detail f = (id, detail, fun seed -> smp_sample (f (smp_params cfg seed))) in
  let with_mem p m = { p with Harness.memcfg = m } in
  let knobs =
    [
      knob "l1.size/2" "halve the L1 capacity on every core" (fun p ->
          with_mem p { mem with Memconfig.l1 = half_cache mem.Memconfig.l1 });
      knob "l2.size/2" "halve the L2 capacity on every core" (fun p ->
          with_mem p { mem with Memconfig.l2 = half_cache mem.Memconfig.l2 });
      knob "l3.size/2" "halve the shared-L3 capacity" (fun p ->
          with_mem p { mem with Memconfig.l3 = half_cache mem.Memconfig.l3 });
      knob "l3.latency*2" "double the L3 hit latency" (fun p ->
          with_mem p
            {
              mem with
              Memconfig.l3 = { mem.Memconfig.l3 with Memconfig.latency = mem.Memconfig.l3.Memconfig.latency * 2 };
            });
      knob "dram.latency*2" "double the DRAM latency" (fun p ->
          with_mem p (Memconfig.with_dram_latency mem (mem.Memconfig.dram_latency * 2)));
      knob "scavengers/2" "halve the scavenger budget per core" (fun p ->
          { p with Harness.scav_per_core = max 0 (p.Harness.scav_per_core / 2) });
      knob "steal.off" "disable cross-core scavenger stealing" (fun p ->
          { p with Harness.steal = false });
      knob "cores-1" "one core fewer" (fun p ->
          { p with Harness.cores = max 1 (p.Harness.cores - 1) });
      knob "policy.flip"
        "flip the dispatch policy (d-fcfs <-> jbsq)"
        (fun p -> { p with Harness.policy = Dispatch.alternate p.Harness.policy });
    ]
  in
  Sweep.run ~seeds ~base ~knobs

let single_sweep cfg =
  let prepared = prepare cfg in
  let injected_site =
    match cfg.injection with Some (Site_load _) -> pick_site cfg prepared | _ -> None
  in
  let inject_pcs = Option.map (fun (_pc, covered) -> covered_pcs prepared covered) injected_site in
  let seeds = seeds_of cfg in
  let run ?memcfg ?lanes seed =
    run_single cfg prepared ?memcfg ?lanes ~seed ~zero_level:None ~zero_site:None
      ~inject_site:inject_pcs ()
  in
  let mem = Memconfig.default in
  let knobs =
    [
      ( "l1.size/2",
        "halve the L1 capacity",
        fun seed -> run ~memcfg:{ mem with Memconfig.l1 = half_cache mem.Memconfig.l1 } seed );
      ( "l2.size/2",
        "halve the L2 capacity",
        fun seed -> run ~memcfg:{ mem with Memconfig.l2 = half_cache mem.Memconfig.l2 } seed );
      ( "l3.size/2",
        "halve the L3 capacity",
        fun seed -> run ~memcfg:{ mem with Memconfig.l3 = half_cache mem.Memconfig.l3 } seed );
      ( "l3.latency*2",
        "double the L3 hit latency",
        fun seed ->
          run
            ~memcfg:
              {
                mem with
                Memconfig.l3 =
                  { mem.Memconfig.l3 with Memconfig.latency = mem.Memconfig.l3.Memconfig.latency * 2 };
              }
            seed );
      ( "dram.latency*2",
        "double the DRAM latency",
        fun seed ->
          run ~memcfg:(Memconfig.with_dram_latency mem (mem.Memconfig.dram_latency * 2)) seed );
      (* for the transaction engine, lanes is K — the concurrency knob
         CoroBase tunes — so the doubled-lane arm reads as an inflight
         sweep there *)
      (if cfg.workload = "txn-oltp" then
         ( "inflight*2",
           "double K, the in-flight transaction coroutines",
           fun seed -> run ~lanes:(cfg.lanes * 2) seed )
       else ("lanes*2", "double the concurrent lanes", fun seed -> run ~lanes:(cfg.lanes * 2) seed));
    ]
  in
  Sweep.run ~seeds ~base:(fun seed -> run seed) ~knobs

let sweep cfg =
  let cfg = { cfg with repeats = max 1 cfg.repeats } in
  match (cfg.workload, cfg.injection) with
  (* site injection needs the single-core instrumentation's pc map;
     the SMP harness instruments its own program *)
  | "kv-server", (None | Some (Level_spike _)) -> smp_sweep cfg
  | _ -> single_sweep cfg

(* ---- critical path ------------------------------------------------ *)

type critical = { requests : int; all : Critical_path.totals; tail : Critical_path.totals }

let critical cfg =
  if cfg.workload <> "kv-server" then None
  else
    (* the decomposition reads the per-core event streams *)
    let r = Harness.run { (smp_params cfg cfg.seed) with Harness.trace = true } in
    let events =
      Array.fold_left
        (fun acc (c : Machine.core_result) -> acc @ Stream.events c.Machine.stream)
        []
        r.Harness.result.Machine.per_core
    in
    let reqs =
      Array.to_list r.Harness.result.Machine.requests
      |> List.map (fun (q : Machine.request) ->
             {
               Critical_path.rid = q.Machine.rid;
               ctx = q.Machine.ctx.Context.id;
               core = q.Machine.served_by;
               arrival = q.Machine.arrival;
               finished = q.Machine.finished_at;
             })
    in
    let bds = List.filter_map (fun q -> Critical_path.breakdown ~events q) reqs in
    Some
      {
        requests = List.length bds;
        all = Critical_path.totals bds;
        tail = Critical_path.totals (Critical_path.tail ~frac:0.10 bds);
      }

let critical_to_json c =
  Json.Obj
    [
      ("requests", Json.Int c.requests);
      ("all", Critical_path.to_json c.all);
      ("tail", Critical_path.to_json c.tail);
    ]

let pp_critical ppf c =
  Format.fprintf ppf "critical path over %d finished requests:@." c.requests;
  Format.fprintf ppf "  all : %a@." Critical_path.pp_totals c.all;
  Format.fprintf ppf "  tail: %a@." Critical_path.pp_totals c.tail
