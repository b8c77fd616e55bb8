open Stallhide_cpu
open Stallhide_mem
open Stallhide_runtime
open Stallhide_workloads

type opts = {
  mem_cfg : Memconfig.t;
  switch : Switch_cost.t;
  engine : Engine.config;
  max_cycles : int;
  obs : Stallhide_obs.Stream.t option;
  prepare_hier : Hierarchy.t -> unit;
  watchdog : Core_sched.watchdog option;
}

let default_opts =
  {
    mem_cfg = Memconfig.default;
    switch = Switch_cost.coroutine;
    engine = Engine.default_config;
    max_cycles = max_int;
    obs = None;
    prepare_hier = ignore;
    watchdog = None;
  }

let make_hier opts =
  let hier = Hierarchy.create opts.mem_cfg in
  opts.prepare_hier hier;
  hier

let op_counter () =
  let ops = ref 0 in
  (ops, { Events.nop with Events.on_opmark = (fun ~ctx:_ ~pc:_ ~cycle:_ -> incr ops) })

(* Op counter + latency recorder (+ telemetry when requested) composed
   onto the caller's hooks. The first two watch only opmarks, so an arm
   without [obs] or caller hooks keeps the decoded-µop loop. *)
let instrumented_engine opts =
  let ops, count_ops = op_counter () in
  let recorder = Latency.recorder () in
  let hooks =
    Events.compose
      ([ opts.engine.Engine.hooks; count_ops; Latency.hooks recorder ]
      @ match opts.obs with Some s -> [ Stallhide_obs.Stream.hooks s ] | None -> [])
  in
  (ops, recorder, { opts.engine with Engine.hooks = hooks })

let run_sequential ?label ?(opts = default_opts) w =
  let ops, recorder, engine = instrumented_engine opts in
  let hier = make_hier opts in
  let ctxs = Workload.contexts w in
  let r =
    Scheduler.run_sequential ~engine ~max_cycles:opts.max_cycles ?obs:opts.obs hier
      w.Workload.image ctxs
  in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/none" in
  Metrics.of_sched ~label ~ops:!ops
    ~latency:(Latency.summarize (Latency.all recorder))
    r

let run_ooo ?label ?(opts = default_opts) ~window w =
  let opts = { opts with engine = { opts.engine with Engine.ooo_window = window } } in
  let label = match label with Some l -> l | None -> Printf.sprintf "%s/ooo-%d" w.Workload.name window in
  run_sequential ~label ~opts w

let run_smt ?label ?(opts = default_opts) w =
  let ops, count_ops = op_counter () in
  let hooks =
    Events.compose
      ([ opts.engine.Engine.hooks; count_ops ]
      @ match opts.obs with Some s -> [ Stallhide_obs.Stream.hooks s ] | None -> [])
  in
  let hier = make_hier opts in
  let ctxs = Workload.contexts w in
  let r =
    Smt.run
      ~config:{ Smt.hooks; threshold = 0 }
      hier w.Workload.image ctxs ~max_cycles:opts.max_cycles
  in
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "%s/smt-%d" w.Workload.name (Workload.lane_count w)
  in
  Metrics.of_smt ~label ~ops:!ops r

let run_round_robin ?label ?(opts = default_opts) w =
  let ops, recorder, engine = instrumented_engine opts in
  let hier = make_hier opts in
  let ctxs = Workload.contexts w in
  let r =
    Scheduler.run_round_robin ~engine ~max_cycles:opts.max_cycles ?obs:opts.obs
      ~switch:opts.switch hier w.Workload.image ctxs
  in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/rr" in
  Metrics.of_sched ~label ~ops:!ops
    ~latency:(Latency.summarize (Latency.all recorder))
    r

let run_pgo ?label ?opts ?profile_config ?primary ?scavenger_interval ?verify w =
  let o = match opts with Some o -> o | None -> default_opts in
  let profiled = Pipeline.profile ?config:profile_config ~mem_cfg:o.mem_cfg w in
  let w', inst = Pipeline.instrument ?primary ?scavenger_interval ?verify profiled w in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/pgo" in
  (run_round_robin ~label ?opts w', inst)

(* Profile-free placement: the static must/may analysis classifies the
   loads, its taint priors price the rest — no profiling run at all. *)
let run_static ?label ?opts ?(primary = Stallhide_binopt.Primary_pass.default_opts)
    ?scavenger_interval ?verify w =
  let o = match opts with Some o -> o | None -> default_opts in
  let analysis = Stallhide_analysis.Analysis.run ~mem:o.mem_cfg w.Workload.program in
  let classifier = Stallhide_analysis.Analysis.to_classifier analysis in
  let primary =
    { primary with
      Stallhide_binopt.Primary_pass.placement = Stallhide_binopt.Gain_cost.Static classifier }
  in
  let no_estimates =
    {
      Stallhide_binopt.Gain_cost.miss_probability = (fun _ -> None);
      stall_per_miss = (fun _ -> None);
    }
  in
  let inst =
    Pipeline.instrument_with ~estimates:no_estimates ~primary ?scavenger_interval
      ?verify w.Workload.program
  in
  let w' = Workload.with_program w inst.Pipeline.program in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/static" in
  (run_round_robin ~label ?opts w', inst)

(* Hybrid: proven static facts override the profile; priors back-fill
   pcs the profile never sampled. *)
let run_hybrid ?label ?opts ?profile_config
    ?(primary = Stallhide_binopt.Primary_pass.default_opts) ?scavenger_interval
    ?verify w =
  let o = match opts with Some o -> o | None -> default_opts in
  let analysis = Stallhide_analysis.Analysis.run ~mem:o.mem_cfg w.Workload.program in
  let classifier = Stallhide_analysis.Analysis.to_classifier analysis in
  let primary =
    { primary with
      Stallhide_binopt.Primary_pass.placement = Stallhide_binopt.Gain_cost.Hybrid classifier }
  in
  let profiled = Pipeline.profile ?config:profile_config ~mem_cfg:o.mem_cfg w in
  let w', inst = Pipeline.instrument ~primary ?scavenger_interval ?verify profiled w in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/hybrid" in
  (run_round_robin ~label ?opts w', inst)

type attributed = {
  pgo_metrics : Metrics.t;
  inst : Pipeline.instrumented;
  attribution : Stallhide_obs.Attribution.report;
  stream : Stallhide_obs.Stream.t;
}

let run_pgo_attributed ?label ?opts ?profile_config ?(primary = Stallhide_binopt.Primary_pass.default_opts)
    ?scavenger_interval ?verify w =
  let o = match opts with Some o -> o | None -> default_opts in
  let profiled = Pipeline.profile ?config:profile_config ~mem_cfg:o.mem_cfg w in
  let w', inst = Pipeline.instrument ~primary ?scavenger_interval ?verify profiled w in
  (* Baseline stall map: the uninstrumented workload run once more with
     engine telemetry attached (the hooks do not touch the clock, so
     this is exactly the run_sequential baseline). *)
  let baseline = Stallhide_obs.Stream.create () in
  let base_engine =
    {
      o.engine with
      Engine.hooks =
        Events.compose [ o.engine.Engine.hooks; Stallhide_obs.Stream.hooks baseline ];
    }
  in
  let (_ : Scheduler.result) =
    Scheduler.run_sequential ~engine:base_engine ~max_cycles:o.max_cycles
      (Hierarchy.create o.mem_cfg) w.Workload.image (Workload.contexts w)
  in
  w.Workload.reset ();
  let stream = Stallhide_obs.Stream.create () in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/pgo" in
  let pgo_metrics = run_round_robin ~label ~opts:{ o with obs = Some stream } w' in
  let attribution =
    Stallhide_obs.Attribution.build ~program:inst.Pipeline.program
      ~orig_of_new:inst.Pipeline.orig_of_new
      ~selected:inst.Pipeline.primary.Stallhide_binopt.Primary_pass.selected
      ~machine:primary.Stallhide_binopt.Primary_pass.machine
      ~estimates:(Stallhide_binopt.Gain_cost.of_profile profiled.Pipeline.profile)
      ~baseline stream
  in
  { pgo_metrics; inst; attribution; stream }

type dual_result = {
  metrics : Metrics.t;
  primary_latency : Latency.summary option;
  primary_done_at : int;
  scavenger_switches : int;
  watchdog_strikes : int;
  watchdog_demotions : int;
  watchdog_quarantined : int;
}

let run_dual ?label ?(opts = default_opts) ~primary ~scavengers () =
  if primary.Workload.image != scavengers.Workload.image then
    invalid_arg "Baselines.run_dual: primary and scavengers must share one memory image";
  let ops, recorder, engine = instrumented_engine opts in
  let hier = make_hier opts in
  let p_ctx = Workload.context primary ~lane:0 ~id:0 ~mode:Context.Primary in
  let s_ctxs =
    Array.init (Workload.lane_count scavengers) (fun lane ->
        Workload.context scavengers ~lane ~id:(lane + 1) ~mode:Context.Scavenger)
  in
  let r =
    Dual_mode.run
      ~config:{ Dual_mode.engine; switch = opts.switch; drain = true; watchdog = opts.watchdog }
      ~max_cycles:opts.max_cycles ?obs:opts.obs hier primary.Workload.image ~primary:p_ctx
      ~scavengers:s_ctxs
  in
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "%s+%s/dual" primary.Workload.name scavengers.Workload.name
  in
  {
    metrics =
      Metrics.of_sched ~label ~ops:!ops
        ~latency:(Latency.summarize (Latency.all recorder))
        r.Dual_mode.sched;
    primary_latency = Latency.summarize (Latency.of_ctx recorder 0);
    primary_done_at = r.Dual_mode.primary_done_at;
    scavenger_switches = r.Dual_mode.stats.Core_sched.scav_dispatches;
    watchdog_strikes = r.Dual_mode.stats.Core_sched.watchdog_strikes;
    watchdog_demotions = r.Dual_mode.stats.Core_sched.watchdog_demotions;
    watchdog_quarantined = r.Dual_mode.stats.Core_sched.watchdog_quarantined;
  }
