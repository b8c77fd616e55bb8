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
}

let default_opts =
  {
    mem_cfg = Memconfig.default;
    switch = Switch_cost.coroutine;
    engine = Engine.default_config;
    max_cycles = max_int;
    obs = None;
  }

(* The latency recorder, which also counts ops, as the engine's opmark
   observer, and the telemetry stream, when requested, on the engine's
   probe (a fresh one when it has none). *)
let instrumented_engine opts =
  let recorder = Latency.recorder () in
  let probe =
    match opts.obs with
    | Some s ->
        let p = Option.value opts.engine.Engine.probe ~default:(Probe.create ()) in
        Stallhide_obs.Stream.attach s p;
        Some p
    | None -> opts.engine.Engine.probe
  in
  (recorder, { opts.engine with Engine.on_opmark = Latency.on_opmark recorder; probe })

let of_recorder ~label recorder r =
  Metrics.of_sched ~label ~ops:(Latency.ops recorder)
    ~latency:(Latency.summarize_recorder recorder)
    r

let run_sequential ?label ?(opts = default_opts) w =
  let recorder, engine = instrumented_engine opts in
  let hier = Hierarchy.create opts.mem_cfg in
  let ctxs = Workload.contexts w in
  let r =
    Scheduler.run_sequential ~engine ~max_cycles:opts.max_cycles ?obs:opts.obs hier
      w.Workload.image ctxs
  in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/none" in
  of_recorder ~label recorder r

let run_ooo ?label ?(opts = default_opts) ~window w =
  let opts = { opts with engine = { opts.engine with Engine.ooo_window = window } } in
  let label = match label with Some l -> l | None -> Printf.sprintf "%s/ooo-%d" w.Workload.name window in
  run_sequential ~label ~opts w

let run_smt ?label ?(opts = default_opts) w =
  let recorder, engine = instrumented_engine opts in
  let hier = Hierarchy.create opts.mem_cfg in
  let ctxs = Workload.contexts w in
  let r = Smt.run ~engine hier w.Workload.image ctxs ~max_cycles:opts.max_cycles in
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "%s/smt-%d" w.Workload.name (Workload.lane_count w)
  in
  Metrics.of_smt ~label ~ops:(Latency.ops recorder)
    ~latency:(Latency.summarize_recorder recorder)
    r

let run_round_robin ?label ?(opts = default_opts) w =
  let recorder, engine = instrumented_engine opts in
  let hier = Hierarchy.create opts.mem_cfg in
  let ctxs = Workload.contexts w in
  let r =
    Scheduler.run_round_robin ~engine ~max_cycles:opts.max_cycles ?obs:opts.obs
      ~switch:opts.switch hier w.Workload.image ctxs
  in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/rr" in
  of_recorder ~label recorder r

let run_pgo ?label ?opts ?(placement = Pipeline.Pgo) ?profile_config ?primary
    ?scavenger_interval ?verify w =
  let mem_cfg = (match opts with Some o -> o | None -> default_opts).mem_cfg in
  let w', inst =
    Pipeline.place ~placement ?profile_config ~mem_cfg ?primary ?scavenger_interval ?verify w
  in
  let label =
    match label with
    | Some l -> l
    | None -> w.Workload.name ^ "/" ^ Pipeline.placement_name placement
  in
  (run_round_robin ~label ?opts w', inst)

type attributed = {
  baseline : Metrics.t;
  pgo_metrics : Metrics.t;
  inst : Pipeline.instrumented;
  attribution : Attribution.report;
}

(* [opts] with a fresh probe that tallies every pc of [program]. *)
let tallied opts program =
  let p = Probe.create () in
  Probe.tally p ~length:(Stallhide_isa.Program.length program);
  (p, { opts with engine = { opts.engine with Engine.probe = Some p } })

let attribute ?label ?(opts = default_opts) ?(primary = Stallhide_binopt.Primary_pass.default_opts)
    profiled inst w =
  let base_probe, base_opts = tallied { opts with obs = None } w.Workload.program in
  let baseline = run_sequential ~opts:base_opts w in
  w.Workload.reset ();
  let probe, measured_opts = tallied opts inst.Pipeline.program in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/pgo" in
  let pgo_metrics =
    run_round_robin ~label ~opts:measured_opts (Workload.with_program w inst.Pipeline.program)
  in
  let attribution =
    Attribution.build ~program:inst.Pipeline.program ~orig_of_new:inst.Pipeline.orig_of_new
      ~selected:inst.Pipeline.primary.Stallhide_binopt.Primary_pass.selected
      ~machine:primary.Stallhide_binopt.Primary_pass.machine
      ~estimates:(Stallhide_binopt.Gain_cost.of_profile profiled.Pipeline.profile)
      ~baseline:base_probe probe
  in
  { baseline; pgo_metrics; inst; attribution }

let run_pgo_attributed ?label ?(opts = default_opts) ?profile_config ?primary
    ?scavenger_interval ?verify w =
  let profiled = Pipeline.profile ?config:profile_config ~mem_cfg:opts.mem_cfg w in
  let _, inst = Pipeline.instrument ?primary ?scavenger_interval ?verify profiled w in
  attribute ?label ~opts ?primary profiled inst w

type dual_result = {
  metrics : Metrics.t;
  primary_latency : Latency.summary option;
  stats : Core_sched.stats;
}

let run_dual ?label ?(opts = default_opts) ~primary ~scavengers () =
  if primary.Workload.image != scavengers.Workload.image then
    invalid_arg "Baselines.run_dual: primary and scavengers must share one memory image";
  let recorder, engine = instrumented_engine opts in
  let hier = Hierarchy.create opts.mem_cfg in
  let p_ctx = Workload.context primary ~lane:0 ~id:0 ~mode:Context.Primary in
  let s_ctxs =
    Array.init (Workload.lane_count scavengers) (fun lane ->
        Workload.context scavengers ~lane ~id:(lane + 1) ~mode:Context.Scavenger)
  in
  let r =
    Dual_mode.run
      ~config:{ Dual_mode.default_config with Dual_mode.engine; switch = opts.switch }
      ~max_cycles:opts.max_cycles ?obs:opts.obs hier primary.Workload.image ~primary:p_ctx
      ~scavengers:s_ctxs
  in
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "%s+%s/dual" primary.Workload.name scavengers.Workload.name
  in
  {
    metrics = of_recorder ~label recorder r.Dual_mode.sched;
    primary_latency = Latency.summarize_recorder ~ctx:0 recorder;
    stats = r.Dual_mode.stats;
  }
