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
  let hier = Hierarchy.create opts.mem_cfg in
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
  let hier = Hierarchy.create opts.mem_cfg in
  let ctxs = Workload.contexts w in
  let r = Smt.run ~hooks hier w.Workload.image ctxs ~max_cycles:opts.max_cycles in
  let label =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "%s/smt-%d" w.Workload.name (Workload.lane_count w)
  in
  Metrics.of_smt ~label ~ops:!ops r

let run_round_robin ?label ?(opts = default_opts) w =
  let ops, recorder, engine = instrumented_engine opts in
  let hier = Hierarchy.create opts.mem_cfg in
  let ctxs = Workload.contexts w in
  let r =
    Scheduler.run_round_robin ~engine ~max_cycles:opts.max_cycles ?obs:opts.obs
      ~switch:opts.switch hier w.Workload.image ctxs
  in
  let label = match label with Some l -> l | None -> w.Workload.name ^ "/rr" in
  Metrics.of_sched ~label ~ops:!ops
    ~latency:(Latency.summarize (Latency.all recorder))
    r

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
  stats : Core_sched.stats;
}

let run_dual ?label ?(opts = default_opts) ~primary ~scavengers () =
  if primary.Workload.image != scavengers.Workload.image then
    invalid_arg "Baselines.run_dual: primary and scavengers must share one memory image";
  let ops, recorder, engine = instrumented_engine opts in
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
    metrics =
      Metrics.of_sched ~label ~ops:!ops
        ~latency:(Latency.summarize (Latency.all recorder))
        r.Dual_mode.sched;
    primary_latency = Latency.summarize (Latency.of_ctx recorder 0);
    stats = r.Dual_mode.stats;
  }
