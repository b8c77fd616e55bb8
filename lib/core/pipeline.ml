open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_pmu
open Stallhide_binopt
module Scavenger_pass = Stallhide_analysis.Scavenger_pass
open Stallhide_runtime
open Stallhide_workloads

type profile_config = {
  exec_period : int;
  miss_period : int;
  stall_period : int;
  frontend_period : int option;
  degradation : Pebs.degradation_spec option;
}

let default_profile_config =
  {
    exec_period = 31;
    miss_period = 17;
    stall_period = 127;
    frontend_period = Some 127;
    degradation = None;
  }

type profiled = {
  profile : Profile.t;
  run_cycles : int;
  samples : int;
  overhead_cycles : int;
}

let profile ?(config = default_profile_config) ?(mem_cfg = Memconfig.default) w =
  let hier = Hierarchy.create mem_cfg in
  let exec = Pebs.create ~event:Pebs.Loads_all ~period:config.exec_period () in
  let miss = Pebs.create ~event:Pebs.L2_miss_loads ~period:config.miss_period () in
  let stall = Pebs.create ~event:Pebs.Stall_cycles ~period:config.stall_period () in
  let frontend =
    Option.map (fun period -> Pebs.create ~event:Pebs.Frontend_stalls ~period ())
      config.frontend_period
  in
  (match config.degradation with
  | Some spec ->
      Pebs.degrade exec spec;
      Pebs.degrade miss spec;
      Pebs.degrade stall spec;
      Option.iter (fun f -> Pebs.degrade f spec) frontend
  | None -> ());
  (* a prime, like the PEBS periods, so reads do not alias with loops *)
  let lbr = Lbr.create ~snapshot_period:211 () in
  let units = exec :: miss :: stall :: Option.to_list frontend in
  (* The samplers ride the decoded-µop loop on a probe. *)
  let probe = Probe.create () in
  List.iter (fun u -> Pebs.attach u probe) units;
  Lbr.attach lbr probe;
  let engine = { Engine.default_config with probe = Some probe } in
  let ctxs = Workload.contexts w in
  let r = Scheduler.run_sequential ~engine hier w.Workload.image ctxs in
  let p = Profile.build ~program:w.Workload.program ~exec ~miss ~stall ?frontend ~lbr () in
  (* leave the image as we found it for the measured run *)
  w.Workload.reset ();
  let overhead_cycles = List.fold_left (fun acc u -> acc + Pebs.overhead_cycles u) 0 units in
  {
    profile = p;
    run_cycles = r.Scheduler.cycles;
    samples = Profile.total_samples p;
    overhead_cycles;
  }

let ground_truth ?(mem_cfg = Memconfig.default) w =
  let hier = Hierarchy.create mem_cfg in
  let n = Program.length w.Workload.program in
  let probe = Probe.create () in
  Probe.tally probe ~length:n;
  let engine = { Engine.default_config with probe = Some probe } in
  let ctxs = Workload.contexts w in
  let (_ : Scheduler.result) = Scheduler.run_sequential ~engine hier w.Workload.image ctxs in
  w.Workload.reset ();
  let execs = Probe.load_execs probe
  and misses = Probe.load_misses probe
  and stalls = Probe.stalls probe in
  let table : (int, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  for pc = 0 to n - 1 do
    if execs.(pc) > 0 then Hashtbl.replace table pc (execs.(pc), misses.(pc), stalls.(pc))
  done;
  table

let oracle_estimates ?mem_cfg w = Gain_cost.of_ground_truth (ground_truth ?mem_cfg w)

let oracle_sites ?mem_cfg ?(threshold = 0.5) w =
  let table = ground_truth ?mem_cfg w in
  Hashtbl.fold
    (fun pc (execs, misses, _) acc ->
      if execs > 0 && float_of_int misses /. float_of_int execs >= threshold then pc :: acc
      else acc)
    table []
  |> List.sort compare

let oracle_selection ?mem_cfg ?(policy = Gain_cost.Cost_benefit)
    ?(machine = Gain_cost.default_machine) w =
  Gain_cost.select policy machine (oracle_estimates ?mem_cfg w) w.Workload.program

type instrumented = {
  program : Program.t;
  orig_of_new : int array;
  primary : Primary_pass.report;
  scavenger : Scavenger_pass.report option;
}

(* Translation validation (fail-fast): every instrumented program is
   checked against its original before anything runs it. [~verify:false]
   is the escape hatch for deliberately testing defective rewrites. *)
let validate_exn ?target_interval ~orig inst =
  let module V = Stallhide_verify.Verify in
  let outcome = V.validate ~orig ~orig_of_new:inst.orig_of_new ?target_interval inst.program in
  if not (V.ok outcome) then raise (V.Rejected outcome)

let instrument_with_unchecked ~estimates ~pc_cycles ?wait_stalls ~primary
    ?scavenger_interval prog =
  let prog1, map1, rep1 = Primary_pass.run ?wait_stalls primary estimates prog in
  match scavenger_interval with
  | None -> { program = prog1; orig_of_new = map1; primary = rep1; scavenger = None }
  | Some interval ->
      let selected_set = Hashtbl.create 16 in
      List.iter (fun pc -> Hashtbl.replace selected_set pc ()) rep1.Primary_pass.selected;
      (* Profiled latencies describe the *uninstrumented* binary: loads
         the primary pass just covered will mostly hit now, and inserted
         prefetch/yield instructions have no profile at all — fall back
         to static costs for those. *)
      let adjusted_pc_cycles pc =
        match Program.instr prog1 pc with
        | Instr.Prefetch _ | Instr.Yield _ | Instr.Yield_cond _ -> None
        | Instr.Load _ when Hashtbl.mem selected_set map1.(pc) -> None
        | _ -> pc_cycles map1.(pc)
      in
      let prog2, map2, rep2 =
        Scavenger_pass.run
          { Scavenger_pass.target_interval = interval; pc_cycles = adjusted_pc_cycles }
          prog1
      in
      {
        program = prog2;
        orig_of_new = Rewrite.compose map2 map1;
        primary = rep1;
        scavenger = Some rep2;
      }

let instrument_with ~estimates ?(pc_cycles = fun _ -> None) ?wait_stalls
    ?(primary = Primary_pass.default_opts) ?scavenger_interval ?(verify = true) prog =
  let inst =
    instrument_with_unchecked ~estimates ~pc_cycles ?wait_stalls ~primary
      ?scavenger_interval prog
  in
  if verify then validate_exn ?target_interval:scavenger_interval ~orig:prog inst;
  inst

let instrument ?primary ?scavenger_interval ?verify (p : profiled) w =
  let estimates = Gain_cost.of_profile p.profile in
  let pc_cycles pc = Profile.pc_cycles p.profile pc in
  (* Instrument a wait only when the *majority* of its sampled stalls
     are memory/event stalls: two period-sampled estimates of the same
     quantity never cancel exactly, so a positive residue alone is
     noise, not signal. *)
  let wait_stalls pc =
    let raw = Profile.raw_stalls_at p.profile pc in
    let memory = Profile.stalls_at p.profile pc in
    if 2 * memory >= raw then memory else 0
  in
  let inst =
    instrument_with ~estimates ~pc_cycles ~wait_stalls ?primary ?scavenger_interval
      ?verify w.Workload.program
  in
  (Workload.with_program w inst.program, inst)

type placement = Pgo | Static | Hybrid

let placement_name = function Pgo -> "pgo" | Static -> "static" | Hybrid -> "hybrid"

(* Static placement reads the classifier's priors and ignores the
   estimates; it is handed none so no profile can leak in. *)
let no_estimates =
  { Gain_cost.miss_probability = (fun _ -> None); stall_per_miss = (fun _ -> None) }

let place ?(placement = Pgo) ?profile_config ?(mem_cfg = Memconfig.default)
    ?(primary = Primary_pass.default_opts) ?scavenger_interval ?verify w =
  let classifier () =
    Stallhide_analysis.Analysis.to_classifier
      (Stallhide_analysis.Analysis.run ~mem:mem_cfg w.Workload.program)
  in
  let profiled () = profile ?config:profile_config ~mem_cfg w in
  match placement with
  | Pgo ->
      let primary = { primary with Primary_pass.placement = Gain_cost.Pgo } in
      instrument ~primary ?scavenger_interval ?verify (profiled ()) w
  | Static ->
      let primary = { primary with Primary_pass.placement = Gain_cost.Static (classifier ()) } in
      let inst =
        instrument_with ~estimates:no_estimates ~primary ?scavenger_interval ?verify
          w.Workload.program
      in
      (Workload.with_program w inst.program, inst)
  | Hybrid ->
      let primary = { primary with Primary_pass.placement = Gain_cost.Hybrid (classifier ()) } in
      instrument ~primary ?scavenger_interval ?verify (profiled ()) w
