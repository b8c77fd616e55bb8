open Stallhide
open Stallhide_isa
open Stallhide_mem
open Stallhide_binopt
open Stallhide_workloads

let chase ?manual ?(lanes = 8) ?(hops = 400) ?compute ?image () =
  Pointer_chase.make ?image ?manual ?compute ~lanes ~nodes_per_lane:2048 ~hops ~seed:42 ()

(* --- Pipeline: profiling --- *)

let test_profile_finds_miss_site () =
  let w = chase () in
  let p = Pipeline.profile w in
  Alcotest.(check bool) "samples collected" true (p.Pipeline.samples > 100);
  let est = Gain_cost.of_profile p.Pipeline.profile in
  let sites = Gain_cost.select Gain_cost.Cost_benefit Gain_cost.default_machine est w.Workload.program in
  Alcotest.(check (list int)) "exactly the chase load" [ 0 ] sites

let test_oracle_matches_profile () =
  let w = chase () in
  let oracle = Pipeline.oracle_sites w in
  let p = Pipeline.profile w in
  let est = Gain_cost.of_profile p.Pipeline.profile in
  let sampled =
    Gain_cost.select (Gain_cost.Threshold 0.5) Gain_cost.default_machine est w.Workload.program
  in
  Alcotest.(check (list int)) "profile recovers oracle sites" oracle sampled

let test_resident_loop_left_alone () =
  (* Cost-benefit must decline to instrument loads that always hit:
     every lane spins over one L1-resident line. *)
  let prog =
    Asm.parse
      {|
loop:
  load r3, [r1]
  add r4, r4, r3
  sub r2, r2, 1
  br gt r2, 0, loop
  halt
|}
  in
  let image = Address_space.create ~bytes:4096 in
  let base = Address_space.alloc image ~bytes:64 in
  let w =
    {
      Workload.name = "resident-loop";
      program = prog;
      image;
      lanes = Array.make 4 [ (Reg.r1, base); (Reg.r2, 2000) ];
      ops_per_lane = 0;
      reset = Workload.no_reset;
    }
  in
  let p = Pipeline.profile w in
  let _, inst = Pipeline.instrument p w in
  Alcotest.(check (list int)) "no sites selected" [] inst.Pipeline.primary.Primary_pass.selected;
  (* whereas a streaming scan's line-boundary load is worth it *)
  let scan = Array_scan.make ~lanes:16 ~block_words:64 ~ops:150 ~seed:4 () in
  let sp = Pipeline.profile scan in
  let _, sinst = Pipeline.instrument sp scan in
  Alcotest.(check bool) "streaming scan instrumented" true
    (sinst.Pipeline.primary.Primary_pass.selected <> [])

(* --- Pipeline: instrumentation --- *)

let test_instrument_artifacts () =
  let w = chase () in
  let p = Pipeline.profile w in
  let w', inst = Pipeline.instrument ~scavenger_interval:200 p w in
  Alcotest.(check bool) "yields present" true (Program.yield_count w'.Workload.program > 0);
  Alcotest.(check bool) "program grew" true
    (Program.length w'.Workload.program > Program.length w.Workload.program);
  Alcotest.(check int) "map covers program" (Program.length w'.Workload.program)
    (Array.length inst.Pipeline.orig_of_new);
  Array.iter
    (fun o -> Alcotest.(check bool) "map in range" true (o >= 0 && o < Program.length w.Workload.program))
    inst.Pipeline.orig_of_new;
  match inst.Pipeline.scavenger with
  | Some _ -> ()
  | None -> Alcotest.fail "scavenger report missing"

let test_instrument_without_scavenger () =
  let w = chase () in
  let p = Pipeline.profile w in
  let _, inst = Pipeline.instrument p w in
  Alcotest.(check bool) "no scavenger phase" true (inst.Pipeline.scavenger = None)

(* An interval no placement can meet: every yield-free path through the
   load passes target 1 + slack, so the fail-fast check rejects the
   rewrite with an interval error; [~verify:false] hands it back. *)
let test_instrument_rejects_interval () =
  let module V = Stallhide_verify.Verify in
  let module D = Stallhide_verify.Diagnostic in
  let w = chase () in
  let estimates = Pipeline.oracle_estimates w in
  (match Pipeline.instrument_with ~estimates ~scavenger_interval:1 w.Workload.program with
  | _ -> Alcotest.fail "an interval of 1 was accepted"
  | exception V.Rejected o ->
      Alcotest.(check bool) "an interval error" true
        (List.exists (fun d -> d.D.check = D.Interval && d.D.severity = D.Error) o.V.diags));
  let inst =
    Pipeline.instrument_with ~estimates ~scavenger_interval:1 ~verify:false w.Workload.program
  in
  Alcotest.(check bool) "escape hatch returns the rewrite" true (inst.Pipeline.scavenger <> None)

(* --- Baselines / end-to-end claims --- *)

let test_pgo_beats_none () =
  let none = Baselines.run_sequential (chase ()) in
  let pgo, _ = Baselines.run_pgo (chase ()) in
  Alcotest.(check bool)
    (Printf.sprintf "pgo %.1f vs none %.1f" pgo.Metrics.throughput none.Metrics.throughput)
    true
    (pgo.Metrics.throughput > 3.0 *. none.Metrics.throughput);
  Alcotest.(check bool) "efficiency way up" true
    (pgo.Metrics.efficiency > 3.0 *. none.Metrics.efficiency)

let test_pgo_competitive_with_manual () =
  let manual = Baselines.run_round_robin (chase ~manual:true ()) in
  let pgo, _ = Baselines.run_pgo (chase ()) in
  let ratio = pgo.Metrics.throughput /. manual.Metrics.throughput in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f" ratio) true (ratio > 0.8)

let test_smt_limited () =
  let smt2 = Baselines.run_smt (chase ~lanes:2 ()) in
  let pgo, _ = Baselines.run_pgo (chase ~lanes:32 ~hops:100 ()) in
  Alcotest.(check bool) "smt-2 below pgo-32" true
    (smt2.Metrics.efficiency < pgo.Metrics.efficiency)

let test_ooo_hides_short_events_only () =
  (* With DRAM latency shrunk into the OoO window, OoO recovers all of
     it; at real DRAM latency it recovers only the window. *)
  let short_cfg = Memconfig.with_dram_latency Memconfig.default 40 in
  let opts = { Baselines.default_opts with Baselines.mem_cfg = short_cfg } in
  let ooo_short = Baselines.run_ooo ~opts ~window:48 (chase ~lanes:1 ()) in
  Alcotest.(check bool) "short events fully hidden" true (ooo_short.Metrics.stall = 0);
  let ooo_long = Baselines.run_ooo ~window:48 (chase ~lanes:1 ()) in
  Alcotest.(check bool) "long events not hidden" true (ooo_long.Metrics.stall > 0)

let test_dual_latency_vs_symmetric () =
  (* §3.3: dual-mode keeps primary latency below symmetric round-robin
     at comparable efficiency. *)
  let im = Address_space.create ~bytes:(1 lsl 24) in
  let kv = Kv_server.make ~image:im ~requests:500 ~seed:1 () in
  let sc = chase ~image:im ~lanes:8 ~hops:800 ~compute:300 () in
  let kvp = Pipeline.profile kv in
  let kv', _ = Pipeline.instrument ~scavenger_interval:150 kvp kv in
  let scp = Pipeline.profile sc in
  let sc', _ = Pipeline.instrument ~scavenger_interval:150 scp sc in
  let dual = Baselines.run_dual ~primary:kv' ~scavengers:sc' () in
  (* symmetric: same lanes, all primary-mode in one RR batch *)
  let im2 = Address_space.create ~bytes:(1 lsl 24) in
  let kv2 = Kv_server.make ~image:im2 ~requests:500 ~seed:1 () in
  let sc2 = chase ~image:im2 ~lanes:8 ~hops:800 ~compute:300 () in
  let kv2p = Pipeline.profile kv2 in
  let kv2', _ = Pipeline.instrument ~scavenger_interval:150 kv2p kv2 in
  let sc2p = Pipeline.profile sc2 in
  let sc2', _ = Pipeline.instrument ~scavenger_interval:150 sc2p sc2 in
  (* run the mixed batch symmetric by merging contexts *)
  let recorder = Stallhide_runtime.Latency.recorder () in
  let engine =
    {
      Stallhide_cpu.Engine.default_config with
      Stallhide_cpu.Engine.hooks = Stallhide_runtime.Latency.hooks recorder;
    }
  in
  let kv_ctx = Workload.context kv2' ~lane:0 ~id:0 ~mode:Stallhide_cpu.Context.Primary in
  let sc_ctxs =
    Array.init 8 (fun l -> Workload.context sc2' ~lane:l ~id:(l + 1) ~mode:Stallhide_cpu.Context.Primary)
  in
  let (_ : Stallhide_runtime.Scheduler.result) =
    Stallhide_runtime.Scheduler.run_round_robin ~engine
      ~switch:Stallhide_runtime.Switch_cost.coroutine (Hierarchy.create Memconfig.default) im2
      (Array.append [| kv_ctx |] sc_ctxs)
  in
  let sym_lat = Stallhide_runtime.Latency.summarize (Stallhide_runtime.Latency.of_ctx recorder 0) in
  match (dual.Baselines.primary_latency, sym_lat) with
  | Some d, Some s ->
      Alcotest.(check bool)
        (Printf.sprintf "dual p99 %d < symmetric p99 %d" d.Stallhide_runtime.Latency.p99
           s.Stallhide_runtime.Latency.p99)
        true
        (d.Stallhide_runtime.Latency.p99 < s.Stallhide_runtime.Latency.p99)
  | _ -> Alcotest.fail "missing latency summaries"

let test_conditional_oracle_beats_static_on_mixed () =
  (* On a workload whose loads mostly hit, static always-yield pays
     overhead; conditional yields skip resident lines (§4.1). *)
  let mk () = Array_scan.make ~lanes:8 ~block_words:64 ~ops:100 ~seed:3 () in
  let est =
    {
      Gain_cost.miss_probability = (fun _ -> Some 1.0);
      Gain_cost.stall_per_miss = (fun _ -> Some 196.0);
    }
  in
  let static_opts = { Primary_pass.default_opts with Primary_pass.policy = Gain_cost.Always } in
  let run_with opts =
    let w = mk () in
    let inst = Pipeline.instrument_with ~estimates:est ~primary:opts w.Workload.program in
    Baselines.run_round_robin (Workload.with_program w inst.Pipeline.program)
  in
  let static = run_with static_opts in
  let cond = run_with { static_opts with Primary_pass.conditional = true } in
  Alcotest.(check bool)
    (Printf.sprintf "cond %.2f > static %.2f" cond.Metrics.throughput static.Metrics.throughput)
    true
    (cond.Metrics.throughput > static.Metrics.throughput)

(* --- full-pipeline semantics preservation (property) --- *)

(* Random straight-line programs put through SFI + primary(Always) +
   scavenger instrumentation must compute exactly the same registers
   and memory as the original. *)
let gen_straightline =
  let open QCheck.Gen in
  let reg = int_range 2 (Stallhide_isa.Reg.count - 1) in
  let word = int_bound 63 in
  let instr =
    frequency
      [
        ( 3,
          map3
            (fun op rd (rs, v) -> Instr.Binop (op, rd, rs, Instr.Imm v))
            (oneofl [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Xor ])
            reg
            (pair reg (int_range (-50) 50)) );
        (2, map2 (fun rd v -> Instr.Mov (rd, Instr.Imm v)) reg (int_range (-500) 500));
        (3, map2 (fun rd w -> Instr.Load (rd, Stallhide_isa.Reg.r1, w * 8)) reg word);
        (2, map2 (fun w rv -> Instr.Store (Stallhide_isa.Reg.r1, w * 8, rv)) word reg);
      ]
  in
  list_size (int_range 1 30) instr

let run_to_halt prog mem regs_init =
  let ctx = Stallhide_cpu.Context.create ~id:0 ~mode:Stallhide_cpu.Context.Primary prog in
  Stallhide_cpu.Context.set_regs ctx regs_init;
  ctx.Stallhide_cpu.Context.domain <- Some (0, Address_space.capacity_bytes mem);
  let clock = ref 0 in
  let hier = Hierarchy.create Memconfig.default in
  let rec go n =
    if n > 10000 then failwith "divergence"
    else
      match Stallhide_cpu.Engine.run Stallhide_cpu.Engine.default_config hier mem ~clock ctx with
      | Stallhide_cpu.Engine.Halted -> ctx
      | Stallhide_cpu.Engine.Yielded _ -> go (n + 1)
      | s -> failwith (Format.asprintf "stop: %a" Stallhide_cpu.Engine.pp_stop s)
  in
  go 0

let qcheck_instrumentation_preserves_semantics =
  QCheck.Test.make ~name:"sfi+primary+scavenger preserve semantics" ~count:150
    (QCheck.make
       ~print:(fun is -> String.concat "; " (List.map Instr.to_string is))
       gen_straightline)
    (fun instrs ->
      let items = List.map (fun i -> Stallhide_isa.Program.Ins i) instrs in
      let prog = Stallhide_isa.Program.assemble (items @ [ Stallhide_isa.Program.Ins Instr.Halt ]) in
      let build_mem () =
        let mem = Address_space.create ~bytes:2048 in
        let base = Address_space.alloc mem ~bytes:512 in
        List.iteri (fun k v -> Address_space.store mem (base + (k * 8)) v)
          (List.init 64 (fun k -> (k * 29) + 3));
        (mem, base)
      in
      let mem1, base1 = build_mem () in
      let plain = run_to_halt prog mem1 [ (Stallhide_isa.Reg.r1, base1) ] in
      (* SFI, then the full yield pipeline with Always policy *)
      let sfi_prog, _, _ = Sfi_pass.run Sfi_pass.default_opts prog in
      let est =
        {
          Gain_cost.miss_probability = (fun _ -> Some 1.0);
          Gain_cost.stall_per_miss = (fun _ -> Some 196.0);
        }
      in
      let inst =
        Pipeline.instrument_with ~estimates:est
          ~primary:{ Primary_pass.default_opts with Primary_pass.policy = Gain_cost.Always }
          ~scavenger_interval:50 sfi_prog
      in
      let mem2, base2 = build_mem () in
      let instrumented = run_to_halt inst.Pipeline.program mem2 [ (Stallhide_isa.Reg.r1, base2) ] in
      let regs_ok =
        Stallhide_cpu.Context.regs_array plain = Stallhide_cpu.Context.regs_array instrumented
      in
      let mem_ok =
        List.for_all
          (fun k ->
            Address_space.load mem1 (base1 + (k * 8)) = Address_space.load mem2 (base2 + (k * 8)))
          (List.init 64 Fun.id)
      in
      regs_ok && mem_ok)

(* --- Metrics / Experiment --- *)

let test_metrics_math () =
  let r =
    {
      Stallhide_runtime.Scheduler.cycles = 1000;
      stall = 300;
      switch_cycles = 200;
      switches = 10;
      instructions = 400;
      completed = 2;
      faults = [];
    }
  in
  let m = Metrics.of_sched ~label:"x" ~ops:50 r in
  Alcotest.(check int) "busy" 500 m.Metrics.busy;
  Alcotest.(check (float 0.0001)) "efficiency" 0.5 m.Metrics.efficiency;
  Alcotest.(check (float 0.0001)) "throughput" 50.0 m.Metrics.throughput;
  let m2 = Metrics.of_sched ~label:"y" ~ops:50 { r with Stallhide_runtime.Scheduler.cycles = 500 } in
  Alcotest.(check (float 0.0001)) "speedup" 2.0 (Metrics.speedup m2 m)

let test_experiment_formatting () =
  Alcotest.(check string) "ff" "3.14" (Experiment.ff 3.14159);
  Alcotest.(check string) "ff decimals" "3.1" (Experiment.ff ~decimals:1 3.14159);
  Alcotest.(check string) "pct" "12.5%" (Experiment.pct 0.125);
  Alcotest.(check string) "fi small" "999" (Experiment.fi 999);
  Alcotest.(check string) "fi thousands" "1,234,567" (Experiment.fi 1234567);
  Alcotest.(check string) "fi negative" "-1,000" (Experiment.fi (-1000));
  Alcotest.(check string) "nan" "-" (Experiment.ff Float.nan)

let test_metrics_row_shape () =
  let m =
    Metrics.of_sched ~label:"t" ~ops:10
      {
        Stallhide_runtime.Scheduler.cycles = 100;
        stall = 10;
        switch_cycles = 5;
        switches = 1;
        instructions = 50;
        completed = 1;
        faults = [];
      }
  in
  Alcotest.(check int) "row arity matches header"
    (List.length Experiment.metrics_header)
    (List.length (Experiment.metrics_row m))

(* --- pinned profiles ---

   [Pipeline.profile] samples on the µop loop and builds the profile
   over flat per-pc arrays. Neither may move a sample or a float: the
   MD5 of [Profile.save], the profiling run's length and its PMU
   overhead are pinned for the ten registered workloads and both
   serving twins at seed 1, as the hooked interpreter and the
   Hashtbl-based build produced them. *)

module Smp_harness = Stallhide_smp.Harness

(* the serving harness's twins at seed 1 (so workload seeds 2 and 3) *)
let twin_params = { Smp_harness.default_params with Smp_harness.seed = 1 }

let kv_twin () = Smp_harness.kv_twin twin_params

let scav_twin () = Smp_harness.scav_twin twin_params

let pinned_profiles =
  [
    ("pointer-chase", "fc90a53343fa17fb8a09136518abf30b", 32480, 10400);
    ("hash-probe", "d497ea9dcc400f85118c503f7459658a", 46056, 13520);
    ("btree", "a143495fd65197164e297658d7dbde97", 300355, 92680);
    ("array-scan", "4c1a54547f1d67760586e00e5a62bab2", 343520, 95200);
    ("hash-join", "0377c828ad99cdbadbf6fb83592d52e0", 148310, 46800);
    ("kv-server", "f8f356761f0557dce806696203d92515", 50546, 13960);
    ("graph-bfs", "3f8d40846dacbbb2a400b69df9c51e41", 1202414, 264800);
    ("group-by", "f032a1a2690a7566aa38418409f47741", 44924, 13320);
    ("offload", "8ee17e295f6e715af8ab4406e778d5c0", 29520, 7720);
    ("txn-oltp", "d390f3f87224c750f217e527d591d204", 20764, 5840);
    ("kv-twin", "339c20d9121ca734554440b30393a6b4", 159526, 40720);
    ("scav-twin", "cdb597aa2d2f4e37472ee2355fcc1f63", 423562, 125240);
  ]

let pinned_workload = function
  | "kv-twin" -> kv_twin ()
  | "scav-twin" -> scav_twin ()
  | name -> Stallhide_why.Why.make_workload name ~lanes:4 ~ops:40 ~manual:false ~seed:1

let test_profiles_pinned () =
  List.iter
    (fun (name, digest, run_cycles, overhead) ->
      let p = Pipeline.profile (pinned_workload name) in
      Alcotest.(check string)
        (name ^ ": Profile.save digest")
        digest
        (Digest.to_hex (Digest.string (Stallhide_pmu.Profile.save p.Pipeline.profile)));
      Alcotest.(check int) (name ^ ": run cycles") run_cycles p.Pipeline.run_cycles;
      Alcotest.(check int) (name ^ ": overhead cycles") overhead p.Pipeline.overhead_cycles)
    pinned_profiles

(* --- pinned placements ---

   [Pipeline.place] is the one step from a placement to an instrumented
   program. For the workloads above, under each placement, it must give
   what [Baselines.run_pgo], [run_static] and [run_hybrid] (and, for the
   twins, [Smp.Harness.instrument_twin]) gave before it replaced their
   three copies: MD5s of the program listing and of [orig_of_new], the
   primary yield sites, and the scavenger pass's insertions (-1 when
   the pass did not run). The scavenger twin is placed at the serving
   harness's scavenger interval, 150. *)

let pinned_placements =
  [
    ("pointer-chase", Pipeline.Pgo, "a4a0870fd626c03da9a67fcd67e36e2c", "d0e155b1ff9ec89c40aa895901f28c9b", 1, -1);
    ("pointer-chase", Pipeline.Static, "4c444922992b6c2ecb5f3a559569f405", "01bed3f4cb83a4433a0f20fb7eb78aa3", 1, -1);
    ("pointer-chase", Pipeline.Hybrid, "a4a0870fd626c03da9a67fcd67e36e2c", "d0e155b1ff9ec89c40aa895901f28c9b", 1, -1);
    ("hash-probe", Pipeline.Pgo, "b9946ec4d6e8703d8cc0871757d9293e", "c31b9e99b01c67a33d62c6e5db6caa81", 1, -1);
    ("hash-probe", Pipeline.Static, "9027066975c0925658cf043447ddca43", "563e90a36c5ab1e5802d5dc737106146", 2, -1);
    ("hash-probe", Pipeline.Hybrid, "b9946ec4d6e8703d8cc0871757d9293e", "c31b9e99b01c67a33d62c6e5db6caa81", 1, -1);
    ("btree", Pipeline.Pgo, "6af3e97b187bbc31fdbd5cb10afd7033", "46535f147d67f4ca39c4b4660813f5e0", 1, -1);
    ("btree", Pipeline.Static, "12e73af6ef11fe0667332fc7b7c2b593", "9f7083b0ade140bf73ac4789dc76060b", 5, -1);
    ("btree", Pipeline.Hybrid, "6af3e97b187bbc31fdbd5cb10afd7033", "46535f147d67f4ca39c4b4660813f5e0", 1, -1);
    ("array-scan", Pipeline.Pgo, "d8ae332d47dd2bf56a9512a5e6e7294d", "982fda07351eb1e92dab2e53f614c13b", 1, -1);
    ("array-scan", Pipeline.Static, "6494686d45eae60fe46f53842db75934", "a890635d7987109737c27a9354ae9802", 1, -1);
    ("array-scan", Pipeline.Hybrid, "d8ae332d47dd2bf56a9512a5e6e7294d", "982fda07351eb1e92dab2e53f614c13b", 1, -1);
    ("hash-join", Pipeline.Pgo, "53a8a45aaa940bb8f0b151e09a0a9685", "df2774f2380c9fda24010239f30fd29e", 2, -1);
    ("hash-join", Pipeline.Static, "ad6721013f834b833732752fd649cb8e", "67ef95ffc591ed604e8649cb897c3116", 6, -1);
    ("hash-join", Pipeline.Hybrid, "53a8a45aaa940bb8f0b151e09a0a9685", "df2774f2380c9fda24010239f30fd29e", 2, -1);
    ("kv-server", Pipeline.Pgo, "528be2da3fa34b18a8e64fb02ffb6b57", "4fce305daf7791b75865a20ede933d7f", 2, -1);
    ("kv-server", Pipeline.Static, "0dcb08d56ac11b6dad4a6b3f61c09680", "1adb88b86e1d1e8684a00ea0c054ee74", 2, -1);
    ("kv-server", Pipeline.Hybrid, "528be2da3fa34b18a8e64fb02ffb6b57", "4fce305daf7791b75865a20ede933d7f", 2, -1);
    ("graph-bfs", Pipeline.Pgo, "4e5383cbcd223d58c58b33fd1b9d1e3a", "4553df2bdb47d478ce9e911bc2276a8a", 0, -1);
    ("graph-bfs", Pipeline.Static, "7a098ddd41e23fc893c956f87bbfd41a", "6cd86c111871396b74960eabf423ee33", 5, -1);
    ("graph-bfs", Pipeline.Hybrid, "4e5383cbcd223d58c58b33fd1b9d1e3a", "4553df2bdb47d478ce9e911bc2276a8a", 0, -1);
    ("group-by", Pipeline.Pgo, "fae3ae9405b329fec6c46ff4b5998777", "a2384164546bae91f9d1cac53011ebef", 2, -1);
    ("group-by", Pipeline.Static, "892ad186cb95ab631b2d4db1ec5a82e3", "15a0faa44ee15f148c3b4c604c2cc79e", 2, -1);
    ("group-by", Pipeline.Hybrid, "fae3ae9405b329fec6c46ff4b5998777", "a2384164546bae91f9d1cac53011ebef", 2, -1);
    ("offload", Pipeline.Pgo, "df9dc3cb6c6b176c23c063d231c4779d", "c3d5b5bdf8d3b828ac273926f7481e8c", 2, -1);
    ("offload", Pipeline.Static, "673408e0f4891a9213e18bfcd2bf2272", "245f08fb32f6671021b2795135e7bdee", 2, -1);
    ("offload", Pipeline.Hybrid, "df9dc3cb6c6b176c23c063d231c4779d", "c3d5b5bdf8d3b828ac273926f7481e8c", 2, -1);
    ("txn-oltp", Pipeline.Pgo, "f6297f5f173c3aea68bbba3c6f42b363", "fb95195624cfd806970dc0edb080afa4", 0, -1);
    ("txn-oltp", Pipeline.Static, "11009a8d058678fa1c3f6cb14118817a", "28374d9e63cb292b91dc79329dc069c1", 48, -1);
    ("txn-oltp", Pipeline.Hybrid, "f066fcf9489d65e5f9f4c0c2b736050a", "7124e19734309a16faf67880b0dc06ab", 34, -1);
    ("kv-twin", Pipeline.Pgo, "3fdf2c1f8dd83fc6722a5afd1c261738", "edb631d85bdbf28932520600e309ec76", 1, -1);
    ("kv-twin", Pipeline.Static, "967cc9cbb011a015e1d3e6805ccdd734", "6e73f26eac0d6d5eb84a472b5185b5ea", 2, -1);
    ("kv-twin", Pipeline.Hybrid, "3fdf2c1f8dd83fc6722a5afd1c261738", "edb631d85bdbf28932520600e309ec76", 1, -1);
    ("scav-twin", Pipeline.Pgo, "fae3ae9405b329fec6c46ff4b5998777", "a2384164546bae91f9d1cac53011ebef", 2, 0);
    ("scav-twin", Pipeline.Static, "892ad186cb95ab631b2d4db1ec5a82e3", "15a0faa44ee15f148c3b4c604c2cc79e", 2, 0);
    ("scav-twin", Pipeline.Hybrid, "fae3ae9405b329fec6c46ff4b5998777", "a2384164546bae91f9d1cac53011ebef", 2, 0);
  ]

let listing_digest p =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Stallhide_isa.Program.pp_listing p))

let map_digest m =
  Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int m))))

let test_placements_pinned () =
  List.iter
    (fun (name, placement, listing, map, yield_sites, scav_inserted) ->
      let label = name ^ "/" ^ Pipeline.placement_name placement in
      let scavenger_interval =
        if name = "scav-twin" then Some twin_params.Smp_harness.scav_interval else None
      in
      let _, inst = Pipeline.place ~placement ?scavenger_interval (pinned_workload name) in
      Alcotest.(check string) (label ^ ": listing") listing (listing_digest inst.Pipeline.program);
      Alcotest.(check string) (label ^ ": orig_of_new") map (map_digest inst.Pipeline.orig_of_new);
      Alcotest.(check int) (label ^ ": yield sites") yield_sites
        inst.Pipeline.primary.Primary_pass.yield_sites;
      Alcotest.(check int) (label ^ ": scavenger insertions") scav_inserted
        (match inst.Pipeline.scavenger with
        | Some r -> r.Stallhide_binopt.Scavenger_pass.inserted
        | None -> -1))
    pinned_placements;
  (* the serving harness places both twins the same way, verifier-clean *)
  List.iter
    (fun placement ->
      let pinned name =
        let _, _, listing, _, _, _ =
          List.find (fun (n, p, _, _, _, _) -> n = name && p = placement) pinned_placements
        in
        listing
      in
      let kv, scav, errors, warnings =
        Smp_harness.instrument_twins { twin_params with Smp_harness.placement }
      in
      let label = "harness/" ^ Pipeline.placement_name placement in
      Alcotest.(check string) (label ^ ": kv twin") (pinned "kv-twin") (listing_digest kv);
      Alcotest.(check string) (label ^ ": scav twin") (pinned "scav-twin") (listing_digest scav);
      Alcotest.(check int) (label ^ ": diagnostics") 0 (errors + warnings))
    Pipeline.[ Pgo; Static; Hybrid ]

(* Profiling allocates only when a sampler fires, and keeps samples
   in flat chunks: far below one minor word per profiled instruction.
   Per-instruction hooks on the reference interpreter take about 27. *)
let test_profile_allocation () =
  let w = kv_twin () in
  let r =
    Stallhide_runtime.Scheduler.run_sequential (Hierarchy.create Memconfig.default)
      w.Workload.image (Workload.contexts w)
  in
  let w = kv_twin () in
  let m0 = Gc.minor_words () in
  let (_ : Pipeline.profiled) = Pipeline.profile w in
  let instructions = r.Stallhide_runtime.Scheduler.instructions in
  let per_instr = (Gc.minor_words () -. m0) /. float_of_int instructions in
  if per_instr > 6.0 then
    Alcotest.failf "%.1f minor words per profiled instruction (bound 6)" per_instr

let () =
  Alcotest.run "core"
    [
      ( "pipeline",
        [
          Alcotest.test_case "profile finds miss site" `Quick test_profile_finds_miss_site;
          Alcotest.test_case "profiles pinned" `Quick test_profiles_pinned;
          Alcotest.test_case "placements pinned" `Quick test_placements_pinned;
          Alcotest.test_case "profile allocation" `Quick test_profile_allocation;
          Alcotest.test_case "oracle matches profile" `Quick test_oracle_matches_profile;
          Alcotest.test_case "resident loop left alone" `Quick test_resident_loop_left_alone;
          Alcotest.test_case "instrument artifacts" `Quick test_instrument_artifacts;
          Alcotest.test_case "no scavenger phase" `Quick test_instrument_without_scavenger;
          Alcotest.test_case "unmeetable interval rejected" `Quick
            test_instrument_rejects_interval;
        ] );
      ( "claims",
        [
          Alcotest.test_case "pgo beats none" `Quick test_pgo_beats_none;
          Alcotest.test_case "pgo competitive with manual" `Quick test_pgo_competitive_with_manual;
          Alcotest.test_case "smt limited" `Quick test_smt_limited;
          Alcotest.test_case "ooo short events only" `Quick test_ooo_hides_short_events_only;
          Alcotest.test_case "dual latency vs symmetric" `Quick test_dual_latency_vs_symmetric;
          Alcotest.test_case "conditional beats static on hits" `Quick
            test_conditional_oracle_beats_static_on_mixed;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_instrumentation_preserves_semantics ] );
      ( "metrics",
        [
          Alcotest.test_case "math" `Quick test_metrics_math;
          Alcotest.test_case "formatting" `Quick test_experiment_formatting;
          Alcotest.test_case "row shape" `Quick test_metrics_row_shape;
        ] );
    ]
