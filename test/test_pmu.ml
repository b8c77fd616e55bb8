open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_pmu
module W = Stallhide_workloads.Workload
module Gen = Stallhide_check.Gen

let cfg = Memconfig.default

let dram = cfg.Memconfig.dram_latency

let l1 = cfg.Memconfig.l1.Memconfig.latency

(* A lane-0 pointer chase whose every hop is a DRAM/L3 miss plus a warm
   accumulator load that always hits. *)
let chase_src =
  {|
loop:
  load r1, [r1]      # miss site (pc 0)
  load r3, [r4]      # warm site (pc 1)
  opmark
  sub r2, r2, 1
  br gt r2, 0, loop
  halt
|}

let build_chase ~hops =
  let prog = Asm.parse chase_src in
  let mem = Address_space.create ~bytes:(1 lsl 22) in
  let (_ : int) = Address_space.alloc mem ~bytes:64 in
  let nodes = 4096 in
  let base = Address_space.alloc mem ~bytes:(nodes * 64) in
  for i = 0 to nodes - 1 do
    Address_space.store mem (base + (i * 64)) (base + (((i + 1) mod nodes) * 64))
  done;
  let warm = Address_space.alloc mem ~bytes:64 in
  let ctx = Context.create ~id:0 ~mode:Context.Primary prog in
  Context.set_regs ctx [ (Reg.r1, base); (Reg.r2, hops); (Reg.r4, warm) ];
  (prog, mem, ctx)

let run_with hooks ~hops =
  let prog, mem, ctx = build_chase ~hops in
  let hier = Hierarchy.create cfg in
  let clock = ref 0 in
  let engine = { Engine.default_config with Engine.hooks } in
  (match Engine.run engine hier mem ~clock ctx with
  | Engine.Halted -> ()
  | s -> Alcotest.fail (Format.asprintf "unexpected stop %a" Engine.pp_stop s));
  (prog, !clock)

(* --- aggregate counts --- *)

(* The fixed counters a PMU exposes, read from what the simulator
   already keeps: the context (instructions, stall cycles), the
   hierarchy's demand counters (loads by serving level), an opmark
   counter (ops) and a branch observer. *)
let test_counters () =
  let hops = 500 in
  let _, mem, ctx = build_chase ~hops in
  let hier = Hierarchy.create cfg in
  let ops, count_ops = Stallhide.Baselines.op_counter () in
  let branches = ref 0 and taken_branches = ref 0 in
  let on_branch ~ctx:_ ~pc:_ ~target:_ ~taken ~cycle:_ =
    incr branches;
    if taken then incr taken_branches
  in
  let hooks = Events.compose [ count_ops; { Events.nop with Events.on_branch } ] in
  (match Engine.run { Engine.default_config with Engine.hooks } hier mem ~clock:(ref 0) ctx with
  | Engine.Halted -> ()
  | s -> Alcotest.fail (Format.asprintf "unexpected stop %a" Engine.pp_stop s));
  let m = Hierarchy.stats hier in
  Alcotest.(check int) "instructions" ((hops * 5) + 1) ctx.Context.instructions;
  Alcotest.(check int) "loads" (hops * 2) m.Mem_stats.demand_accesses;
  Alcotest.(check int) "ops" hops !ops;
  Alcotest.(check int) "branches" hops !branches;
  Alcotest.(check int) "taken branches" (hops - 1) !taken_branches;
  (* hop loads miss (4096 nodes >> L1+L2), warm load hits after first touch *)
  Alcotest.(check bool) "mostly dram" true (m.Mem_stats.dram_accesses >= hops - 1);
  Alcotest.(check bool) "warm hits in l1" true (m.Mem_stats.l1_hits >= hops - 1);
  Alcotest.(check bool) "stall accumulates" true
    (ctx.Context.stall_cycles >= (hops - 1) * (dram - l1))

(* --- PEBS --- *)

let test_pebs_period () =
  let p = Pebs.create ~event:Pebs.Loads_all ~period:10 () in
  let hops = 500 in
  let _, _ = run_with (Pebs.hooks p) ~hops in
  Alcotest.(check int) "occurrences = all loads" (hops * 2) (Pebs.occurrences p);
  Alcotest.(check int) "samples = occurrences/period" (hops * 2 / 10) (Pebs.sample_count p);
  Alcotest.(check int) "nothing dropped" 0 (Pebs.dropped p)

let test_pebs_miss_event_precision () =
  let p = Pebs.create ~event:Pebs.L2_miss_loads ~period:7 () in
  let _, _ = run_with (Pebs.hooks p) ~hops:500 in
  (* Every miss sample must carry the pc of the missing load (pc 0). *)
  List.iter
    (fun (s : Pebs.sample) -> Alcotest.(check int) "precise pc" 0 s.Pebs.pc)
    (Pebs.samples p);
  Alcotest.(check bool) "saw misses" true (Pebs.sample_count p > 0)

let test_pebs_stall_event () =
  let p = Pebs.create ~event:Pebs.Stall_cycles ~period:1000 () in
  let _, _ = run_with (Pebs.hooks p) ~hops:500 in
  (* ~500 misses x 196 stall cycles = ~98k occurrences -> ~98 samples *)
  let n = Pebs.sample_count p in
  Alcotest.(check bool) "stall samples in range" true (n > 50 && n < 150);
  List.iter (fun (s : Pebs.sample) -> Alcotest.(check int) "attributed to load" 0 s.Pebs.pc)
    (Pebs.samples p)

let test_pebs_buffer_overflow () =
  let p = Pebs.create ~buffer_capacity:10 ~event:Pebs.Loads_all ~period:1 () in
  let _, _ = run_with (Pebs.hooks p) ~hops:100 in
  Alcotest.(check int) "buffer capped" 10 (Pebs.sample_count p);
  Alcotest.(check int) "rest dropped" (200 - 10) (Pebs.dropped p);
  Pebs.clear p;
  Alcotest.(check int) "cleared" 0 (Pebs.sample_count p)

let test_pebs_bad_period () =
  match Pebs.create ~event:Pebs.Loads_all ~period:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "period 0 accepted"

(* --- LBR --- *)

let test_lbr_ring () =
  let l = Lbr.create ~depth:4 ~snapshot_period:50 () in
  let _, _ = run_with (Lbr.hooks l) ~hops:100 in
  Alcotest.(check bool) "snapshots taken" true (Lbr.snapshot_count l > 0);
  List.iter
    (fun snap ->
      Alcotest.(check bool) "ring bounded" true (Array.length snap <= 4);
      (* every record is the loop back-edge: from pc 4 to pc 0 *)
      Array.iter
        (fun (r : Lbr.record) ->
          Alcotest.(check int) "from" 4 r.Lbr.from_pc;
          Alcotest.(check int) "to" 0 r.Lbr.to_pc)
        snap;
      (* timestamps ascend *)
      for i = 0 to Array.length snap - 2 do
        Alcotest.(check bool) "cycles ascend" true (snap.(i).Lbr.cycle < snap.(i + 1).Lbr.cycle)
      done)
    (Lbr.snapshots l)

let test_lbr_depth_bound () =
  (* a deeper ring keeps more records per snapshot *)
  let shallow = Lbr.create ~depth:2 ~snapshot_period:97 () in
  let deep = Lbr.create ~depth:16 ~snapshot_period:97 () in
  let _, _ = run_with (Events.compose [ Lbr.hooks shallow; Lbr.hooks deep ]) ~hops:200 in
  let max_len l =
    List.fold_left (fun m s -> max m (Array.length s)) 0 (Lbr.snapshots l)
  in
  Alcotest.(check int) "shallow capped at 2" 2 (max_len shallow);
  Alcotest.(check bool) "deep keeps more" true (max_len deep > 2);
  match Lbr.create ~snapshot_period:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "period 0 accepted"

let test_lbr_clear () =
  let l = Lbr.create ~snapshot_period:10 () in
  let _, _ = run_with (Lbr.hooks l) ~hops:50 in
  Lbr.clear l;
  Alcotest.(check int) "cleared" 0 (Lbr.snapshot_count l)

(* --- Profile --- *)

let profile_of_chase ~hops =
  let prog, mem, ctx = build_chase ~hops in
  let hier = Hierarchy.create cfg in
  let exec = Pebs.create ~event:Pebs.Loads_all ~period:13 () in
  let miss = Pebs.create ~event:Pebs.L2_miss_loads ~period:7 () in
  let stall = Pebs.create ~event:Pebs.Stall_cycles ~period:97 () in
  let lbr = Lbr.create ~snapshot_period:111 () in
  let hooks =
    Events.compose [ Pebs.hooks exec; Pebs.hooks miss; Pebs.hooks stall; Lbr.hooks lbr ]
  in
  let clock = ref 0 in
  let engine = { Engine.default_config with Engine.hooks } in
  (match Engine.run engine hier mem ~clock ctx with
  | Engine.Halted -> ()
  | _ -> Alcotest.fail "profiling run did not halt");
  Profile.build ~program:prog ~exec ~miss ~stall ~lbr ()

let test_profile_estimates () =
  let p = profile_of_chase ~hops:2000 in
  (* pc 0 misses ~always; pc 1 ~never. *)
  (match Profile.miss_probability p 0 with
  | Some prob -> Alcotest.(check bool) "miss prob high" true (prob > 0.6)
  | None -> Alcotest.fail "no estimate for miss site");
  (match Profile.miss_probability p 1 with
  | Some prob -> Alcotest.(check bool) "warm prob low" true (prob < 0.1)
  | None -> () (* acceptable: maybe unsampled *));
  (match Profile.stall_per_miss p 0 with
  | Some s -> Alcotest.(check bool) "stall per miss near dram-l1" true (s > 100.0 && s < 300.0)
  | None -> Alcotest.fail "no stall estimate");
  Alcotest.(check (list int)) "candidates are the miss site" [ 0 ] (Profile.candidate_loads p);
  Alcotest.(check bool) "samples collected" true (Profile.total_samples p > 100)

let test_profile_lbr_latency () =
  let p = profile_of_chase ~hops:2000 in
  (* The loop body [0..4] costs ~dram + small per iteration; the miss
     load should absorb most of it under base-cost apportioning. *)
  match Profile.pc_cycles p 0 with
  | Some c -> Alcotest.(check bool) "block latency attributed" true (c > 20.0)
  | None -> Alcotest.fail "no LBR estimate for pc 0"

let test_profile_edge_heat () =
  let p = profile_of_chase ~hops:2000 in
  Alcotest.(check bool) "back edge hot" true (Profile.edge_heat p 4 0 > 10)

(* --- persistence --- *)

let test_profile_roundtrip () =
  let prog, _, _ = build_chase ~hops:10 in
  let p = profile_of_chase ~hops:2000 in
  let text = Profile.save p in
  let p2 = Profile.load ~program:prog text in
  Alcotest.(check int) "samples" (Profile.total_samples p) (Profile.total_samples p2);
  for pc = 0 to Program.length prog - 1 do
    Alcotest.(check (option (float 0.0001)))
      (Printf.sprintf "miss prob pc %d" pc)
      (Profile.miss_probability p pc)
      (Profile.miss_probability p2 pc);
    Alcotest.(check (option (float 0.0001)))
      (Printf.sprintf "stall/miss pc %d" pc)
      (Profile.stall_per_miss p pc)
      (Profile.stall_per_miss p2 pc);
    Alcotest.(check int)
      (Printf.sprintf "stalls at pc %d" pc)
      (Profile.stalls_at p pc) (Profile.stalls_at p2 pc);
    Alcotest.(check (option (float 0.0001)))
      (Printf.sprintf "lbr pc %d" pc)
      (Profile.pc_cycles p pc) (Profile.pc_cycles p2 pc)
  done;
  Alcotest.(check int) "edges" (Profile.edge_heat p 4 0) (Profile.edge_heat p2 4 0)

let test_profile_load_rejects () =
  let prog, _, _ = build_chase ~hops:10 in
  (match Profile.load ~program:prog "garbage" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "garbage accepted");
  (match Profile.load ~program:prog "stallhide-profile v1\nmeta program_length=999 samples=0\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "wrong program accepted");
  match Profile.load ~program:prog "stallhide-profile v1\nwat 1 2 3\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "junk line accepted"

(* --- front-end filtering (§3.2 footnote) --- *)

(* A hot loop bigger than the icache: every stall is front-end. *)
let thrash_cfg =
  { cfg with Memconfig.icache = Some { Memconfig.size_bytes = 1024; ways = 4; latency = 14 } }

let thrash_prog () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "loop:\n";
  for _ = 1 to 300 do
    Buffer.add_string b "add r1, r1, 1\n"
  done;
  Buffer.add_string b "sub r2, r2, 1\nbr gt r2, 0, loop\nhalt";
  Asm.parse (Buffer.contents b)

let test_frontend_filtering () =
  let prog = thrash_prog () in
  let mem = Address_space.create ~bytes:1024 in
  let hier = Hierarchy.create thrash_cfg in
  let stall = Pebs.create ~event:Pebs.Stall_cycles ~period:13 () in
  let fe = Pebs.create ~event:Pebs.Frontend_stalls ~period:13 () in
  let hooks = Events.compose [ Pebs.hooks stall; Pebs.hooks fe ] in
  let ctx = Context.create ~id:0 ~mode:Context.Primary prog in
  Context.set_regs ctx [ (Reg.r2, 50) ];
  let clock = ref 0 in
  (match Engine.run { Engine.default_config with Engine.hooks } hier mem ~clock ctx with
  | Engine.Halted -> ()
  | s -> Alcotest.fail (Format.asprintf "stop %a" Engine.pp_stop s));
  Alcotest.(check bool) "generic event saw the stalls" true (Pebs.sample_count stall > 50);
  (* without the frontend unit, raw stalls look like memory stalls *)
  let contaminated = Profile.build ~program:prog ~stall () in
  let unfiltered_total =
    List.fold_left ( + ) 0
      (List.init (Program.length prog) (Profile.stalls_at contaminated))
  in
  Alcotest.(check bool) "contaminated profile reports memory stalls" true
    (unfiltered_total > 1000);
  (* with it, nearly everything is filtered out *)
  let filtered = Profile.build ~program:prog ~stall ~frontend:fe () in
  let filtered_total =
    List.fold_left ( + ) 0 (List.init (Program.length prog) (Profile.stalls_at filtered))
  in
  Alcotest.(check bool)
    (Printf.sprintf "filtered %d << contaminated %d" filtered_total unfiltered_total)
    true
    (filtered_total * 4 < unfiltered_total);
  (* raw view unchanged *)
  let raw_total =
    List.fold_left ( + ) 0 (List.init (Program.length prog) (Profile.raw_stalls_at filtered))
  in
  Alcotest.(check bool) "raw keeps the generic estimate" true (raw_total >= unfiltered_total / 2)

(* §3.2 overhead: 40 cycles per sample taken or dropped, on every unit
   the profiling run arms, FRONTEND_STALLS included. *)
let test_overhead_counts_every_unit () =
  let workload () =
    {
      W.name = "icache-thrash";
      program = thrash_prog ();
      image = Address_space.create ~bytes:1024;
      lanes = [| [ (Reg.r2, 50) ] |];
      ops_per_lane = 0;
      reset = W.no_reset;
    }
  in
  let profiled = Stallhide.Pipeline.profile ~mem_cfg:thrash_cfg (workload ()) in
  let pc = Stallhide.Pipeline.default_profile_config in
  let frontend =
    Pebs.create ~event:Pebs.Frontend_stalls ~period:(Option.get pc.frontend_period) ()
  in
  let units =
    [
      Pebs.create ~event:Pebs.Loads_all ~period:pc.exec_period ();
      Pebs.create ~event:Pebs.L2_miss_loads ~period:pc.miss_period ();
      Pebs.create ~event:Pebs.Stall_cycles ~period:pc.stall_period ();
      frontend;
    ]
  in
  let w = workload () in
  let engine =
    { Engine.default_config with Engine.hooks = Events.compose (List.map Pebs.hooks units) }
  in
  ignore
    (Stallhide_runtime.Scheduler.run_sequential ~engine (Hierarchy.create thrash_cfg)
       w.W.image (W.contexts w));
  Alcotest.(check bool) "front-end samples taken" true (Pebs.sample_count frontend > 0);
  let want =
    List.fold_left (fun a u -> a + (40 * (Pebs.sample_count u + Pebs.dropped u))) 0 units
  in
  Alcotest.(check int) "overhead over all four units" want
    profiled.Stallhide.Pipeline.overhead_cycles

(* --- the probe on the µop loop vs the hooks on the reference ---

   [Pebs.attach]/[Lbr.attach] feed the units from a probe on the
   decoded-µop loop; [Pebs.hooks]/[Lbr.hooks] feed identical units from
   per-instruction hooks on the reference interpreter. Every sample,
   drop, occurrence, injected degradation and LBR snapshot must agree. *)

(* Tiny private caches, so small programs also hit in L2 and L3. *)
let mem_of ~icache ~small =
  let cfg =
    if small then
      {
        cfg with
        Memconfig.l1 = { cfg.Memconfig.l1 with Memconfig.size_bytes = 256; ways = 2 };
        l2 = { cfg.Memconfig.l2 with Memconfig.size_bytes = 1024; ways = 2 };
      }
    else cfg
  in
  if icache then
    { cfg with Memconfig.icache = Some { Memconfig.size_bytes = 256; ways = 2; latency = 14 } }
  else cfg

(* Calls, returns, jumps, prefetches, conditional and plain yields and
   accelerator waits, ending by lane: r3 = 0 halts, 1 divides by zero,
   2 runs off the end of the program. *)
let control_src =
  {|
  mov r5, 0
top:
  call body
  sub r2, r2, 1
  br gt r2, 0, top
  br eq r3, 0, done
  br eq r3, 1, divz
  jmp tail
divz:
  div r4, r4, r5
done:
  halt
body:
  load r6, [r1]
  prefetch [r1+4096]
  cyield [r1+8192]
  aissue [r1]
  add r1, r1, 64
  await r7
  yield
  ret
tail:
  nop
|}

let control_workload () =
  let image = Address_space.create ~bytes:(1 lsl 16) in
  let base = Address_space.alloc image ~bytes:(1 lsl 15) in
  {
    W.name = "control";
    program = Asm.parse control_src;
    image;
    lanes =
      Array.init 3 (fun lane -> [ (Reg.r1, base + (lane * 64)); (Reg.r2, 12); (Reg.r3, lane) ]);
    ops_per_lane = 0;
    reset = W.no_reset;
  }

(* A generated program whose [lane] starts with its arena and data
   bases out of the image: its first memory access faults. *)
let with_faulting_lane (w : W.t) lane =
  let lane = lane mod Array.length w.W.lanes in
  let lanes =
    Array.mapi (fun i regs -> if i = lane then regs @ [ (Reg.r0, -64); (Reg.r1, -64) ] else regs)
      w.W.lanes
  in
  { w with W.lanes }

type probe_case = {
  seed : int;
  source : int;  (* 0 generated, 1 generated + faulting lane, 2 control, 3.. a workload *)
  periods : int list;  (* loads, beyond-L2, DRAM, stall cycles, front-end stalls *)
  lbr_period : int;
  depth : int;
  buffer : int option;
  max_snapshots : int option;
  degrade : bool;
  icache : bool;
  small_caches : bool;
  shaped : bool;  (* an additive stall shape on both arms *)
  ooo : int;
}

let events =
  [ Pebs.Loads_all; Pebs.L2_miss_loads; Pebs.L3_miss_loads; Pebs.Stall_cycles; Pebs.Frontend_stalls ]

let probe_case_of seed =
  let st = Random.State.make [| seed; 0x9b0e |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let maybe x = if Random.State.int st 3 = 0 then Some x else None in
  {
    seed;
    source =
      (if Random.State.int st 5 = 0 then 2 + Random.State.int st 4 else Random.State.int st 2);
    periods = List.map (fun _ -> pick [ 1; 2; 3; 17; 31; 127 ]) events;
    lbr_period = pick [ 1; 7; 211 ];
    depth = pick [ 1; 4; 32 ];
    buffer = maybe 8;
    max_snapshots = maybe 3;
    degrade = Random.State.bool st;
    icache = Random.State.bool st;
    small_caches = Random.State.bool st;
    shaped = Random.State.int st 3 = 0;
    ooo = pick [ 0; 0; 24 ];
  }

let show_probe_case c =
  Printf.sprintf
    "seed %d source %d periods [%s] lbr %d depth %d buffer %s max_snapshots %s degrade %b \
     icache %b small caches %b shaped %b ooo %d"
    c.seed c.source
    (String.concat ";" (List.map string_of_int c.periods))
    c.lbr_period c.depth
    (Option.fold ~none:"-" ~some:string_of_int c.buffer)
    (Option.fold ~none:"-" ~some:string_of_int c.max_snapshots)
    c.degrade c.icache c.small_caches
    c.shaped c.ooo

let case_workload c =
  let gen () =
    let case = Gen.case ~seed:c.seed () in
    Gen.workload ~prog:case.Gen.program case.Gen.cfg
  in
  match c.source with
  | 0 -> gen ()
  | 1 -> with_faulting_lane (gen ()) c.seed
  | 2 -> control_workload ()
  | 3 -> Stallhide_workloads.Offload.make ~lanes:2 ~ops:6 ~seed:c.seed ()
  | 4 -> Stallhide_workloads.Pointer_chase.make ~manual:true ~lanes:2 ~hops:20 ~seed:c.seed ()
  | _ -> Stallhide_txn.Txn_oltp.workload ~lanes:2 ~txns:3 ~seed:c.seed ()

(* One arm: the five PEBS units and an LBR, fed from a probe on the µop
   loop or from hooks on the reference interpreter. *)
let pmu_arm ~probe c =
  let w = case_workload c in
  let units =
    List.map2
      (fun event period -> Pebs.create ?buffer_capacity:c.buffer ~event ~period ())
      events c.periods
  in
  if c.degrade then
    List.iteri
      (fun i u -> Pebs.degrade u { Pebs.loss = 0.2; skid = 2; misattr = 0.2; seed = c.seed + i })
      units;
  let lbr =
    Lbr.create ~depth:c.depth ?max_snapshots:c.max_snapshots ~snapshot_period:c.lbr_period ()
  in
  let engine =
    {
      Engine.default_config with
      Engine.ooo_window = c.ooo;
      stall_shape =
        (if c.shaped then
           Array.init (Stallhide_isa.Program.length w.W.program) (fun pc -> (pc mod 7 * 40) - 60)
         else [||]);
    }
  in
  let engine =
    if probe then begin
      let p = Probe.create () in
      List.iter (fun u -> Pebs.attach u p) units;
      Lbr.attach lbr p;
      { engine with Engine.probe = Some p }
    end
    else { engine with Engine.hooks = Events.compose (Lbr.hooks lbr :: List.map Pebs.hooks units) }
  in
  let hier = Hierarchy.create (mem_of ~icache:c.icache ~small:c.small_caches) in
  let r =
    Stallhide_runtime.Scheduler.run_sequential ~engine hier w.W.image (W.contexts w)
  in
  (r, units, lbr)

let probe_matches_hooks c =
  let rr, ur, lr = pmu_arm ~probe:false c in
  let rf, uf, lf = pmu_arm ~probe:true c in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let module S = Stallhide_runtime.Scheduler in
  if rr.S.cycles <> rf.S.cycles || rr.S.faults <> rf.S.faults then
    fail "runs differ: %d vs %d cycles" rr.S.cycles rf.S.cycles;
  List.iter2
    (fun r f ->
      let name = Pebs.event_name (Pebs.event r) in
      if Pebs.samples r <> Pebs.samples f then
        fail "%s: %d hooked samples, %d probed, or they differ" name (Pebs.sample_count r)
          (Pebs.sample_count f);
      if Pebs.dropped r <> Pebs.dropped f then
        fail "%s: dropped %d vs %d" name (Pebs.dropped r) (Pebs.dropped f);
      if Pebs.occurrences r <> Pebs.occurrences f then
        fail "%s: occurrences %d vs %d" name (Pebs.occurrences r) (Pebs.occurrences f);
      if Pebs.degradation_injected r <> Pebs.degradation_injected f then
        fail "%s: degradation differs" name)
    ur uf;
  if Lbr.snapshots lr <> Lbr.snapshots lf then
    fail "LBR: %d hooked snapshots, %d probed, or they differ" (Lbr.snapshot_count lr)
      (Lbr.snapshot_count lf);
  true

let qcheck_probe_matches_hooks =
  QCheck.Test.make ~name:"probe on the µop loop = hooks on the reference" ~count:400
    (QCheck.make
       ~print:(fun seed -> show_probe_case (probe_case_of seed))
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed -> probe_matches_hooks (probe_case_of seed))

(* The deferred snapshot's two faulting exits, pinned: a fault after the
   pc check (division by zero) retires one instruction fewer than it
   counts; running off the end counts none. *)
let test_probe_fault_exits () =
  List.iter
    (fun lbr_period ->
      let c =
        {
          seed = 0;
          source = 2;
          periods = [ 1; 2; 3; 17; 31 ];
          lbr_period;
          depth = 4;
          buffer = None;
          max_snapshots = None;
          degrade = false;
          icache = true;
          small_caches = false;
          shaped = false;
          ooo = 0;
        }
      in
      let r, units, l = pmu_arm ~probe:true c in
      Alcotest.(check int) "two lanes fault" 2 (List.length r.Stallhide_runtime.Scheduler.faults);
      Alcotest.(check bool) "snapshots taken" true (Lbr.snapshot_count l > 0);
      Alcotest.(check bool) "loads sampled" true (Pebs.sample_count (List.hd units) > 0);
      ignore (probe_matches_hooks c : bool))
    [ 1; 2; 7 ]

(* [Pipeline.ground_truth] tallies per pc on the probe; an [on_load]
   hook on the reference interpreter builds the reference table. *)
let hooked_ground_truth (w : W.t) =
  let table = Hashtbl.create 64 in
  let on_load (info : Events.load_info) =
    let execs, misses, stall =
      Option.value (Hashtbl.find_opt table info.Events.pc) ~default:(0, 0, 0)
    in
    let miss = match info.Events.level with Hierarchy.L3 | Hierarchy.Dram -> 1 | _ -> 0 in
    Hashtbl.replace table info.Events.pc (execs + 1, misses + miss, stall + info.Events.stall)
  in
  let engine = { Engine.default_config with Engine.hooks = { Events.nop with Events.on_load } } in
  let hier = Hierarchy.create cfg in
  ignore (Stallhide_runtime.Scheduler.run_sequential ~engine hier w.W.image (W.contexts w));
  table

let test_ground_truth_matches_hook () =
  let bindings t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t []) in
  let load_pcs = ref 0 in
  let check label make =
    let want = bindings (hooked_ground_truth (make ())) in
    let got = bindings (Stallhide.Pipeline.ground_truth (make ())) in
    load_pcs := !load_pcs + List.length want;
    Alcotest.(check (list (pair int (triple int int int)))) label want got
  in
  for seed = 0 to 59 do
    let case = Gen.case ~seed () in
    check (Printf.sprintf "gen %d" seed) (fun () ->
        Gen.workload ~prog:case.Gen.program case.Gen.cfg)
  done;
  check "gen + faulting lane" (fun () ->
      let case = Gen.case ~seed:5 () in
      with_faulting_lane (Gen.workload ~prog:case.Gen.program case.Gen.cfg) 0);
  check "control" control_workload;
  List.iter
    (fun name ->
      check name (fun () ->
          Stallhide_why.Why.make_workload name ~lanes:2 ~ops:12 ~manual:false ~seed:3))
    Stallhide_why.Why.workload_names;
  Alcotest.(check bool) "load pcs compared" true (!load_pcs > 200)

let test_probe_tally_too_short () =
  let prog, mem, ctx = build_chase ~hops:3 in
  let p = Probe.create () in
  Probe.tally p ~length:(Program.length prog - 1);
  Alcotest.check_raises "short tally"
    (Invalid_argument "Probe.start: tally holds 5 pcs, program has 6") (fun () ->
      ignore
        (Engine.run { Engine.default_config with Engine.probe = Some p } (Hierarchy.create cfg)
           mem ~clock:(ref 0) ctx))

let () =
  Alcotest.run "pmu"
    [
      ("counters", [ Alcotest.test_case "ground truth" `Quick test_counters ]);
      ( "pebs",
        [
          Alcotest.test_case "period" `Quick test_pebs_period;
          Alcotest.test_case "precise miss pcs" `Quick test_pebs_miss_event_precision;
          Alcotest.test_case "stall attribution" `Quick test_pebs_stall_event;
          Alcotest.test_case "buffer overflow" `Quick test_pebs_buffer_overflow;
          Alcotest.test_case "bad period" `Quick test_pebs_bad_period;
        ] );
      ( "lbr",
        [
          Alcotest.test_case "ring + snapshots" `Quick test_lbr_ring;
          Alcotest.test_case "depth bound" `Quick test_lbr_depth_bound;
          Alcotest.test_case "clear" `Quick test_lbr_clear;
        ] );
      ( "profile",
        [
          Alcotest.test_case "estimates" `Quick test_profile_estimates;
          Alcotest.test_case "lbr latency" `Quick test_profile_lbr_latency;
          Alcotest.test_case "edge heat" `Quick test_profile_edge_heat;
          Alcotest.test_case "frontend filtering" `Quick test_frontend_filtering;
          Alcotest.test_case "save/load roundtrip" `Quick test_profile_roundtrip;
          Alcotest.test_case "load rejects bad input" `Quick test_profile_load_rejects;
          Alcotest.test_case "overhead counts every unit" `Quick test_overhead_counts_every_unit;
        ] );
      ( "probe",
        [
          QCheck_alcotest.to_alcotest ~long:false qcheck_probe_matches_hooks;
          Alcotest.test_case "faulting exits" `Quick test_probe_fault_exits;
          Alcotest.test_case "ground truth = on_load table" `Quick test_ground_truth_matches_hook;
          Alcotest.test_case "tally shorter than the program" `Quick test_probe_tally_too_short;
        ] );
    ]
