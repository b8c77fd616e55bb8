open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu

let cfg = Memconfig.default

let dram = cfg.Memconfig.dram_latency

let l1 = cfg.Memconfig.l1.Memconfig.latency

let setup src =
  let prog = Asm.parse src in
  let mem = Address_space.create ~bytes:(1 lsl 16) in
  let hier = Hierarchy.create cfg in
  let ctx = Context.create ~id:0 ~mode:Context.Primary prog in
  (prog, mem, hier, ctx)

let run ?(engine = Engine.default_config) ?deadline (_, mem, hier, ctx) =
  let clock = ref 0 in
  let stop = Engine.run engine hier mem ~clock ?deadline ctx in
  (stop, !clock)

let check_stop msg expected actual =
  Alcotest.(check string) msg expected (Format.asprintf "%a" Engine.pp_stop actual)

(* A stream fed by a fresh probe, and [engine] with that probe set. *)
let traced engine =
  let stream = Stallhide_obs.Stream.create () in
  let probe = Probe.create () in
  Stallhide_obs.Stream.attach stream probe;
  (stream, probe, { engine with Engine.probe = Some probe })

let both_loops = [ ("µop loop", true); ("reference", false) ]

(* --- functional semantics --- *)

let test_arith () =
  let env =
    setup
      {|
  mov r1, 10
  mov r2, 0
loop:
  add r2, r2, r1
  sub r1, r1, 1
  br gt r1, 0, loop
  halt
|}
  in
  let stop, _ = run env in
  check_stop "halts" "halted" stop;
  let _, _, _, ctx = env in
  Alcotest.(check int) "sum 1..10" 55 ctx.Context.regs.{2}

let test_ops_coverage () =
  let env =
    setup
      {|
  mov r1, 7
  mul r2, r1, 6
  div r3, r2, 5
  rem r4, r2, 5
  and r5, r2, 15
  or r6, r5, 16
  xor r7, r6, r6
  shl r8, r1, 2
  shr r9, r8, 1
  halt
|}
  in
  let stop, _ = run env in
  check_stop "halts" "halted" stop;
  let _, _, _, ctx = env in
  Alcotest.(check int) "mul" 42 ctx.Context.regs.{2};
  Alcotest.(check int) "div" 8 ctx.Context.regs.{3};
  Alcotest.(check int) "rem" 2 ctx.Context.regs.{4};
  Alcotest.(check int) "and" 10 ctx.Context.regs.{5};
  Alcotest.(check int) "or" 26 ctx.Context.regs.{6};
  Alcotest.(check int) "xor" 0 ctx.Context.regs.{7};
  Alcotest.(check int) "shl" 28 ctx.Context.regs.{8};
  Alcotest.(check int) "shr" 14 ctx.Context.regs.{9}

let test_memory_roundtrip () =
  let env = setup "mov r1, 128\nmov r2, 77\nstore [r1+8], r2\nload r3, [r1+8]\nhalt" in
  let stop, _ = run env in
  check_stop "halts" "halted" stop;
  let _, _, _, ctx = env in
  Alcotest.(check int) "store/load" 77 ctx.Context.regs.{3}

let test_call_ret () =
  let env =
    setup
      {|
  mov r1, 5
  call double
  call double
  halt
double:
  add r1, r1, r1
  ret
|}
  in
  let stop, _ = run env in
  check_stop "halts" "halted" stop;
  let _, _, _, ctx = env in
  Alcotest.(check int) "double twice" 20 ctx.Context.regs.{1}

(* --- faults --- *)

let expect_fault src =
  let env = setup src in
  match run env with
  | Engine.Fault _, _ -> ()
  | stop, _ -> Alcotest.fail (Format.asprintf "expected fault, got %a" Engine.pp_stop stop)

let test_faults () =
  expect_fault "mov r1, 0\ndiv r2, r1, r1\nhalt";
  expect_fault "mov r1, 0\nrem r2, r1, r1\nhalt";
  expect_fault "mov r1, 3\nload r2, [r1]\nhalt" (* unaligned *);
  expect_fault "mov r1, 99999999\nload r2, [r1]\nhalt" (* out of range *);
  expect_fault "mov r1, 99999999\nstore [r1], r1\nhalt";
  expect_fault "ret";
  expect_fault "mov r1, 1" (* runs off the end *)

let test_fault_sets_status () =
  let env = setup "ret" in
  let stop, _ = run env in
  (match stop with Engine.Fault _ -> () | _ -> Alcotest.fail "expected fault");
  let _, _, _, ctx = env in
  match ctx.Context.status with
  | Context.Faulted _ -> ()
  | _ -> Alcotest.fail "status not faulted"

let test_prefetch_bad_addr_is_noop () =
  let env = setup "mov r1, 99999999\nprefetch [r1]\nhalt" in
  let stop, _ = run env in
  check_stop "prefetch of bad address ignored" "halted" stop

(* --- timing --- *)

let test_add_timing () =
  let env = setup "mov r1, 0\nadd r1, r1, 1\nadd r1, r1, 1\nhalt" in
  let _, cycles = run env in
  Alcotest.(check int) "3 one-cycle ops" 3 cycles

let test_load_timing_cold_then_warm () =
  let env = setup "mov r1, 256\nload r2, [r1]\nload r3, [r1]\nhalt" in
  let _, cycles = run env in
  (* mov 1 + cold load (1 + dram) + warm load (1 + l1) *)
  Alcotest.(check int) "cycle accounting" (1 + (1 + dram) + (1 + l1)) cycles;
  let _, _, _, ctx = env in
  Alcotest.(check int) "stall recorded" (dram - l1) ctx.Context.stall_cycles

let test_ooo_window () =
  let engine = { Engine.default_config with Engine.ooo_window = 48 } in
  let env = setup "mov r1, 256\nload r2, [r1]\nhalt" in
  let _, cycles = run ~engine env in
  Alcotest.(check int) "ooo hides part of the stall" (1 + (1 + dram) - 48) cycles;
  let _, _, _, ctx = env in
  Alcotest.(check int) "paid stall reduced" (dram - l1 - 48) ctx.Context.stall_cycles

let test_deadline () =
  let env = setup "loop:\n  add r1, r1, 1\n  jmp loop" in
  let stop, cycles = run ~deadline:1000 env in
  check_stop "out of budget" "out-of-budget" stop;
  Alcotest.(check bool) "stopped near deadline" true (cycles >= 1000 && cycles < 1010)

(* --- yields --- *)

let test_yield_primary () =
  let env = setup "mov r1, 1\nyield\nhalt" in
  let stop, _ = run env in
  check_stop "primary yield" "yielded(primary@1)" stop;
  let _, _, _, ctx = env in
  Alcotest.(check int) "pc past yield" 2 ctx.Context.pc;
  (* resuming finishes the program *)
  let prog, mem, hier, _ = env in
  ignore prog;
  let clock = ref 0 in
  check_stop "resume" "halted" (Engine.run Engine.default_config hier mem ~clock ctx)

let test_scavenger_yield_by_mode () =
  (* Primary mode: conditional scavenger yield is off. *)
  let env = setup "syield\nhalt" in
  let stop, cycles = run env in
  check_stop "off in primary mode" "halted" stop;
  Alcotest.(check int) "one check cycle" Engine.cond_check_cost cycles;
  (* Scavenger mode: taken. *)
  let prog, mem, hier, _ = setup "syield\nhalt" in
  let ctx = Context.create ~id:1 ~mode:Context.Scavenger prog in
  let clock = ref 0 in
  let stop = Engine.run Engine.default_config hier mem ~clock ctx in
  check_stop "taken in scavenger mode" "yielded(scavenger@0)" stop

let test_yield_cond () =
  (* Cold line: cyield prefetches and yields; the later load is free. *)
  let env = setup "mov r1, 512\ncyield [r1]\nload r2, [r1]\nhalt" in
  let prog, mem, hier, ctx = env in
  ignore prog;
  let clock = ref 0 in
  let stop = Engine.run Engine.default_config hier mem ~clock ctx in
  check_stop "cold cyield yields as primary" "yielded(primary@1)" stop;
  (* wait out the fill, then resume *)
  clock := !clock + dram;
  let resume_at = !clock in
  check_stop "resume" "halted" (Engine.run Engine.default_config hier mem ~clock ctx);
  Alcotest.(check int) "no stall after wait" 0 ctx.Context.stall_cycles;
  Alcotest.(check bool) "only load+halt cycles" true (!clock - resume_at <= 1 + l1);
  (* Warm line: falls through. *)
  let env2 = setup "mov r1, 512\nload r2, [r1]\ncyield [r1]\nhalt" in
  let stop2, _ = run env2 in
  check_stop "warm cyield falls through" "halted" stop2

(* --- engine configuration knobs --- *)

let test_yield_cond_invalid_addr_falls_through () =
  (* like prefetch, a conditional yield on a junk address is a no-op *)
  let env = setup "mov r1, 99999999\ncyield [r1]\nhalt" in
  let stop, _ = run env in
  check_stop "falls through" "halted" stop

let test_ooo_covers_accel_wait () =
  let engine = { Engine.default_config with Engine.ooo_window = 48 } in
  let env = setup "mov r1, 256\naissue [r1]\nawait r5\nhalt" in
  let _, _ = run ~engine env in
  let _, _, _, ctx = env in
  Alcotest.(check int) "window applies to waits"
    (cfg.Memconfig.accel_latency - 48)
    ctx.Context.stall_cycles

(* --- front end (icache) --- *)

let test_icache_fetch_stalls () =
  let icfg = { cfg with Memconfig.icache = Some { Memconfig.size_bytes = 2048; ways = 4; latency = 14 } } in
  (* straight-line program of 40 one-cycle adds: 40 instrs = 3 lines
     touched (pc*4 across 64-byte lines) -> 3 cold fetch misses *)
  let b = Buffer.create 512 in
  for _ = 1 to 40 do
    Buffer.add_string b "add r1, r1, 1\n"
  done;
  Buffer.add_string b "halt";
  let prog = Asm.parse (Buffer.contents b) in
  let mem = Address_space.create ~bytes:1024 in
  List.iter
    (fun (loop, fast) ->
      let hier = Hierarchy.create icfg in
      (* front-end stall cycles as the probe reports them *)
      let fetch_stalls ctx =
        let stream, _, engine = traced { Engine.default_config with Engine.fast } in
        let clock = ref 0 in
        (match Engine.run engine hier mem ~clock ctx with
        | Engine.Halted -> ()
        | s -> Alcotest.fail (Format.asprintf "stop %a" Engine.pp_stop s));
        let fe = ref 0 in
        Stallhide_obs.Stream.iter
          (function Stallhide_obs.Event.Frontend_stall { cycles; _ } -> fe := !fe + cycles | _ -> ())
          stream;
        (!fe, !clock)
      in
      let ctx = Context.create ~id:0 ~mode:Context.Primary prog in
      let fe, clock = fetch_stalls ctx in
      (* 41 instructions at 4B = pcs 0..40 -> lines 0..2 (and pc 40 in line 2): 3 misses *)
      Alcotest.(check int) (loop ^ ": three line fills") (3 * 14) fe;
      Alcotest.(check int) (loop ^ ": stall accounted") (3 * 14) ctx.Context.stall_cycles;
      Alcotest.(check int) (loop ^ ": cycles = base + fetch stalls") (40 + (3 * 14)) clock;
      (* warm second run on a fresh context: no fetch stalls *)
      let rerun = Context.create ~id:0 ~mode:Context.Primary prog in
      Alcotest.(check int) (loop ^ ": warm icache") 0 (fst (fetch_stalls rerun)))
    both_loops

let test_no_icache_no_stalls () =
  let env = setup "add r1, r1, 1\nhalt" in
  let _, cycles = run env in
  Alcotest.(check int) "no front-end model by default" 1 cycles

(* --- accelerator operations --- *)

let accel_lat = cfg.Memconfig.accel_latency

let test_accel_basic () =
  let env = setup "mov r1, 256\nmov r3, 77\nstore [r1], r3\naissue [r1]\nawait r5\nhalt" in
  let stop, cycles = run env in
  check_stop "halts" "halted" stop;
  let _, _, _, ctx = env in
  Alcotest.(check int) "result transformed" (Engine.accel_transform 77) ctx.Context.regs.{5};
  (* mov+mov+store+issue = 4 cycles; the op runs [accel_lat] from issue
     completion; the immediate wait pays 1 + the full latency *)
  Alcotest.(check int) "wait pays remaining latency" (4 + 1 + accel_lat) cycles;
  Alcotest.(check int) "stall accounted" accel_lat ctx.Context.stall_cycles

let test_accel_overlap () =
  (* compute between issue and wait shrinks the stall *)
  let b = Buffer.create 256 in
  Buffer.add_string b "mov r1, 256\naissue [r1]\n";
  for _ = 1 to 60 do
    Buffer.add_string b "add r4, r4, 1\n"
  done;
  Buffer.add_string b "await r5\nhalt";
  let env = setup (Buffer.contents b) in
  let stop, _ = run env in
  check_stop "halts" "halted" stop;
  let _, _, _, ctx = env in
  Alcotest.(check int) "stall shrunk by overlap" (accel_lat - 60) ctx.Context.stall_cycles

let test_accel_yield_hides () =
  (* yield at the wait, resume after the op finished: no stall *)
  let prog, mem, hier, ctx = setup "mov r1, 256\naissue [r1]\nyield\nawait r5\nhalt" in
  ignore prog;
  let clock = ref 0 in
  (match Engine.run Engine.default_config hier mem ~clock ctx with
  | Engine.Yielded _ -> ()
  | s -> Alcotest.fail (Format.asprintf "expected yield, got %a" Engine.pp_stop s));
  clock := !clock + accel_lat;
  check_stop "resume" "halted" (Engine.run Engine.default_config hier mem ~clock ctx);
  Alcotest.(check int) "no stall" 0 ctx.Context.stall_cycles

let test_accel_faults () =
  expect_fault "await r5\nhalt" (* wait with nothing outstanding *);
  expect_fault "mov r1, 256\naissue [r1]\naissue [r1]\nhalt" (* double issue *);
  expect_fault "mov r1, 99999999\naissue [r1]\nhalt" (* bad operand address *)

let test_accel_smt_blocks () =
  (* [step] blocks the context on the wait instead of stalling *)
  let prog, mem, hier, ctx = setup "mov r1, 256\naissue [r1]\nawait r5\nhalt" in
  ignore (prog, hier);
  let clock = ref 0 in
  let hier = Hierarchy.create cfg in
  let rec steps n =
    if n > 10 then Alcotest.fail "no block"
    else
      match Engine.step Engine.default_config hier mem ~clock ctx with
      | Engine.Blocked_until w ->
          Alcotest.(check bool) "blocked until completion" true (w > !clock)
      | Engine.Normal -> steps (n + 1)
      | Engine.Stop s -> Alcotest.fail (Format.asprintf "stopped: %a" Engine.pp_stop s)
  in
  steps 0

(* --- SFI guards --- *)

let test_guard_semantics () =
  (* No domain: guards always pass. *)
  let env = setup "mov r1, 128\nguard [r1]\nload r2, [r1]\nhalt" in
  let stop, cycles = run env in
  check_stop "no domain passes" "halted" stop;
  (* mov 1 + guard 1 + load (1+dram) *)
  Alcotest.(check int) "guard costs one cycle" (1 + 1 + 1 + dram) cycles;
  (* In-domain access passes; out-of-domain faults. *)
  let prog, mem, hier, _ = setup "mov r1, 128\nguard [r1]\nload r2, [r1]\nhalt" in
  ignore prog;
  let ctx = Context.create ~id:0 ~mode:Context.Primary (Asm.parse "mov r1, 128\nguard [r1]\nload r2, [r1]\nhalt") in
  ctx.Context.domain <- Some (64, 192);
  let clock = ref 0 in
  check_stop "in-domain passes" "halted" (Engine.run Engine.default_config hier mem ~clock ctx);
  let ctx2 = Context.create ~id:1 ~mode:Context.Primary (Asm.parse "mov r1, 256\nguard [r1]\nload r2, [r1]\nhalt") in
  ctx2.Context.domain <- Some (64, 192);
  let clock = ref 0 in
  (match Engine.run Engine.default_config hier mem ~clock ctx2 with
  | Engine.Fault m ->
      Alcotest.(check bool) "sfi message" true
        (String.length m >= 3 && String.sub m 0 3 = "sfi")
  | s -> Alcotest.fail (Format.asprintf "expected sfi fault, got %a" Engine.pp_stop s));
  (* Boundary: hi is exclusive. *)
  let ctx3 = Context.create ~id:2 ~mode:Context.Primary (Asm.parse "mov r1, 192\nguard [r1]\nhalt") in
  ctx3.Context.domain <- Some (64, 192);
  let clock = ref 0 in
  match Engine.run Engine.default_config hier mem ~clock ctx3 with
  | Engine.Fault _ -> ()
  | s -> Alcotest.fail (Format.asprintf "hi bound not exclusive: %a" Engine.pp_stop s)

(* --- the probe's points, read from a stream it feeds --- *)

let test_hooks () =
  List.iter
    (fun (loop, fast) ->
      let stream, probe, engine = traced { Engine.default_config with Engine.fast } in
      let ring = Probe.ring ~depth:8 in
      Probe.record_branches probe ring (Probe.countdown ~period:1_000) ignore;
      let marks = ref 0 in
      let engine = { engine with Engine.on_opmark = (fun ~ctx:_ ~pc:_ ~cycle:_ -> incr marks) } in
      let env = setup "mov r1, 256\nload r2, [r1]\nopmark\nbr eq r2, 0, done\ndone:\nhalt" in
      let stop, _ = run ~engine env in
      check_stop (loop ^ ": halts") "halted" stop;
      let module E = Stallhide_obs.Event in
      let loads = ref [] and stalls = ref 0 and ops = ref 0 in
      Stallhide_obs.Stream.iter
        (function
          | E.Cache_access { addr; pc; stall; _ } -> loads := (addr, pc, stall) :: !loads
          | E.Stall { cycles; _ } -> stalls := !stalls + cycles
          | E.Op_retired _ -> incr ops
          | _ -> ())
        stream;
      Alcotest.(check (list (triple int int int)))
        (loop ^ ": one load: addr, pc, stall")
        [ (256, 1, dram - l1) ]
        !loads;
      Alcotest.(check int) (loop ^ ": stall total") (dram - l1) !stalls;
      Alcotest.(check int) (loop ^ ": opmark observer") 1 !marks;
      Alcotest.(check int) (loop ^ ": opmark event") 1 !ops;
      Alcotest.(check int) (loop ^ ": taken branch pushed") 1 (Probe.ring_length ring);
      let _, _, _, ctx = env in
      Alcotest.(check int) (loop ^ ": retired") 5 ctx.Context.instructions)
    both_loops

(* --- SMT --- *)

let chase_workload n_ctx =
  (* Each context chases its own pointer ring (always DRAM-cold lines). *)
  let mem = Address_space.create ~bytes:(1 lsl 22) in
  let (_ : int) = Address_space.alloc mem ~bytes:64 in
  let prog =
    Asm.parse {|
loop:
  load r1, [r1]
  sub r2, r2, 1
  br gt r2, 0, loop
  halt
|}
  in
  let hier = Hierarchy.create cfg in
  let ctxs =
    Array.init n_ctx (fun id ->
        let nodes = 512 in
        let base = Address_space.alloc mem ~bytes:(nodes * 64) in
        (* simple shifted ring: i -> i+1 *)
        for i = 0 to nodes - 1 do
          Address_space.store mem (base + (i * 64)) (base + ((i + 1) mod nodes * 64))
        done;
        let ctx = Context.create ~id ~mode:Context.Primary prog in
        Context.set_regs ctx [ (Reg.r1, base); (Reg.r2, 200) ];
        ctx)
  in
  (hier, mem, ctxs)

let test_smt_hides_latency () =
  let hier1, mem1, ctxs1 = chase_workload 1 in
  let r1 = Smt.run hier1 mem1 ctxs1 ~max_cycles:max_int in
  let hier4, mem4, ctxs4 = chase_workload 4 in
  let r4 = Smt.run hier4 mem4 ctxs4 ~max_cycles:max_int in
  Alcotest.(check int) "accounting: busy+idle = cycles" r1.Smt.cycles (r1.Smt.busy + r1.Smt.idle);
  Alcotest.(check (list string)) "no faults" [] r4.Smt.faults;
  (* 4 contexts do 4x the work in well under 4x the time. *)
  Alcotest.(check bool) "smt-4 overlaps misses" true
    (r4.Smt.cycles < 2 * r1.Smt.cycles);
  Alcotest.(check bool) "but cannot hide everything" true (r4.Smt.idle > 0)

let test_smt_all_complete () =
  let hier, mem, ctxs = chase_workload 3 in
  let r = Smt.run hier mem ctxs ~max_cycles:max_int in
  Array.iter
    (fun c ->
      match c.Context.status with
      | Context.Done -> ()
      | _ -> Alcotest.fail "context did not finish")
    ctxs;
  Alcotest.(check int) "instructions counted" (3 * ((200 * 3) + 1)) r.Smt.instructions

(* --- differential testing: engine vs a pure reference interpreter --- *)

(* Random straight-line programs over a 512-byte region based at r1.
   The engine (with all its cache/timing machinery) must compute exactly
   what a direct evaluator computes. *)
let gen_straightline =
  let open QCheck.Gen in
  let reg = int_range 2 (Reg.count - 1) in
  (* r1 is reserved as the region base *)
  let word = int_bound 63 in
  let safe_binop =
    oneof
      [
        map3
          (fun op rd (rs, v) -> Instr.Binop (op, rd, rs, Instr.Imm v))
          (oneofl [ Instr.Add; Instr.Sub; Instr.Mul; Instr.And; Instr.Or; Instr.Xor ])
          reg
          (pair reg (int_range (-100) 100));
        map3
          (fun op rd (rs, v) -> Instr.Binop (op, rd, rs, Instr.Imm v))
          (oneofl [ Instr.Div; Instr.Rem ])
          reg
          (pair reg (int_range 1 7));
        map3
          (fun op rd (rs, v) -> Instr.Binop (op, rd, rs, Instr.Imm v))
          (oneofl [ Instr.Shl; Instr.Shr ])
          reg
          (pair reg (int_bound 8));
        map3 (fun rd rs o -> Instr.Binop (Instr.Add, rd, rs, Instr.Reg o)) reg reg reg;
      ]
  in
  let instr =
    frequency
      [
        (4, safe_binop);
        (2, map2 (fun rd v -> Instr.Mov (rd, Instr.Imm v)) reg (int_range (-1000) 1000));
        (3, map2 (fun rd w -> Instr.Load (rd, Reg.r1, w * 8)) reg word);
        (2, map2 (fun w rv -> Instr.Store (Reg.r1, w * 8, rv)) word reg);
        (1, map (fun w -> Instr.Prefetch (Reg.r1, w * 8)) word);
        (1, return Instr.Nop);
      ]
  in
  list_size (int_range 1 40) instr

let reference_eval instrs ~base (mem : int array) =
  let regs = Array.make Reg.count 0 in
  regs.(1) <- base;
  let value = function Instr.Reg r -> regs.(r) | Instr.Imm i -> i in
  List.iter
    (fun i ->
      match i with
      | Instr.Binop (op, rd, rs, o) ->
          let a = regs.(rs) and b = value o in
          regs.(rd) <-
            (match op with
            | Instr.Add -> a + b
            | Instr.Sub -> a - b
            | Instr.Mul -> a * b
            | Instr.Div -> a / b
            | Instr.Rem -> a mod b
            | Instr.And -> a land b
            | Instr.Or -> a lor b
            | Instr.Xor -> a lxor b
            | Instr.Shl -> a lsl (b land 63)
            | Instr.Shr -> a asr (b land 63))
      | Instr.Mov (rd, o) -> regs.(rd) <- value o
      | Instr.Load (rd, rs, d) -> regs.(rd) <- mem.((regs.(rs) + d - base) / 8)
      | Instr.Store (rs, d, rv) -> mem.((regs.(rs) + d - base) / 8) <- regs.(rv)
      | Instr.Prefetch _ | Instr.Nop -> ()
      | _ -> assert false)
    instrs;
  regs

let qcheck_engine_vs_reference =
  QCheck.Test.make ~name:"engine agrees with reference interpreter" ~count:300
    (QCheck.make
       ~print:(fun is -> String.concat "; " (List.map Instr.to_string is))
       gen_straightline)
    (fun instrs ->
      let prog = Program.assemble (List.map (fun i -> Program.Ins i) instrs @ [ Program.Ins Instr.Halt ]) in
      let mem = Address_space.create ~bytes:2048 in
      let base = Address_space.alloc mem ~bytes:512 in
      let shadow = Array.make 64 0 in
      (* seed both memories identically *)
      List.iteri
        (fun k v ->
          Address_space.store mem (base + (k * 8)) v;
          shadow.(k) <- v)
        (List.init 64 (fun k -> (k * 37) + 5));
      let ctx = Context.create ~id:0 ~mode:Context.Primary prog in
      Context.set_regs ctx [ (Reg.r1, base) ];
      let clock = ref 0 in
      (match Engine.run Engine.default_config (Hierarchy.create cfg) mem ~clock ctx with
      | Engine.Halted -> ()
      | s -> QCheck.Test.fail_reportf "engine stop: %a" Engine.pp_stop s);
      let expect = reference_eval instrs ~base shadow in
      let regs_ok = expect = Context.regs_array ctx in
      let mem_ok =
        List.for_all
          (fun k -> shadow.(k) = Address_space.load mem (base + (k * 8)))
          (List.init 64 Fun.id)
      in
      regs_ok && mem_ok)

(* --- fast/reference parity pins --- *)

(* Each test below pins an instruction variant where the decoded-µop
   fast loop and the reference interpreter could plausibly diverge:
   cost ordering (cond-check before residency), operand masking
   (shift counts), fault text, and accelerator/OoO interactions. Both
   arms run the same source from a fresh context and everything
   architecturally visible must match bit-for-bit, including the full
   yield/resume trace. Any future fast/reference divergence found in
   the differential suite gets its minimal reproducer added here. *)

let run_trace engine src =
  let _, mem, hier, ctx = setup src in
  let clock = ref 0 in
  let trace = ref [] in
  let rec go budget =
    let stop = Engine.run engine hier mem ~clock ctx in
    trace := (Format.asprintf "%a" Engine.pp_stop stop, !clock) :: !trace;
    match stop with
    | Engine.Yielded _ when budget > 0 ->
        (* wait out any in-flight fill, then resume *)
        clock := !clock + dram;
        go (budget - 1)
    | _ -> ()
  in
  go 8;
  ( List.rev !trace,
    Context.regs_array ctx,
    ctx.Context.instructions,
    ctx.Context.stall_cycles,
    Hierarchy.stats hier )

let check_parity ?(engine = Engine.default_config) label src =
  let ft, fr, fi, fs, fm = run_trace { engine with Engine.fast = true } src in
  let rt, rr, ri, rs, rm = run_trace { engine with Engine.fast = false } src in
  Alcotest.(check (list (pair string int))) (label ^ ": stop/clock trace") rt ft;
  Alcotest.(check (array int)) (label ^ ": regs") rr fr;
  Alcotest.(check int) (label ^ ": instructions") ri fi;
  Alcotest.(check int) (label ^ ": stall cycles") rs fs;
  Alcotest.(check int) (label ^ ": demand accesses") rm.Mem_stats.demand_accesses
    fm.Mem_stats.demand_accesses;
  Alcotest.(check int) (label ^ ": prefetches") rm.Mem_stats.prefetches fm.Mem_stats.prefetches;
  Alcotest.(check int) (label ^ ": dram accesses") rm.Mem_stats.dram_accesses
    fm.Mem_stats.dram_accesses

let test_parity_div_rem_zero () =
  check_parity "div by zero reg" "mov r1, 9\nmov r2, 0\ndiv r3, r1, r2\nhalt";
  check_parity "rem by zero reg" "mov r1, 9\nmov r2, 0\nrem r3, r1, r2\nhalt";
  check_parity "div by zero imm" "mov r1, 9\ndiv r3, r1, 0\nhalt";
  check_parity "div of negative" "mov r1, 0\nsub r1, r1, 7\ndiv r2, r1, 2\nhalt"

let test_parity_shift_mask () =
  check_parity "shl count 64 wraps to 0" "mov r1, 3\nmov r2, 64\nshl r3, r1, r2\nhalt";
  check_parity "shr count 65 wraps to 1" "mov r1, 1024\nmov r2, 65\nshr r3, r1, r2\nhalt";
  check_parity "shl imm count 70" "mov r1, 5\nshl r2, r1, 70\nhalt";
  check_parity "shr of negative value" "mov r1, 0\nsub r1, r1, 8\nshr r2, r1, 1\nhalt"

let test_parity_cyield_cost_order () =
  (* cond_check_cost is charged before the residency probe; a cold
     line then prefetches and yields, and the resumed load is warm. *)
  check_parity "cyield cold then warm"
    "mov r1, 768\ncyield [r1]\nload r2, [r1]\ncyield [r1]\nhalt";
  check_parity "cyield bad addr falls through" "mov r1, 99999999\ncyield [r1]\nhalt";
  check_parity "syield off in primary mode" "syield\nhalt";
  check_parity "explicit primary yield" "mov r1, 1\nyield\nadd r1, r1, 1\nhalt"

let test_parity_accel_ooo () =
  let engine = { Engine.default_config with Engine.ooo_window = 48 } in
  check_parity ~engine "accel issue/wait under ooo"
    "mov r1, 896\nmov r2, 41\nstore [r1], r2\naissue [r1]\nadd r3, r3, 1\nawait r4\nhalt";
  check_parity ~engine "cold load under ooo" "mov r1, 640\nload r2, [r1]\nhalt";
  check_parity "accel issue/wait in-order"
    "mov r1, 896\nmov r2, 41\nstore [r1], r2\naissue [r1]\nawait r4\nhalt"

let test_parity_call_depth_overflow () = check_parity "call stack overflow" "boom:\n  call boom"

let test_parity_prefetch_opmark () =
  check_parity "prefetch bad addr no-op" "mov r1, 99999999\nprefetch [r1]\nhalt";
  check_parity "prefetch then load" "mov r1, 320\nprefetch [r1]\nload r2, [r1]\nhalt";
  check_parity "opmark and nop are free" "opmark\nnop\nopmark\nhalt"

let test_parity_branches () =
  check_parity "branch reg and imm conditions"
    {|
  mov r1, 3
loop:
  sub r1, r1, 1
  br ne r1, 0, loop
  mov r2, 7
  br eq r2, 7, done
  mov r3, 1
done:
  br lt r2, 7, loop
  halt
|};
  check_parity "jump and fallthrough" "jmp skip\nmov r1, 1\nskip:\nmov r2, 2\nhalt"

(* --- µop decode: once per program --- *)

(* Serving builds one context per request from one program: all of
   them must run on the program's one decode, not a copy each. *)
let test_decode_shared () =
  let prog = Asm.parse "mov r1, 3\nloop:\nsub r1, r1, 1\nbr gt r1, 0, loop\nhalt" in
  let mem = Address_space.create ~bytes:(1 lsl 16) in
  let hier = Hierarchy.create cfg in
  let a = Context.create ~id:0 ~mode:Context.Primary prog in
  let b = Context.create ~id:1 ~mode:Context.Primary prog in
  let clock = ref 0 in
  check_stop "first context" "halted" (Engine.run Engine.default_config hier mem ~clock a);
  let u = Program.uops a.Context.program in
  check_stop "second context" "halted" (Engine.run Engine.default_config hier mem ~clock b);
  let v = Program.uops b.Context.program in
  Alcotest.(check bool) "one decode for both contexts" true (u == v);
  Alcotest.(check bool) "same opcode array" true (u.Uop.op == v.Uop.op);
  Alcotest.(check bool) "same operand arrays" true
    (u.Uop.a == v.Uop.a && u.Uop.b == v.Uop.b && u.Uop.c == v.Uop.c)

(* [Reg.t] is an open int alias, so a hand-built program can name a
   register the register file lacks; the fast loop reads registers
   unchecked, so decode must refuse it for every context, not only
   the first one to run. *)
let test_decode_bad_register () =
  let prog =
    Program.assemble [ Program.Ins (Instr.Mov (Reg.count, Instr.Imm 1)); Program.Ins Instr.Halt ]
  in
  let mem = Address_space.create ~bytes:(1 lsl 16) in
  let hier = Hierarchy.create cfg in
  for id = 0 to 2 do
    let ctx = Context.create ~id ~mode:Context.Primary prog in
    match Engine.run Engine.default_config hier mem ~clock:(ref 0) ctx with
    | exception Invalid_argument _ -> ()
    | stop -> Alcotest.failf "context %d ran to %s" id (Format.asprintf "%a" Engine.pp_stop stop)
  done

(* --- a probe rides both loops; [step] refuses only an LBR ring --- *)

let refused name f =
  match f () with
  | exception Invalid_argument msg ->
      if not (String.starts_with ~prefix:(name ^ ": ") msg) then
        Alcotest.failf "%s: unnamed Invalid_argument %S" name msg
  | _ -> Alcotest.failf "%s accepted a config it must refuse" name

let probe_src = {|
  load r2, [r1]
  br eq r2, 0, done
done:
  halt
|}

let test_probe_on_both_loops () =
  let arm label run =
    let stream, _, engine = traced Engine.default_config in
    let _, mem, hier, ctx = setup probe_src in
    check_stop (label ^ " halts") "halted" (run engine hier mem ctx);
    Stallhide_obs.Stream.events stream
  in
  let fast = arm "µop loop" (fun e h m c -> Engine.run e h m ~clock:(ref 0) c) in
  let slow =
    arm "fast = false" (fun e h m c -> Engine.run { e with Engine.fast = false } h m ~clock:(ref 0) c)
  in
  let reference = arm "run_reference" (fun e h m c -> Engine.run_reference e h m ~clock:(ref 0) c) in
  Alcotest.(check int) "the load and its stall" 2 (List.length fast);
  Alcotest.(check bool) "fast = false sees the same events" true (slow = fast);
  Alcotest.(check bool) "run_reference sees the same events" true (reference = fast)

let test_probe_step_refuses_lbr () =
  let _, mem, hier, ctx = setup probe_src in
  let probe = Probe.create () in
  Probe.record_branches probe (Probe.ring ~depth:4) (Probe.countdown ~period:1) ignore;
  refused "Engine.step" (fun () ->
      Engine.step { Engine.default_config with Engine.probe = Some probe } hier mem
        ~clock:(ref 0) ctx);
  Alcotest.(check int) "nothing ran" 0 ctx.Context.instructions;
  (* without a ring it steps, and the blocked load reaches the probe
     with its paid stall and no stall point *)
  let stream, _, engine = traced Engine.default_config in
  (match Engine.step engine hier mem ~clock:(ref 0) ctx with
  | Engine.Blocked_until _ -> ()
  | _ -> Alcotest.fail "the cold load did not block");
  match Stallhide_obs.Stream.events stream with
  | [ Stallhide_obs.Event.Cache_access { pc = 0; stall; _ } ] ->
      Alcotest.(check int) "paid stall" (dram - l1) stall
  | es -> Alcotest.failf "%d events for one blocked load" (List.length es)

(* --- the stall shape: a per-pc delta on the raw memory stall, before
   OoO hiding, clamped at 0, applied alike by both loops --- *)

let test_stall_shape () =
  let src = "mov r1, 256\nload r2, [r1]\nload r3, [r1]\nhalt" in
  let shaped ?(ooo = 0) label shape expected =
    List.iter
      (fun fast ->
        let env = setup src in
        let engine =
          { Engine.default_config with Engine.stall_shape = shape; ooo_window = ooo; fast }
        in
        let _, cycles = run ~engine env in
        let _, _, _, ctx = env in
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s (fast %b): cycles, stall" label fast)
          expected (cycles, ctx.Context.stall_cycles))
      [ true; false ]
  in
  shaped "unshaped" [||] (1 + (1 + dram) + (1 + l1), dram - l1);
  shaped "zeroed cold load" [| 0; -max_int; 0; 0 |] (1 + (1 + l1) + (1 + l1), 0);
  shaped "clamped at zero" [| 0; -2 * dram; 0; 0 |] (1 + (1 + l1) + (1 + l1), 0);
  shaped "inflated cold load" [| 0; 300; 0; 0 |] (1 + (1 + dram + 300) + (1 + l1), dram - l1 + 300);
  shaped "inflated warm load" [| 0; 0; 300; 0 |] (1 + (1 + dram) + (1 + l1 + 300), dram - l1 + 300);
  shaped ~ooo:48 "before ooo hiding" [| 0; 100; 0; 0 |]
    (1 + (1 + dram + 100 - 48) + (1 + l1), dram - l1 + 100 - 48)

let test_stall_shape_too_short () =
  let short = { Engine.default_config with Engine.stall_shape = [| 0; 0 |] } in
  let _, mem, hier, ctx = setup probe_src in
  refused "Engine.run" (fun () -> Engine.run short hier mem ~clock:(ref 0) ctx);
  refused "Engine.run_reference" (fun () -> Engine.run_reference short hier mem ~clock:(ref 0) ctx);
  refused "Engine.step" (fun () -> Engine.step short hier mem ~clock:(ref 0) ctx);
  Alcotest.(check int) "nothing ran" 0 ctx.Context.instructions

let () =
  Alcotest.run "cpu"
    [
      ( "semantics",
        [
          Alcotest.test_case "arithmetic loop" `Quick test_arith;
          Alcotest.test_case "op coverage" `Quick test_ops_coverage;
          Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "call/ret" `Quick test_call_ret;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fault cases" `Quick test_faults;
          Alcotest.test_case "status faulted" `Quick test_fault_sets_status;
          Alcotest.test_case "prefetch bad addr" `Quick test_prefetch_bad_addr_is_noop;
        ] );
      ( "timing",
        [
          Alcotest.test_case "adds" `Quick test_add_timing;
          Alcotest.test_case "loads cold/warm" `Quick test_load_timing_cold_then_warm;
          Alcotest.test_case "ooo window" `Quick test_ooo_window;
          Alcotest.test_case "deadline" `Quick test_deadline;
        ] );
      ( "yields",
        [
          Alcotest.test_case "primary" `Quick test_yield_primary;
          Alcotest.test_case "scavenger by mode" `Quick test_scavenger_yield_by_mode;
          Alcotest.test_case "conditional" `Quick test_yield_cond;
        ] );
      ( "config",
        [
          Alcotest.test_case "cyield bad addr" `Quick test_yield_cond_invalid_addr_falls_through;
          Alcotest.test_case "ooo on accel wait" `Quick test_ooo_covers_accel_wait;
        ] );
      ( "frontend",
        [
          Alcotest.test_case "icache fetch stalls" `Quick test_icache_fetch_stalls;
          Alcotest.test_case "disabled by default" `Quick test_no_icache_no_stalls;
        ] );
      ( "accel",
        [
          Alcotest.test_case "issue/wait" `Quick test_accel_basic;
          Alcotest.test_case "overlap" `Quick test_accel_overlap;
          Alcotest.test_case "yield hides" `Quick test_accel_yield_hides;
          Alcotest.test_case "faults" `Quick test_accel_faults;
          Alcotest.test_case "smt blocks" `Quick test_accel_smt_blocks;
        ] );
      ("sfi", [ Alcotest.test_case "guard semantics" `Quick test_guard_semantics ]);
      ("hooks", [ Alcotest.test_case "all hooks fire" `Quick test_hooks ]);
      ( "smt",
        [
          Alcotest.test_case "hides latency" `Quick test_smt_hides_latency;
          Alcotest.test_case "all complete" `Quick test_smt_all_complete;
        ] );
      ("differential", [ QCheck_alcotest.to_alcotest qcheck_engine_vs_reference ]);
      ( "fast-parity",
        [
          Alcotest.test_case "div/rem by zero" `Quick test_parity_div_rem_zero;
          Alcotest.test_case "shift-count masking" `Quick test_parity_shift_mask;
          Alcotest.test_case "cyield cost ordering" `Quick test_parity_cyield_cost_order;
          Alcotest.test_case "accel under ooo" `Quick test_parity_accel_ooo;
          Alcotest.test_case "call depth overflow" `Quick test_parity_call_depth_overflow;
          Alcotest.test_case "prefetch/opmark" `Quick test_parity_prefetch_opmark;
          Alcotest.test_case "branches and jumps" `Quick test_parity_branches;
        ] );
      ( "probe",
        [
          Alcotest.test_case "accepted on both loops" `Quick test_probe_on_both_loops;
          Alcotest.test_case "refused by step with LBR rings" `Quick test_probe_step_refuses_lbr;
        ] );
      ( "stall shape",
        [
          Alcotest.test_case "per-pc delta before ooo, both loops" `Quick test_stall_shape;
          Alcotest.test_case "a short table is refused" `Quick test_stall_shape_too_short;
        ] );
      ( "decode",
        [
          Alcotest.test_case "contexts share the program's decode" `Quick test_decode_shared;
          Alcotest.test_case "bad register refused on every context" `Quick
            test_decode_bad_register;
        ] );
    ]
