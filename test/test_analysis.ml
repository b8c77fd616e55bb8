(* lib/analysis: value-domain algebra, must/may cache transfers, loop
   bounds, cycle distances, end-to-end classification, and the QCheck
   soundness campaign against simulator ground truth (>= 500 generated
   programs over sampled memory geometries, via the fuzz Soundness
   oracle). *)

open Stallhide_isa
open Stallhide_mem
open Stallhide_analysis
module Gen = Stallhide_check.Gen
module Oracle = Stallhide_check.Oracle

let mem = Memconfig.default

(* --- value domain --- *)

let test_value_entry () =
  let env = Value.entry_env () in
  Array.iteri
    (fun r v ->
      Alcotest.(check bool)
        (Printf.sprintf "r%d starts as its own entry value" r)
        true
        (Value.equal v (Value.Init (r, 0))))
    env

let test_value_join () =
  let open Value in
  Alcotest.(check bool) "const self-join" true (equal (join (Const 3) (Const 3)) (Const 3));
  Alcotest.(check bool) "distinct consts go Top" true (equal (join (Const 3) (Const 4)) Top);
  Alcotest.(check bool) "same-base inits become strided" true
    (equal (join (Init (Reg.r1, 0)) (Init (Reg.r1, 64))) (Affine Reg.r1));
  Alcotest.(check bool) "different-base inits go Top" true
    (equal (join (Init (Reg.r1, 0)) (Init (Reg.r2, 0))) Top);
  Alcotest.(check bool) "loaded meets init at Top" true
    (equal (join Loaded (Init (Reg.r1, 0))) Top);
  Alcotest.(check bool) "Top absorbs" true (equal (join Top (Const 0)) Top)

let test_value_step () =
  let env = Value.entry_env () in
  Value.step env (Instr.Mov (Reg.r0, Instr.Imm 8));
  Value.step env (Instr.Binop (Instr.Add, Reg.r0, Reg.r0, Instr.Imm 4));
  Alcotest.(check bool) "const folding" true (Value.equal env.(Reg.r0) (Value.Const 12));
  Value.step env (Instr.Binop (Instr.Add, Reg.r1, Reg.r1, Instr.Imm 16));
  Alcotest.(check bool) "init offset arithmetic" true
    (Value.equal env.(Reg.r1) (Value.Init (Reg.r1, 16)));
  Value.step env (Instr.Load (Reg.r2, Reg.r1, 0));
  Alcotest.(check bool) "load result is tainted" true (Value.equal env.(Reg.r2) Value.Loaded);
  Value.step env (Instr.Binop (Instr.Add, Reg.r2, Reg.r2, Instr.Imm 8));
  Alcotest.(check bool) "taint survives arithmetic" true
    (Value.equal env.(Reg.r2) Value.Loaded);
  Value.step env (Instr.Call "f");
  Array.iteri
    (fun r v ->
      Alcotest.(check bool) (Printf.sprintf "call clobbers r%d" r) true
        (Value.equal v Value.Top))
    env

(* --- must/may cache domain --- *)

let test_key_alias () =
  let open Cache_domain in
  let lb = mem.Memconfig.line_bytes in
  Alcotest.(check bool) "same concrete line" true
    (Key.may_alias ~line_bytes:lb (Key.Line 2) (Key.Line 2));
  Alcotest.(check bool) "distinct concrete lines" false
    (Key.may_alias ~line_bytes:lb (Key.Line 2) (Key.Line 3));
  Alcotest.(check bool) "same base within a line" true
    (Key.may_alias ~line_bytes:lb (Key.Sym (Reg.r1, 0)) (Key.Sym (Reg.r1, lb - 1)));
  Alcotest.(check bool) "same base a full line apart" false
    (Key.may_alias ~line_bytes:lb (Key.Sym (Reg.r1, 0)) (Key.Sym (Reg.r1, lb)));
  Alcotest.(check bool) "different bases always may-alias" true
    (Key.may_alias ~line_bytes:lb (Key.Sym (Reg.r1, 0)) (Key.Sym (Reg.r2, 0)));
  Alcotest.(check bool) "symbolic vs concrete always may-alias" true
    (Key.may_alias ~line_bytes:lb (Key.Sym (Reg.r1, 0)) (Key.Line 0))

let test_cache_transfers () =
  let open Cache_domain in
  let base = Value.Init (Reg.r1, 0) in
  let cls_name c = Cache_domain.cls_name c in
  (* cold caches: the first touch of a line is a proven miss *)
  let s0 = entry in
  Alcotest.(check string) "first touch misses" "always-miss"
    (cls_name (classify mem s0 ~base ~disp:0));
  (* after the load the line is must-resident: proven hit *)
  let s1 = load mem s0 ~base ~disp:0 in
  Alcotest.(check string) "retouch hits" "always-hit"
    (cls_name (classify mem s1 ~base ~disp:0));
  (* a yield/call kills must facts and poisons the may side *)
  let s2 = clobber s1 in
  (match classify mem s2 ~base ~disp:0 with
  | Unknown _ -> ()
  | c -> Alcotest.failf "post-clobber should be unknown, got %s" (cls_name c));
  (* tainted bases never support claims; taint drives the prior *)
  (match classify mem s1 ~base:Value.Loaded ~disp:0 with
  | Unknown Ptr -> ()
  | c -> Alcotest.failf "loaded base should be unknown(ptr), got %s" (cls_name c));
  (match classify mem s1 ~base:(Value.Affine Reg.r1) ~disp:0 with
  | Unknown Strided -> ()
  | c -> Alcotest.failf "affine base should be unknown(strided), got %s" (cls_name c));
  match classify mem s1 ~base:Value.Top ~disp:0 with
  | Unknown Opaque -> ()
  | c -> Alcotest.failf "top base should be unknown(opaque), got %s" (cls_name c)

let test_cache_join_is_intersection () =
  let open Cache_domain in
  let base = Value.Init (Reg.r1, 0) in
  let hot = load mem entry ~base ~disp:0 in
  (* one path loaded the line, the other did not: no residency claim
     survives the join, and the first-touch proof is gone too *)
  match classify mem (join hot entry) ~base ~disp:0 with
  | Unknown _ -> ()
  | c -> Alcotest.failf "join should drop the claim, got %s" (cls_name c)

(* --- loop bounds --- *)

let counted_loop ~init ~step ~limit ~cond =
  Program.assemble
    [
      Program.Ins (Instr.Mov (Reg.r1, Instr.Imm init));
      Program.Label "loop";
      Program.Ins (Instr.Binop (Instr.Add, Reg.r1, Reg.r1, Instr.Imm step));
      Program.Ins (Instr.Branch (cond, Reg.r1, Instr.Imm limit, "loop"));
      Program.Ins Instr.Halt;
    ]

let infer prog =
  let cfg = Stallhide_binopt.Cfg.build prog in
  let dom = Stallhide_binopt.Dominators.compute cfg in
  Loop_bounds.infer cfg dom (Value.block_envs cfg)

let test_loop_bounds () =
  (match infer (counted_loop ~init:0 ~step:1 ~limit:10 ~cond:Instr.Lt) with
  | [ b ] ->
      Alcotest.(check int) "lt loop trips" 10 b.Loop_bounds.trips;
      Alcotest.(check int) "header pc" 1 b.Loop_bounds.header_pc;
      Alcotest.(check int) "step" 1 b.Loop_bounds.step
  | l -> Alcotest.failf "expected one bounded loop, got %d" (List.length l));
  (* skipped-limit loop: i != 10 stepping by 2 terminates (0,2,..,10) *)
  (match infer (counted_loop ~init:0 ~step:2 ~limit:10 ~cond:Instr.Ne) with
  | [ b ] -> Alcotest.(check int) "ne step-2 trips" 5 b.Loop_bounds.trips
  | l -> Alcotest.failf "expected one bounded loop, got %d" (List.length l));
  (* trips_at finds the bound by header pc and nothing else *)
  let bounds = infer (counted_loop ~init:0 ~step:1 ~limit:3 ~cond:Instr.Lt) in
  Alcotest.(check (option int)) "trips_at header" (Some 3)
    (Loop_bounds.trips_at bounds ~header_pc:1);
  Alcotest.(check (option int)) "trips_at elsewhere" None
    (Loop_bounds.trips_at bounds ~header_pc:0)

let test_unbounded_loop () =
  (* data-dependent limit: the latch compares against a loaded value *)
  let prog =
    Program.assemble
      [
        Program.Ins (Instr.Mov (Reg.r1, Instr.Imm 0));
        Program.Ins (Instr.Load (Reg.r2, Reg.r3, 0));
        Program.Label "loop";
        Program.Ins (Instr.Binop (Instr.Add, Reg.r1, Reg.r1, Instr.Imm 1));
        Program.Ins (Instr.Branch (Instr.Lt, Reg.r1, Instr.Reg Reg.r2, "loop"));
        Program.Ins Instr.Halt;
      ]
  in
  Alcotest.(check int) "no bound claimed" 0 (List.length (infer prog));
  let a = Analysis.run ~mem prog in
  Alcotest.(check int) "analysis counts it unbounded" 1 a.Analysis.unbounded_loops

(* --- cycle distances --- *)

let test_costs () =
  let load = Instr.Load (Reg.r1, Reg.r2, 0) in
  Alcotest.(check bool) "load floor is the L1 latency" true
    (Distance.min_cost mem load >= mem.Memconfig.l1.Memconfig.latency);
  let pf = Instr.Prefetch (Reg.r1, 0) in
  Alcotest.(check int) "prefetch charges the issue cost"
    mem.Memconfig.prefetch_issue_cost (Distance.min_cost mem pf)

let test_prefetch_lead () =
  let nops n = List.init n (fun _ -> Program.Ins Instr.Nop) in
  let prog n =
    Program.assemble
      ((Program.Ins (Instr.Prefetch (Reg.r1, 0)) :: nops n)
      @ [ Program.Ins (Instr.Load (Reg.r2, Reg.r1, 0)); Program.Ins Instr.Halt ])
  in
  let lead n = Distance.prefetch_lead mem (prog n) ~prefetch_pc:0 ~load_pc:(n + 1) in
  Alcotest.(check bool) "lead grows with separation" true (lead 8 > lead 1);
  (* the lead is exactly the summed min costs of prefetch + padding *)
  let expected n =
    Distance.min_cost mem (Instr.Prefetch (Reg.r1, 0))
    + (n * Distance.min_cost mem Instr.Nop)
  in
  Alcotest.(check int) "lead is the summed min cost" (expected 5) (lead 5)

(* --- whole-program classification --- *)

let test_analysis_straightline () =
  let prog =
    Program.assemble
      [
        Program.Ins (Instr.Load (Reg.r2, Reg.r1, 0));
        (* same line, just touched *)
        Program.Ins (Instr.Load (Reg.r3, Reg.r1, 0));
        (* base came from memory: pointer chase *)
        Program.Ins (Instr.Load (Reg.r4, Reg.r2, 0));
        Program.Ins Instr.Halt;
      ]
  in
  let a = Analysis.run ~mem prog in
  Alcotest.(check bool) "converged" true a.Analysis.converged;
  let hit, miss, unk = Analysis.cls_counts a in
  Alcotest.(check (list int)) "one of each" [ 1; 1; 1 ] [ hit; miss; unk ];
  Alcotest.(check (list int)) "first touch is the proven miss" [ 0 ]
    (Analysis.always_miss_pcs a);
  Alcotest.(check int) "no hot-loop unknowns" 0
    (List.length (Analysis.strict_violations a));
  let c = Analysis.to_classifier a in
  let cls pc =
    match c.Stallhide_binopt.Gain_cost.cls_at pc with
    | Some Stallhide_binopt.Gain_cost.Hit -> "hit"
    | Some Stallhide_binopt.Gain_cost.Miss -> "miss"
    | Some Stallhide_binopt.Gain_cost.Unknown_ptr -> "ptr"
    | Some Stallhide_binopt.Gain_cost.Unknown_strided -> "strided"
    | Some Stallhide_binopt.Gain_cost.Unknown_opaque -> "opaque"
    | None -> "none"
  in
  Alcotest.(check string) "classifier miss" "miss" (cls 0);
  Alcotest.(check string) "classifier hit" "hit" (cls 1);
  Alcotest.(check string) "classifier ptr" "ptr" (cls 2);
  Alcotest.(check string) "classifier off-site" "none" (cls 3)

let test_analysis_strict_violation () =
  (* a pointer chase inside a counted loop: unknown load, hot *)
  let prog =
    Program.assemble
      [
        Program.Ins (Instr.Mov (Reg.r2, Instr.Imm 0));
        Program.Label "loop";
        Program.Ins (Instr.Load (Reg.r1, Reg.r1, 0));
        Program.Ins (Instr.Binop (Instr.Add, Reg.r2, Reg.r2, Instr.Imm 1));
        Program.Ins (Instr.Branch (Instr.Lt, Reg.r2, Instr.Imm 8, "loop"));
        Program.Ins Instr.Halt;
      ]
  in
  let a = Analysis.run ~mem prog in
  match Analysis.strict_violations a with
  | [ s ] ->
      Alcotest.(check int) "the chased load" 1 s.Analysis.pc;
      Alcotest.(check bool) "flagged hot" true s.Analysis.in_loop
  | l -> Alcotest.failf "expected one strict violation, got %d" (List.length l)

let test_analysis_deterministic () =
  List.iter
    (fun seed ->
      let prog = (Gen.case ~seed ()).Gen.program in
      let a = Analysis.run ~mem prog in
      let b = Analysis.run ~mem prog in
      List.iter2
        (fun (s : Analysis.site) (s' : Analysis.site) ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d pc %d stable" seed s.Analysis.pc)
            (Cache_domain.cls_name s.Analysis.cls)
            (Cache_domain.cls_name s'.Analysis.cls))
        a.Analysis.sites b.Analysis.sites;
      let hit, miss, unk = Analysis.cls_counts a in
      Alcotest.(check int)
        (Printf.sprintf "seed %d counts partition the loads" seed)
        (List.length (Analysis.load_sites a))
        (hit + miss + unk))
    [ 1; 2; 3; 17; 99; 1234 ]

(* --- soundness: the analysis's claims vs simulator ground truth ---

   The Soundness oracle runs the full contract per case: determinism,
   Always_hit loads never miss in the multi-lane run, Always_miss loads
   miss on every 1-lane execution — with the memory geometry sampled
   per seed from a validated family (line sizes, associativities,
   capacities, latencies). 500 cases, zero tolerated misclassifications
   (ISSUE acceptance). *)

let qcheck_soundness =
  QCheck.Test.make ~name:"must/may claims sound vs simulator" ~count:500
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let case = Gen.case ~seed () in
      match Oracle.check_case Oracle.Soundness case with
      | Oracle.Pass -> true
      | Oracle.Invalid _ -> true (* unevaluable, not a misclassification *)
      | Oracle.Counterexample msg ->
          QCheck.Test.fail_reportf "seed %d: %s" seed msg)

let () =
  Alcotest.run "analysis"
    [
      ( "value",
        [
          Alcotest.test_case "entry environment" `Quick test_value_entry;
          Alcotest.test_case "join algebra" `Quick test_value_join;
          Alcotest.test_case "transfer and taint" `Quick test_value_step;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key aliasing" `Quick test_key_alias;
          Alcotest.test_case "cold/hit/clobber transfers" `Quick test_cache_transfers;
          Alcotest.test_case "join intersects" `Quick test_cache_join_is_intersection;
        ] );
      ( "loops",
        [
          Alcotest.test_case "counted loops bounded" `Quick test_loop_bounds;
          Alcotest.test_case "data-dependent limit unbounded" `Quick test_unbounded_loop;
        ] );
      ( "distance",
        [
          Alcotest.test_case "cost brackets" `Quick test_costs;
          Alcotest.test_case "prefetch lead" `Quick test_prefetch_lead;
        ] );
      ( "classification",
        [
          Alcotest.test_case "straight-line program" `Quick test_analysis_straightline;
          Alcotest.test_case "strict violation in hot loop" `Quick
            test_analysis_strict_violation;
          Alcotest.test_case "deterministic over generated programs" `Quick
            test_analysis_deterministic;
        ] );
      ("soundness", [ QCheck_alcotest.to_alcotest ~long:false qcheck_soundness ]);
    ]
