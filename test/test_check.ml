(* lib/check: generator well-formedness, oracle plumbing, shrinker and
   repro round-trips. The fuzz campaigns here are small (the CI
   fuzz-smoke job runs the big fixed-seed one); these tests pin the
   machinery itself. *)

open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_workloads
open Stallhide_check
module Verify = Stallhide_verify.Verify

let seeds = List.init 30 (fun i -> i + 1)

(* --- generator --- *)

(* Every generated program is verifier-clean and runs to completion,
   uninstrumented, on every lane — the well-formedness contract all the
   oracles rely on. *)
let test_generator_wellformed () =
  List.iter
    (fun seed ->
      let case = Gen.case ~seed () in
      let outcome = Verify.run case.Gen.program in
      Alcotest.(check int)
        (Printf.sprintf "seed %d verifier-clean" seed)
        0 (Verify.errors outcome);
      let wl = Gen.workload case.Gen.cfg in
      let ctxs = Workload.contexts ~mode:Context.Primary wl in
      let hier = Hierarchy.create Memconfig.default in
      let r =
        Scheduler.run_sequential ~max_cycles:2_000_000 hier wl.Workload.image ctxs
      in
      Alcotest.(check (list string)) (Printf.sprintf "seed %d no faults" seed) []
        r.Scheduler.faults;
      Alcotest.(check int)
        (Printf.sprintf "seed %d all lanes halt" seed)
        (Array.length ctxs) r.Scheduler.completed)
    seeds

let test_generator_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.case ~seed () in
      let b = Gen.case ~seed () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d same program" seed)
        (Format.asprintf "%a" Program.pp a.Gen.program)
        (Format.asprintf "%a" Program.pp b.Gen.program);
      Alcotest.(check bool) (Printf.sprintf "seed %d same cfg" seed) true (a.Gen.cfg = b.Gen.cfg))
    [ 1; 7; 99; 12345 ]

let test_cfg_json_roundtrip () =
  List.iter
    (fun seed ->
      let cfg = (Gen.case ~seed ()).Gen.cfg in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d cfg json roundtrip" seed)
        true
        (Gen.cfg_of_json (Gen.cfg_to_json cfg) = cfg))
    [ 1; 2; 3; 50; 1000 ];
  match Gen.cfg_of_json (Stallhide_util.Json.Obj [ ("lanes", Stallhide_util.Json.Int 1) ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "incomplete cfg accepted"

(* --- oracles --- *)

let test_oracles_pass () =
  List.iter
    (fun seed ->
      let case = Gen.case ~seed () in
      List.iter
        (fun oracle ->
          match Oracle.check_case oracle case with
          | Oracle.Pass -> ()
          | v ->
              Alcotest.fail
                (Printf.sprintf "oracle %s seed %d: %s" (Oracle.to_string oracle) seed
                   (Oracle.verdict_to_string v)))
        Oracle.all)
    [ 42; 43; 44; 45; 46; 47 ]

(* the oracles must be able to see a miscompile: the load-clobbering
   mutant pass is caught, and on a load-free program it is a no-op *)
let test_mutant_detected () =
  let case = Gen.case ~seed:44 () in
  (match Oracle.check_case Oracle.Mutant case with
  | Oracle.Counterexample _ -> ()
  | v ->
      Alcotest.fail
        ("mutant not detected on seed 44: " ^ Oracle.verdict_to_string v));
  let loadless =
    Program.assemble
      [
        Program.Ins (Instr.Mov (Reg.r4, Instr.Imm 7));
        Program.Ins (Instr.Binop (Instr.Add, Reg.r5, Reg.r4, Instr.Imm 1));
        Program.Ins Instr.Halt;
      ]
  in
  match Oracle.check Oracle.Mutant (Gen.case ~seed:44 ()).Gen.cfg loadless with
  | Oracle.Pass -> ()
  | v -> Alcotest.fail ("load-free program not a mutant fixpoint: " ^ Oracle.verdict_to_string v)

(* an instrumented arm that traps reads as a counterexample, not a
   crash: run the primary oracle on a program whose instrumented form
   is fine but whose shrink candidate without [halt] must be Invalid *)
let test_missing_halt_is_invalid () =
  let cfg = (Gen.case ~seed:42 ()).Gen.cfg in
  let no_halt = Program.assemble [ Program.Ins (Instr.Mov (Reg.r4, Instr.Imm 1)) ] in
  List.iter
    (fun oracle ->
      match Oracle.check oracle cfg no_halt with
      | Oracle.Invalid _ -> ()
      | v ->
          Alcotest.fail
            (Printf.sprintf "oracle %s on halt-less program: %s (want invalid)"
               (Oracle.to_string oracle) (Oracle.verdict_to_string v)))
    (Oracle.Mutant :: Oracle.all)

(* --- shrinker --- *)

(* pure shrinker logic, no oracles: minimize to the one instruction the
   predicate cares about *)
let test_minimize_synthetic () =
  let is_store = function Program.Ins (Instr.Store _) -> true | _ -> false in
  let test items = List.exists is_store items in
  let items =
    [
      Program.Ins (Instr.Mov (Reg.r4, Instr.Imm 300));
      Program.Label "head";
      Program.Ins (Instr.Load (Reg.r5, Reg.r1, 8));
      Program.Ins (Instr.Store (Reg.r1, 16, Reg.r5));
      Program.Ins (Instr.Binop (Instr.Add, Reg.r4, Reg.r4, Instr.Imm (-1)));
      Program.Ins (Instr.Branch (Instr.Gt, Reg.r4, Instr.Imm 0, "head"));
      Program.Ins Instr.Halt;
    ]
  in
  let minimal = Shrink.minimize ~test items in
  Alcotest.(check int) "one instruction survives" 1 (Shrink.instruction_count minimal);
  Alcotest.(check bool) "and it is the store" true (List.for_all is_store minimal)

(* end-to-end acceptance bound: a seeded miscompile (the load-clobber
   mutant on a generated program) shrinks to <= 5 instructions and the
   saved repro replays to the same counterexample, deterministically *)
let test_shrink_and_replay () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "stallhide-check-repros" in
  let report =
    Fuzz.run
      {
        Fuzz.cases = 1;
        seed = 44;
        oracles = [ Oracle.Mutant ];
        shrink = true;
        repro_dir = Some dir;
      }
  in
  match report.Fuzz.counterexamples with
  | [ cex ] ->
      let shrunk =
        match cex.Fuzz.shrunk_instructions with
        | Some n -> n
        | None -> Alcotest.fail "no shrink recorded"
      in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to %d <= 5 instructions" shrunk)
        true (shrunk <= 5);
      Alcotest.(check bool) "shrinking only removes" true (shrunk <= cex.Fuzz.instructions);
      let path = match cex.Fuzz.repro_path with Some p -> p | None -> Alcotest.fail "no repro" in
      let repro = Repro.load path in
      let v1 = Repro.replay repro in
      let v2 = Repro.replay repro in
      Alcotest.(check string) "replay deterministic" (Oracle.verdict_to_string v1)
        (Oracle.verdict_to_string v2);
      (match v1 with
      | Oracle.Counterexample d ->
          Alcotest.(check string) "replay reproduces the report" cex.Fuzz.detail d
      | v -> Alcotest.fail ("replay did not fail: " ^ Oracle.verdict_to_string v))
  | l -> Alcotest.fail (Printf.sprintf "expected 1 counterexample, got %d" (List.length l))

(* --- repro files --- *)

let test_repro_roundtrip () =
  let case = Gen.case ~seed:44 () in
  let repro =
    Repro.make ~oracle:Oracle.Mutant ~cfg:case.Gen.cfg ~program:case.Gen.program
      ~detail:"seeded"
  in
  let back = Repro.of_json (Repro.to_json repro) in
  Alcotest.(check bool) "json roundtrip" true (back = repro);
  Alcotest.(check string) "program text survives" repro.Repro.program_text
    (Format.asprintf "%a" Program.pp (Repro.program back))

(* --- campaign --- *)

let test_campaign_green_and_deterministic () =
  let opts = { Fuzz.default_opts with Fuzz.cases = 10; seed = 42 } in
  let a = Fuzz.run opts in
  Alcotest.(check bool) "10x4 campaign green" true (Fuzz.ok a);
  Alcotest.(check int) "all checks executed" (10 * List.length Oracle.all) a.Fuzz.checks;
  let b = Fuzz.run opts in
  Alcotest.(check string) "campaign deterministic"
    (Stallhide_util.Json.to_string (Fuzz.report_to_json a))
    (Stallhide_util.Json.to_string (Fuzz.report_to_json b))

(* an empty campaign checks nothing, so it must not read as a pass *)
let test_campaign_rejects_no_cases () =
  List.iter
    (fun cases ->
      Alcotest.check_raises (Printf.sprintf "%d cases" cases)
        (Invalid_argument "Fuzz.run: cases must be at least 1") (fun () ->
          ignore (Fuzz.run { Fuzz.default_opts with Fuzz.cases })))
    [ 0; -1 ]

let () =
  Alcotest.run "check"
    [
      ( "generator",
        [
          Alcotest.test_case "well-formed by construction" `Quick test_generator_wellformed;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "cfg json roundtrip" `Quick test_cfg_json_roundtrip;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "all pass on generated cases" `Quick test_oracles_pass;
          Alcotest.test_case "mutant detected" `Quick test_mutant_detected;
          Alcotest.test_case "halt-less cases invalid" `Quick test_missing_halt_is_invalid;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "synthetic minimization" `Quick test_minimize_synthetic;
          Alcotest.test_case "mutant shrinks to <= 5 and replays" `Quick test_shrink_and_replay;
        ] );
      ("repro", [ Alcotest.test_case "json roundtrip" `Quick test_repro_roundtrip ]);
      ( "campaign",
        [
          Alcotest.test_case "green and deterministic" `Quick
            test_campaign_green_and_deterministic;
          Alcotest.test_case "no cases rejected" `Quick test_campaign_rejects_no_cases;
        ] );
    ]
