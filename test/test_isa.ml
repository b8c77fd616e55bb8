open Stallhide_isa

let instr = Alcotest.testable Instr.pp Instr.equal

(* --- Reg --- *)

let test_reg () =
  Alcotest.(check string) "name" "r11" (Reg.name Reg.r11);
  Alcotest.(check (option int)) "parse" (Some 5) (Reg.of_string "r5");
  Alcotest.(check (option int)) "parse oob" None (Reg.of_string "r16");
  Alcotest.(check (option int)) "parse junk" None (Reg.of_string "x3");
  Alcotest.(check (option int)) "parse empty" None (Reg.of_string "");
  Alcotest.check_raises "make oob" (Invalid_argument "Reg.make: out of range") (fun () ->
      ignore (Reg.make 16))

(* --- Instr use/def --- *)

let test_uses_defs () =
  let i = Instr.Binop (Instr.Add, Reg.r1, Reg.r2, Instr.Reg Reg.r3) in
  Alcotest.(check int) "binop uses" 0b1100 (Instr.uses i);
  Alcotest.(check int) "binop defs" 0b0010 (Instr.defs i);
  let l = Instr.Load (Reg.r4, Reg.r5, 8) in
  Alcotest.(check int) "load uses" (1 lsl 5) (Instr.uses l);
  Alcotest.(check int) "load defs" (1 lsl 4) (Instr.defs l);
  let s = Instr.Store (Reg.r1, 0, Reg.r2) in
  Alcotest.(check int) "store uses" 0b110 (Instr.uses s);
  Alcotest.(check int) "store defs" 0 (Instr.defs s);
  Alcotest.(check int) "call uses all" ((1 lsl Reg.count) - 1) (Instr.uses (Instr.Call "f"));
  Alcotest.(check int) "yield defs" 0 (Instr.defs (Instr.Yield Instr.Primary));
  Alcotest.(check int) "mov imm uses" 0 (Instr.uses (Instr.Mov (Reg.r0, Instr.Imm 3)))

let test_predicates () =
  Alcotest.(check bool) "is_load" true (Instr.is_load (Instr.Load (Reg.r0, Reg.r1, 0)));
  Alcotest.(check bool) "prefetch not load" false (Instr.is_load (Instr.Prefetch (Reg.r1, 0)));
  Alcotest.(check bool) "branch ends block" true
    (Instr.ends_block (Instr.Branch (Instr.Eq, Reg.r0, Instr.Imm 0, "l")));
  Alcotest.(check bool) "call continues" false (Instr.ends_block (Instr.Call "f"));
  Alcotest.(check (option string)) "target" (Some "x") (Instr.target (Instr.Jump "x"));
  Alcotest.(check (option string)) "no target" None (Instr.target Instr.Ret)

(* --- Program assembly --- *)

let simple_items =
  [
    Program.Label "start";
    Program.Ins (Instr.Mov (Reg.r1, Instr.Imm 5));
    Program.Label "loop";
    Program.Ins (Instr.Binop (Instr.Sub, Reg.r1, Reg.r1, Instr.Imm 1));
    Program.Ins (Instr.Branch (Instr.Gt, Reg.r1, Instr.Imm 0, "loop"));
    Program.Ins Instr.Halt;
  ]

let test_assemble () =
  let p = Program.assemble simple_items in
  Alcotest.(check int) "length" 4 (Program.length p);
  Alcotest.(check int) "label start" 0 (Program.label_index p "start");
  Alcotest.(check int) "label loop" 1 (Program.label_index p "loop");
  Alcotest.(check int) "branch target resolved" 1 (Program.resolved_target p 2);
  Alcotest.(check int) "non-branch target" (-1) (Program.resolved_target p 0);
  Alcotest.(check bool) "has_label" true (Program.has_label p "loop");
  Alcotest.(check bool) "no label" false (Program.has_label p "nope")

let test_assemble_errors () =
  let dup =
    [ Program.Label "a"; Program.Ins Instr.Halt; Program.Label "a"; Program.Ins Instr.Nop ]
  in
  (match Program.assemble dup with
  | exception Program.Error _ -> ()
  | _ -> Alcotest.fail "duplicate label accepted");
  (match Program.assemble [ Program.Ins (Instr.Jump "nowhere") ] with
  | exception Program.Error _ -> ()
  | _ -> Alcotest.fail "undefined label accepted");
  (match Program.assemble [] with
  | exception Program.Error _ -> ()
  | _ -> Alcotest.fail "empty program accepted");
  (* a trailing label has no instruction: jumping to it must fail *)
  match Program.assemble [ Program.Ins (Instr.Jump "end"); Program.Label "end" ] with
  | exception Program.Error _ -> ()
  | _ -> Alcotest.fail "jump to trailing label accepted"

let test_items_roundtrip () =
  let p = Program.assemble simple_items in
  let p2 = Program.assemble (Program.to_items p) in
  Alcotest.(check int) "same length" (Program.length p) (Program.length p2);
  for pc = 0 to Program.length p - 1 do
    Alcotest.check instr "same instr" (Program.instr p pc) (Program.instr p2 pc);
    Alcotest.(check int) "same target" (Program.resolved_target p pc)
      (Program.resolved_target p2 pc)
  done

let test_load_sites_yield_count () =
  let items =
    [
      Program.Ins (Instr.Load (Reg.r1, Reg.r1, 0));
      Program.Ins (Instr.Yield Instr.Primary);
      Program.Ins (Instr.Load (Reg.r2, Reg.r1, 8));
      Program.Ins (Instr.Yield Instr.Scavenger);
      Program.Ins (Instr.Yield_cond (Reg.r1, 0));
      Program.Ins Instr.Halt;
    ]
  in
  let p = Program.assemble items in
  Alcotest.(check (list int)) "load sites" [ 0; 2 ] (Program.load_sites p);
  Alcotest.(check int) "yield count" 3 (Program.yield_count p)

(* --- Builder --- *)

let test_builder () =
  let b = Builder.create () in
  Builder.movi b Reg.r1 3;
  Builder.label b "l";
  Builder.addi b Reg.r1 Reg.r1 (-1);
  Builder.branch b Instr.Gt Reg.r1 (Instr.Imm 0) "l";
  Builder.halt b;
  let p = Builder.assemble b in
  Alcotest.(check int) "len" 4 (Program.length p);
  Alcotest.(check int) "target" 1 (Program.resolved_target p 2);
  let l1 = Builder.fresh b "x" and l2 = Builder.fresh b "x" in
  Alcotest.(check bool) "fresh labels differ" true (l1 <> l2)

(* --- Asm parser --- *)

let asm_src =
  {|
# a tiny loop
start:
  mov r1, 10
  mov r2, 0
loop:
  add r2, r2, r1
  sub r1, r1, 1
  br gt r1, 0, loop   # back edge
  load r3, [r2+8]
  store [r2-8], r3
  prefetch [r2]
  cyield [r2+16]
  syield
  yield
  opmark
  nop
  halt
|}

let test_asm_parse () =
  let p = Asm.parse asm_src in
  Alcotest.(check int) "length" 14 (Program.length p);
  Alcotest.check instr "load" (Instr.Load (Reg.r3, Reg.r2, 8)) (Program.instr p 5);
  Alcotest.check instr "store negative disp" (Instr.Store (Reg.r2, -8, Reg.r3)) (Program.instr p 6);
  Alcotest.check instr "cyield" (Instr.Yield_cond (Reg.r2, 16)) (Program.instr p 8);
  Alcotest.check instr "syield" (Instr.Yield Instr.Scavenger) (Program.instr p 9);
  Alcotest.(check int) "branch target" 2 (Program.resolved_target p 4)

let test_asm_roundtrip () =
  let p = Asm.parse asm_src in
  let printed = Format.asprintf "%a" Program.pp p in
  let p2 = Asm.parse printed in
  Alcotest.(check int) "roundtrip length" (Program.length p) (Program.length p2);
  for pc = 0 to Program.length p - 1 do
    Alcotest.check instr "roundtrip instr" (Program.instr p pc) (Program.instr p2 pc)
  done

let test_asm_errors () =
  let bad s =
    match Asm.parse s with
    | exception Asm.Parse_error _ -> ()
    | _ -> Alcotest.fail ("accepted: " ^ s)
  in
  bad "frobnicate r1, r2";
  bad "mov r1";
  bad "load r1, r2";
  bad "br zz r1, 0, l\nl: halt";
  bad "mov r99, 1"

(* Label defects must carry the line of the offending statement, not
   line 0 (the pre-Program.assemble check in Asm). *)
let test_asm_error_lines () =
  let line_of s =
    match Asm.parse s with
    | exception Asm.Parse_error (line, _) -> line
    | _ -> Alcotest.fail ("accepted: " ^ s)
  in
  Alcotest.(check int) "syntax error line" 2 (line_of "nop\nbogus r1\nhalt");
  Alcotest.(check int) "duplicate label line" 3
    (line_of "a:\n  nop\na:\n  halt");
  Alcotest.(check int) "undefined label line" 2
    (line_of "nop\njmp nowhere\nhalt");
  Alcotest.(check int) "undefined branch target line" 3
    (line_of "a:\n  nop\n  br eq r1, 0, missing\n  halt")

(* random instruction printing/parsing agreement *)
let gen_instr =
  let open QCheck.Gen in
  let reg = int_bound (Reg.count - 1) in
  let operand = oneof [ map (fun r -> Instr.Reg r) reg; map (fun i -> Instr.Imm i) (int_range (-64) 512) ] in
  let disp = map (fun w -> w * 8) (int_range (-8) 16) in
  let binop =
    oneofl
      [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And; Instr.Or; Instr.Xor;
        Instr.Shl; Instr.Shr ]
  in
  let cond = oneofl [ Instr.Eq; Instr.Ne; Instr.Lt; Instr.Le; Instr.Gt; Instr.Ge ] in
  oneof
    [
      map3 (fun op rd (rs, o) -> Instr.Binop (op, rd, rs, o)) binop reg (pair reg operand);
      map2 (fun rd o -> Instr.Mov (rd, o)) reg operand;
      map3 (fun rd rs d -> Instr.Load (rd, rs, d)) reg reg disp;
      map3 (fun rs d rv -> Instr.Store (rs, d, rv)) reg disp reg;
      map2 (fun rs d -> Instr.Prefetch (rs, d)) reg disp;
      map3 (fun c rs o -> Instr.Branch (c, rs, o, "lbl")) cond reg operand;
      return (Instr.Jump "lbl");
      return (Instr.Call "lbl");
      return Instr.Ret;
      return (Instr.Yield Instr.Primary);
      return (Instr.Yield Instr.Scavenger);
      map2 (fun rs d -> Instr.Yield_cond (rs, d)) reg disp;
      map2 (fun rs d -> Instr.Guard (rs, d)) reg disp;
      map2 (fun rs d -> Instr.Accel_issue (rs, d)) reg disp;
      map (fun rd -> Instr.Accel_wait rd) reg;
      return Instr.Opmark;
      return Instr.Nop;
      return Instr.Halt;
    ]

let qcheck_print_parse =
  QCheck.Test.make ~name:"to_string/parse agree" ~count:500
    (QCheck.make ~print:Instr.to_string gen_instr)
    (fun i ->
      let src = "lbl:\n" ^ Instr.to_string i ^ "\nhalt\n" in
      let p = Asm.parse src in
      Instr.equal (Program.instr p 0) i)

(* whole-program roundtrip: [Asm.parse] after [Program.pp] reproduces
   the exact instruction stream (including symbolic branch targets) for
   arbitrary well-formed programs drawn from the lib/check generator *)
let qcheck_program_print_parse =
  QCheck.Test.make ~name:"Program.pp/Asm.parse roundtrip (generated programs)" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let case = Stallhide_check.Gen.case ~seed () in
      let p = case.Stallhide_check.Gen.program in
      let p' = Asm.parse (Format.asprintf "%a" Program.pp p) in
      let instrs prog = List.init (Program.length prog) (Program.instr prog) in
      Program.length p = Program.length p'
      && List.for_all2 Instr.equal (instrs p) (instrs p'))

let () =
  Alcotest.run "isa"
    [
      ("reg", [ Alcotest.test_case "basics" `Quick test_reg ]);
      ( "instr",
        [
          Alcotest.test_case "uses/defs" `Quick test_uses_defs;
          Alcotest.test_case "predicates" `Quick test_predicates;
        ] );
      ( "program",
        [
          Alcotest.test_case "assemble" `Quick test_assemble;
          Alcotest.test_case "assemble errors" `Quick test_assemble_errors;
          Alcotest.test_case "items roundtrip" `Quick test_items_roundtrip;
          Alcotest.test_case "load sites / yields" `Quick test_load_sites_yield_count;
        ] );
      ("builder", [ Alcotest.test_case "emit" `Quick test_builder ]);
      ( "asm",
        [
          Alcotest.test_case "parse" `Quick test_asm_parse;
          Alcotest.test_case "roundtrip" `Quick test_asm_roundtrip;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "error line numbers" `Quick test_asm_error_lines;
          QCheck_alcotest.to_alcotest qcheck_print_parse;
          QCheck_alcotest.to_alcotest qcheck_program_print_parse;
        ] );
    ]
