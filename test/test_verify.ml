open Stallhide_isa
open Stallhide_binopt
open Stallhide_verify
module D = Diagnostic

let est ~p_miss ~stall =
  {
    Gain_cost.miss_probability = (fun _ -> p_miss);
    stall_per_miss = (fun _ -> stall);
  }

let hot = est ~p_miss:(Some 1.0) ~stall:(Some 196.0)

let always = { Primary_pass.default_opts with Primary_pass.policy = Gain_cost.Always }

let checks_of diags = List.sort_uniq compare (List.map (fun d -> d.D.check) diags)

let has_error check diags =
  List.exists (fun d -> d.D.check = check && d.D.severity = D.Error) diags

let has_warning check diags =
  List.exists (fun d -> d.D.check = check && d.D.severity = D.Warning) diags

let chase_src = {|
loop:
  load r1, [r1]
  sub r2, r2, 1
  br gt r2, 0, loop
  halt
|}

(* --- cfg equivalence --- *)

let test_cfg_equiv_clean () =
  let orig = Asm.parse chase_src in
  let inst, map, _ = Primary_pass.run always hot orig in
  Alcotest.(check (list string)) "clean" []
    (List.map (Format.asprintf "%a" D.pp) (Checks.cfg_equivalence ~orig ~orig_of_new:map inst))

let test_cfg_equiv_inserted_map () =
  let orig = Asm.parse chase_src in
  let inst, map, _ = Primary_pass.run always hot orig in
  let ins = Checks.inserted_map ~orig_of_new:map inst in
  (* prefetch + yield inserted before the load at the loop head *)
  Alcotest.(check bool) "prefetch inserted" true ins.(0);
  Alcotest.(check bool) "yield inserted" true ins.(1);
  Alcotest.(check bool) "load original" false ins.(2)

(* mutation: a non-instrumentation instruction smuggled in *)
let test_cfg_equiv_rejects_foreign_insertion () =
  let orig = Asm.parse chase_src in
  let inst, map =
    Rewrite.insert_before orig (fun pc -> if pc = 1 then [ Instr.Nop ] else [])
  in
  Alcotest.(check bool) "nop insertion caught" true
    (has_error D.Cfg_equiv (Checks.cfg_equivalence ~orig ~orig_of_new:map inst))

(* mutation: an original instruction altered in place *)
let test_cfg_equiv_rejects_altered_instr () =
  let orig = Asm.parse chase_src in
  let items =
    List.map
      (function
        | Program.Ins (Instr.Binop (Instr.Sub, rd, rs, o)) ->
            Program.Ins (Instr.Binop (Instr.Add, rd, rs, o))
        | item -> item)
      (Program.to_items orig)
  in
  let inst = Program.assemble items in
  let map = Array.init (Program.length inst) (fun i -> i) in
  Alcotest.(check bool) "altered sub caught" true
    (has_error D.Cfg_equiv (Checks.cfg_equivalence ~orig ~orig_of_new:map inst))

(* mutation: a branch retargeted to a different label *)
let test_cfg_equiv_rejects_retargeted_branch () =
  let orig = Asm.parse "top:\n  nop\nmid:\n  add r1, r1, 1\n  br gt r1, 0, top\n  halt" in
  let items =
    List.map
      (function
        | Program.Ins (Instr.Branch (c, rs, o, "top")) ->
            Program.Ins (Instr.Branch (c, rs, o, "mid"))
        | item -> item)
      (Program.to_items orig)
  in
  let inst = Program.assemble items in
  let map = Array.init (Program.length inst) (fun i -> i) in
  Alcotest.(check bool) "retarget caught" true
    (has_error D.Cfg_equiv (Checks.cfg_equivalence ~orig ~orig_of_new:map inst))

(* mutation: a label deleted from the rewritten program *)
let test_cfg_equiv_rejects_dropped_label () =
  let orig = Asm.parse "nop\nmark:\n  add r1, r1, 1\n  halt" in
  let items =
    List.filter (function Program.Label "mark" -> false | _ -> true) (Program.to_items orig)
  in
  let inst = Program.assemble items in
  let map = Array.init (Program.length inst) (fun i -> i) in
  Alcotest.(check bool) "dropped label caught" true
    (has_error D.Cfg_equiv (Checks.cfg_equivalence ~orig ~orig_of_new:map inst))

let test_cfg_equiv_rejects_bad_map () =
  let orig = Asm.parse chase_src in
  Alcotest.(check bool) "short map caught" true
    (has_error D.Cfg_equiv (Checks.cfg_equivalence ~orig ~orig_of_new:[| 0 |] orig))

(* --- liveness soundness --- *)

let test_liveness_clean () =
  let orig = Asm.parse chase_src in
  let inst, _, _ = Primary_pass.run always hot orig in
  Alcotest.(check (list string)) "pass annotations sound" []
    (List.map (Format.asprintf "%a" D.pp) (Checks.liveness_soundness inst))

(* mutation: claim fewer saved registers than are live — a context
   switch there would lose state *)
let test_liveness_rejects_dropped_register () =
  let orig = Asm.parse chase_src in
  let inst, _, _ = Primary_pass.run always hot orig in
  let ypc =
    let found = ref (-1) in
    for pc = Program.length inst - 1 downto 0 do
      match Program.instr inst pc with Instr.Yield _ -> found := pc | _ -> ()
    done;
    !found
  in
  let annot = Program.annot inst ypc in
  (match annot.Program.live_regs with
  | Some k when k > 0 -> annot.Program.live_regs <- Some (k - 1)
  | _ -> Alcotest.fail "expected a positive liveness annotation to mutate");
  Alcotest.(check bool) "dropped register caught" true
    (has_error D.Liveness (Checks.liveness_soundness inst))

let test_liveness_warns_stale_annotation () =
  let p = Asm.parse "mov r1, 1\nyield\nadd r2, r1, 0\nhalt" in
  (Program.annot p 1).Program.live_regs <- Some 7;
  let diags = Checks.liveness_soundness p in
  Alcotest.(check bool) "oversave is a warning" true (has_warning D.Liveness diags);
  Alcotest.(check bool) "oversave is not an error" false (has_error D.Liveness diags)

let test_liveness_unannotated_is_sound () =
  let p = Asm.parse "mov r1, 1\nyield\nadd r2, r1, 0\nhalt" in
  Alcotest.(check (list string)) "full save accepted" []
    (List.map (Format.asprintf "%a" D.pp) (Checks.liveness_soundness p))

(* --- prefetch/yield pairing --- *)

let test_pairing_clean () =
  let orig = Asm.parse chase_src in
  let inst, map, _ = Primary_pass.run always hot orig in
  let ins = Checks.inserted_map ~orig_of_new:map inst in
  Alcotest.(check (list string)) "pass pairing sound" []
    (List.map (Format.asprintf "%a" D.pp)
       (Checks.prefetch_pairing ~is_inserted:(fun pc -> ins.(pc)) inst))

(* mutation: the address register is clobbered between prefetch and load *)
let test_pairing_rejects_clobbered_base () =
  let p = Asm.parse "prefetch [r1]\nmov r1, 0\nload r2, [r1]\nhalt" in
  let diags = Checks.prefetch_pairing ~is_inserted:(fun pc -> pc = 0) p in
  Alcotest.(check bool) "clobber caught as error" true (has_error D.Pairing diags);
  (* same defect in hand-written code is only a warning *)
  let diags = Checks.prefetch_pairing p in
  Alcotest.(check bool) "hand-written clobber is a warning" true
    (has_warning D.Pairing diags && not (has_error D.Pairing diags))

(* mutation: the paired load deleted outright *)
let test_pairing_rejects_orphan_prefetch () =
  let p = Asm.parse "prefetch [r3+8]\nadd r1, r1, 1\nhalt" in
  Alcotest.(check bool) "orphan prefetch caught" true
    (has_error D.Pairing (Checks.prefetch_pairing ~is_inserted:(fun _ -> true) p))

let test_pairing_checks_yield_cond () =
  let p = Asm.parse "cyield [r2]\nmov r2, 1\nload r4, [r2]\nhalt" in
  Alcotest.(check bool) "cyield address checked" true
    (has_error D.Pairing (Checks.prefetch_pairing ~is_inserted:(fun _ -> true) p))

(* --- interval bound --- *)

let straight_loop n =
  let b = Builder.create () in
  Builder.label b "loop";
  for _ = 1 to n do
    Builder.addi b Reg.r1 Reg.r1 1
  done;
  Builder.binop b Instr.Sub Reg.r2 Reg.r2 (Instr.Imm 1);
  Builder.branch b Instr.Gt Reg.r2 (Instr.Imm 0) "loop";
  Builder.halt b;
  Builder.assemble b

let test_interval_clean_after_scavenger () =
  let p = straight_loop 100 in
  let opts = { Scavenger_pass.default_opts with Scavenger_pass.target_interval = 25 } in
  let p', _, _ = Scavenger_pass.run opts p in
  Alcotest.(check (list string)) "scavenger output within bound" []
    (List.map (Format.asprintf "%a" D.pp) (Checks.interval_bound ~target:25 p'))

(* mutation: no yields at all — the loop's interval is unbounded *)
let test_interval_rejects_yield_free_loop () =
  let p = straight_loop 20 in
  Alcotest.(check bool) "unbounded loop caught" true
    (has_error D.Interval (Checks.interval_bound ~target:25 p))

(* mutation: yields exist (every cycle cut) but a path is far too long *)
let test_interval_rejects_long_path () =
  let b = Builder.create () in
  Builder.label b "loop";
  Builder.yield b Instr.Scavenger;
  for _ = 1 to 80 do
    Builder.addi b Reg.r1 Reg.r1 1
  done;
  Builder.binop b Instr.Sub Reg.r2 Reg.r2 (Instr.Imm 1);
  Builder.branch b Instr.Gt Reg.r2 (Instr.Imm 0) "loop";
  Builder.halt b;
  let p = Builder.assemble b in
  let diags = Checks.interval_bound ~target:10 p in
  Alcotest.(check bool) "long path caught" true (has_error D.Interval diags);
  (* the witness traces a path: non-empty, ending at the worst pc *)
  let d = List.find (fun d -> d.D.check = D.Interval) diags in
  Alcotest.(check bool) "witness path present" true (d.D.witness <> [])

let test_interval_bad_target () =
  match Checks.interval_bound ~target:0 (straight_loop 5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "target 0 accepted"

(* The bound is twice the target: a yield-free path of static cost
   2 x target passes, one cycle more fails. *)
let test_interval_bound_is_twice_target () =
  let straight n =
    let b = Builder.create () in
    for _ = 1 to n do
      Builder.addi b Reg.r1 Reg.r1 1
    done;
    Builder.halt b;
    Builder.assemble b
  in
  Alcotest.(check (list string)) "cost 20 within target 10" []
    (List.map (Format.asprintf "%a" D.pp) (Checks.interval_bound ~target:10 (straight 20)));
  Alcotest.(check bool) "cost 21 over target 10" true
    (has_error D.Interval (Checks.interval_bound ~target:10 (straight 21)))

(* Shrunk fuzz programs (scavenger oracle, one case each) where a
   read-modify-write window entered with the budget part-spent ran the
   pass's rewrite past the bound: (seed, target, program). *)
let rmw_windows =
  [
    ( 3041, 32,
      {|
  div r7, r5, 1
  load r5, [r1+176]
  load r2, [r0]
  load r7, [r1]
  rem r6, r7, 1
  load r4, [r1]
  load r3, [r3]
  load r2, [r2]
  load r3, [r2]
  load r5, [r1]
  store [r1+176], r5
  halt
|} );
    ( 6373, 38,
      {|
  mul r5, r7, 1
  load r2, [r3]
  load r4, [r1+208]
  load r5, [r1]
  load r3, [r3]
  mov r7, 0
  load r5, [r1]
  or r6, r4, 1
  load r6, [r1]
  sub r5, r7, 1
  load r2, [r2]
  store [r1], r2
  load r5, [r1]
  div r6, r6, 1
  rem r5, r5, 1
  load r5, [r1]
  store [r1+208], r4
  halt
|} );
    ( 25563, 30,
      {|
  store [r1], r6
  load r2, [r3]
  load r2, [r0]
  load r7, [r1+360]
  add r7, r6, 1
  load r2, [r2]
  load r5, [r1]
  mov r4, 0
  store [r1], r7
  store [r1], r5
  mov r5, 0
  shl r6, r7, 1
  rem r6, r4, 1
  load r6, [r1]
  shl r6, r5, 0
  load r6, [r1]
  store [r1], r6
  store [r1+360], r2
  halt
|} );
    ( 74794, 32,
      {|
  div r6, r5, 1
  load r4, [r1]
  load r4, [r1+80]
  rem r4, r6, 1
  load r7, [r1]
  rem r5, r4, 1
  div r4, r4, 1
  mov r4, 0
  store [r1+80], r4
  halt
|} );
    ( 101421, 30,
      {|
  load r2, [r2]
  load r5, [r1]
  load r2, [r3]
  load r7, [r1+32]
  mov r6, 0
  rem r4, r4, 1
  div r4, r4, 1
  load r6, [r1]
  load r4, [r1]
  load r3, [r0]
  store [r1+32], r3
  halt
|} );
    ( 115461, 32,
      {|
  mul r4, r4, 1
  br gt r6, r7, skip_0
  and r4, r7, 1
skip_0:
  div r6, r4, 1
  sub r4, r4, 1
  load r4, [r1]
  load r4, [r1+56]
  load r5, [r1]
  load r4, [r1]
  load r3, [r3]
  store [r1], r4
  div r7, r5, 1
  shl r4, r4, 1
  store [r1], r4
  shr r7, r5, 0
  store [r1], r5
  store [r1+56], r7
  halt
|} );
    ( 116595, 32,
      {|
  load r7, [r1]
  load r4, [r1]
  load r5, [r1+64]
  load r3, [r0]
  load r3, [r0]
  load r3, [r0]
  mov r6, 0
  load r3, [r0]
  load r3, [r3]
  load r2, [r3]
  and r6, r6, 1
  store [r1], r2
  load r2, [r0]
  load r3, [r2]
  load r5, [r1]
  add r4, r5, 1
  store [r1+64], r4
  halt
|} );
  ]

(* The pass yields before a window's opening load when the window would
   run the distance past the bound, so the verifier accepts its
   rewrite. *)
let test_interval_rmw_window (_, target, src) () =
  let orig = Asm.parse src in
  let opts = { Scavenger_pass.default_opts with Scavenger_pass.target_interval = target } in
  let p', map, _ = Scavenger_pass.run opts orig in
  let o = Verify.validate ~orig ~orig_of_new:map ~target_interval:target p' in
  Alcotest.(check (list string)) "verifier accepts the rewrite" []
    (List.map (Format.asprintf "%a" D.pp) o.Verify.diags)

(* --- SFI completeness --- *)

let diamond_mem_src =
  {|
  load r4, [r1]
  br eq r4, 0, else_
  add r2, r2, 1
  jmp join
else_:
  add r2, r2, 2
join:
  store [r1+8], r2
  halt
|}

let test_sfi_clean () =
  let p = Asm.parse diamond_mem_src in
  let p', _, _ = Sfi_pass.run Sfi_pass.default_opts p in
  Alcotest.(check (list string)) "sfi output fully guarded" []
    (List.map (Format.asprintf "%a" D.pp) (Checks.sfi_completeness p'))

(* mutation: delete one guard from the pass output *)
let test_sfi_rejects_deleted_guard () =
  let p = Asm.parse diamond_mem_src in
  let p', _, _ = Sfi_pass.run Sfi_pass.default_opts p in
  let dropped = ref false in
  let items =
    List.filter
      (function
        | Program.Ins (Instr.Guard _) when not !dropped ->
            dropped := true;
            false
        | _ -> true)
      (Program.to_items p')
  in
  Alcotest.(check bool) "a guard was present to delete" true !dropped;
  Alcotest.(check bool) "deleted guard caught" true
    (has_error D.Sfi (Checks.sfi_completeness (Program.assemble items)))

(* a guard on only one path into a join must not count as coverage *)
let test_sfi_one_armed_guard_insufficient () =
  let p =
    Asm.parse
      {|
  br eq r4, 0, else_
  guard [r1]
  jmp join
else_:
  add r2, r2, 2
join:
  load r5, [r1]
  halt
|}
  in
  Alcotest.(check bool) "must-analysis catches one-armed guard" true
    (has_error D.Sfi (Checks.sfi_completeness p))

let test_sfi_kill_on_redefinition () =
  let p = Asm.parse "guard [r1]\nadd r1, r1, 8\nload r4, [r1]\nhalt" in
  Alcotest.(check bool) "redefined base invalidates guard" true
    (has_error D.Sfi (Checks.sfi_completeness p))

let test_sfi_options_respected () =
  let p = Asm.parse "guard [r1]\nload r4, [r1]\nstore [r2], r4\nhalt" in
  Alcotest.(check bool) "unguarded store flagged" true
    (has_error D.Sfi (Checks.sfi_completeness p));
  Alcotest.(check (list string)) "stores exempt when not guarded by the pass" []
    (List.map (Format.asprintf "%a" D.pp) (Checks.sfi_completeness ~guard_stores:false p))

(* --- atomicity --- *)

(* mutation: a yield lands inside a read-modify-write window *)
let test_atomicity_flags_yield_in_rmw () =
  let p = Asm.parse "load r4, [r3]\nyield\nstore [r3], r4\nhalt" in
  let diags = Checks.atomicity p in
  Alcotest.(check bool) "split window flagged" true (has_warning D.Atomicity diags);
  let d = List.find (fun d -> d.D.check = D.Atomicity) diags in
  Alcotest.(check int) "flagged at the yield" 1 d.D.pc;
  Alcotest.(check (list int)) "witness is the window" [ 0; 2 ] d.D.witness

let test_atomicity_clean_cases () =
  let clean src =
    Alcotest.(check (list string)) ("clean: " ^ src) []
      (List.map (Format.asprintf "%a" D.pp) (Checks.atomicity (Asm.parse src)))
  in
  (* yield after the store: window already closed *)
  clean "load r4, [r3]\nstore [r3], r4\nyield\nhalt";
  (* base redefined before the store: not the same address *)
  clean "load r4, [r3]\nadd r3, r3, 8\nyield\nstore [r3], r4\nhalt";
  (* different displacement: different word *)
  clean "load r4, [r3]\nyield\nstore [r3+8], r4\nhalt"

let test_atomicity_clean_after_scavenger () =
  (* the scavenger pass defers yields past RMW windows; the lint must
     agree with its own output *)
  let b = Builder.create () in
  Builder.label b "loop";
  Builder.load b Reg.r4 Reg.r3 0;
  for _ = 1 to 30 do
    Builder.addi b Reg.r4 Reg.r4 1
  done;
  Builder.store b Reg.r3 0 Reg.r4;
  Builder.binop b Instr.Sub Reg.r2 Reg.r2 (Instr.Imm 1);
  Builder.branch b Instr.Gt Reg.r2 (Instr.Imm 0) "loop";
  Builder.halt b;
  let p = Builder.assemble b in
  let opts = { Scavenger_pass.default_opts with Scavenger_pass.target_interval = 10 } in
  let p', _, _ = Scavenger_pass.run opts p in
  Alcotest.(check (list string)) "no yield splits a window" []
    (List.map (Format.asprintf "%a" D.pp) (Checks.atomicity p'))

(* --- Verify driver --- *)

let test_verify_run_clean () =
  let orig = Asm.parse chase_src in
  let inst, map, _ = Primary_pass.run always hot orig in
  let o = Verify.validate ~orig ~orig_of_new:map inst in
  Alcotest.(check bool) "ok" true (Verify.ok o);
  Alcotest.(check bool) "clean" true (Verify.clean o);
  Alcotest.(check (list string)) "checks run"
    [ "cfg-equiv"; "liveness"; "pairing"; "atomicity" ]
    (List.map D.check_id o.Verify.checks_run)

let test_verify_registry_counters () =
  let reg = Stallhide_obs.Registry.create () in
  let orig = Asm.parse chase_src in
  let inst, map, _ = Primary_pass.run always hot orig in
  let (_ : Verify.outcome) = Verify.validate ~orig ~orig_of_new:map ~registry:reg inst in
  Alcotest.(check int) "programs counted" 1 (Stallhide_obs.Registry.total reg "verify.programs");
  Alcotest.(check int) "checks counted" 4 (Stallhide_obs.Registry.total reg "verify.checks");
  Alcotest.(check int) "no errors counted" 0 (Stallhide_obs.Registry.total reg "verify.errors")

let test_verify_outcome_json () =
  let p = Asm.parse "load r4, [r3]\nyield\nstore [r3], r4\nhalt" in
  let o = Verify.run p in
  let j = Verify.outcome_to_json o in
  let open Stallhide_util in
  Alcotest.(check (option int)) "warning count in json" (Some (Verify.warnings o))
    (Option.bind (Json.member "warnings" j) Json.to_int_opt);
  (* round-trips through the printer/parser *)
  let j2 = Json.of_string (Json.to_string j) in
  Alcotest.(check bool) "json round-trip" true (j = j2)

let test_diagnostic_ordering () =
  let w = D.warning D.Atomicity ~pc:1 "w" in
  let e = D.error D.Liveness ~pc:9 "e" in
  Alcotest.(check bool) "errors sort first" true (D.compare e w < 0)

(* --- pipeline fail-fast integration --- *)

let test_pipeline_verifies_by_default () =
  let orig = Asm.parse chase_src in
  (* a healthy rewrite passes through instrument_with untouched *)
  let inst = Stallhide.Pipeline.instrument_with ~estimates:hot ~primary:always orig in
  Alcotest.(check bool) "instrumented" true
    (Program.length inst.Stallhide.Pipeline.program > Program.length orig)

(* --- random programs through every pass verify clean --- *)

(* A well-formed random program: chunks of arithmetic/memory ops, each
   chunk wrapped in a counted loop. Codes drive the op mix. *)
let program_of_codes codes =
  let b = Builder.create () in
  let chunk = ref 0 in
  let emit_op code =
    match code mod 6 with
    | 0 -> Builder.addi b Reg.r1 Reg.r1 1
    | 1 -> Builder.load b Reg.r4 Reg.r3 (code mod 4 * 8)
    | 2 ->
        (* read-modify-write of [r3]: load, touch, store *)
        Builder.load b Reg.r4 Reg.r3 0;
        Builder.addi b Reg.r4 Reg.r4 1;
        Builder.store b Reg.r3 0 Reg.r4
    | 3 -> Builder.binop b Instr.Mul Reg.r5 Reg.r1 (Instr.Imm 3)
    | 4 -> Builder.load b Reg.r6 Reg.r2 8
    | _ -> Builder.movi b Reg.r7 code
  in
  let rec loop = function
    | [] -> ()
    | codes ->
        let body = List.filteri (fun i _ -> i < 8) codes in
        let rest = List.filteri (fun i _ -> i >= 8) codes in
        incr chunk;
        let l = Builder.fresh b "chunk" in
        Builder.movi b Reg.r9 3;
        Builder.label b l;
        List.iter emit_op body;
        Builder.binop b Instr.Sub Reg.r9 Reg.r9 (Instr.Imm 1);
        Builder.branch b Instr.Gt Reg.r9 (Instr.Imm 0) l;
        loop rest
  in
  loop codes;
  Builder.halt b;
  Builder.assemble b

let codes_gen = QCheck.(list_of_size Gen.(1 -- 40) (int_bound 100))

(* Soundness property: whatever the input program, no pass produces a
   rewrite the verifier rejects. Warnings are allowed (the atomicity
   lint legitimately fires when a random RMW window overlaps another
   load the primary pass selected); errors are not. *)
let qcheck_passes_verify_clean =
  QCheck.Test.make ~name:"instrumentation passes always verify (no errors)" ~count:60
    codes_gen
    (fun codes ->
      let orig = program_of_codes codes in
      let primary_ok =
        let inst, map, _ = Primary_pass.run always hot orig in
        Verify.ok (Verify.validate ~orig ~orig_of_new:map inst)
      in
      let scavenger_ok =
        let opts = { Scavenger_pass.default_opts with Scavenger_pass.target_interval = 30 } in
        let inst, map, _ = Scavenger_pass.run opts orig in
        Verify.ok (Verify.validate ~orig ~orig_of_new:map ~target_interval:30 inst)
      in
      let sfi_ok =
        let inst, map, _ = Sfi_pass.run Sfi_pass.default_opts orig in
        Verify.ok (Verify.validate ~orig ~orig_of_new:map ~expect_sfi:true inst)
      in
      primary_ok && scavenger_ok && sfi_ok)

(* The composed pipeline (primary then scavenger) also verifies: this is
   exactly what Pipeline.instrument_with runs after every instrumentation. *)
let qcheck_composed_pipeline_verifies =
  QCheck.Test.make ~name:"composed primary+scavenger verifies" ~count:30 codes_gen
    (fun codes ->
      let orig = program_of_codes codes in
      let inst =
        Stallhide.Pipeline.instrument_with ~estimates:hot ~primary:always
          ~scavenger_interval:40 orig
      in
      (* instrument_with already ran the verifier (fail-fast); re-check
         explicitly so the property is self-contained *)
      Verify.ok
        (Verify.validate ~orig
           ~orig_of_new:inst.Stallhide.Pipeline.orig_of_new
           ~target_interval:40 inst.Stallhide.Pipeline.program))

(* --- registered workloads stay verifier-clean --- *)

let test_workloads_verify_clean () =
  let open Stallhide_workloads in
  let cases =
    [
      ("pointer-chase", Pointer_chase.make ~manual:false ~lanes:2 ~nodes_per_lane:256 ~hops:30 ~seed:7 ());
      ("btree", Btree.make ~manual:false ~lanes:2 ~keys:512 ~ops:30 ~seed:7 ());
      ("group-by", Group_by.make ~manual:false ~lanes:2 ~groups:256 ~tuples:30 ~seed:7 ());
      ("offload", Offload.make ~manual:false ~lanes:2 ~ops:20 ~overlap:8 ~seed:7 ());
    ]
  in
  List.iter
    (fun (name, w) ->
      let orig = w.Workload.program in
      let estimates = Stallhide.Pipeline.oracle_estimates w in
      let inst =
        Stallhide.Pipeline.instrument_with ~estimates ~primary:always ~scavenger_interval:50
          orig
      in
      let o =
        Verify.validate ~orig ~orig_of_new:inst.Stallhide.Pipeline.orig_of_new
          ~target_interval:50 inst.Stallhide.Pipeline.program
      in
      Alcotest.(check (list string)) (name ^ " pgo clean") []
        (List.map (Format.asprintf "%a" D.pp) o.Verify.diags);
      let sfi, sfi_map, _ = Sfi_pass.run Sfi_pass.default_opts orig in
      let o = Verify.validate ~orig ~orig_of_new:sfi_map ~expect_sfi:true sfi in
      Alcotest.(check (list string)) (name ^ " sfi clean") []
        (List.map (Format.asprintf "%a" D.pp) o.Verify.diags))
    cases

let () =
  ignore checks_of;
  Alcotest.run "verify"
    [
      ( "cfg-equiv",
        [
          Alcotest.test_case "clean on pass output" `Quick test_cfg_equiv_clean;
          Alcotest.test_case "inserted map" `Quick test_cfg_equiv_inserted_map;
          Alcotest.test_case "rejects foreign insertion" `Quick
            test_cfg_equiv_rejects_foreign_insertion;
          Alcotest.test_case "rejects altered instr" `Quick test_cfg_equiv_rejects_altered_instr;
          Alcotest.test_case "rejects retargeted branch" `Quick
            test_cfg_equiv_rejects_retargeted_branch;
          Alcotest.test_case "rejects dropped label" `Quick test_cfg_equiv_rejects_dropped_label;
          Alcotest.test_case "rejects bad map" `Quick test_cfg_equiv_rejects_bad_map;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "clean on pass output" `Quick test_liveness_clean;
          Alcotest.test_case "rejects dropped register" `Quick
            test_liveness_rejects_dropped_register;
          Alcotest.test_case "warns on stale annotation" `Quick
            test_liveness_warns_stale_annotation;
          Alcotest.test_case "unannotated is sound" `Quick test_liveness_unannotated_is_sound;
        ] );
      ( "pairing",
        [
          Alcotest.test_case "clean on pass output" `Quick test_pairing_clean;
          Alcotest.test_case "rejects clobbered base" `Quick test_pairing_rejects_clobbered_base;
          Alcotest.test_case "rejects orphan prefetch" `Quick
            test_pairing_rejects_orphan_prefetch;
          Alcotest.test_case "checks conditional yields" `Quick test_pairing_checks_yield_cond;
        ] );
      ( "interval",
        [
          Alcotest.test_case "clean after scavenger" `Quick test_interval_clean_after_scavenger;
          Alcotest.test_case "rejects yield-free loop" `Quick
            test_interval_rejects_yield_free_loop;
          Alcotest.test_case "rejects long path" `Quick test_interval_rejects_long_path;
          Alcotest.test_case "bad target" `Quick test_interval_bad_target;
          Alcotest.test_case "bound is twice the target" `Quick
            test_interval_bound_is_twice_target;
        ] );
      ( "rmw window",
        List.map
          (fun ((seed, _, _) as case) ->
            Alcotest.test_case (Printf.sprintf "fuzz seed %d" seed) `Quick
              (test_interval_rmw_window case))
          rmw_windows );
      ( "sfi",
        [
          Alcotest.test_case "clean on pass output" `Quick test_sfi_clean;
          Alcotest.test_case "rejects deleted guard" `Quick test_sfi_rejects_deleted_guard;
          Alcotest.test_case "one-armed guard insufficient" `Quick
            test_sfi_one_armed_guard_insufficient;
          Alcotest.test_case "kill on redefinition" `Quick test_sfi_kill_on_redefinition;
          Alcotest.test_case "options respected" `Quick test_sfi_options_respected;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "flags yield in window" `Quick test_atomicity_flags_yield_in_rmw;
          Alcotest.test_case "clean cases" `Quick test_atomicity_clean_cases;
          Alcotest.test_case "clean after scavenger" `Quick test_atomicity_clean_after_scavenger;
        ] );
      ( "driver",
        [
          Alcotest.test_case "run clean" `Quick test_verify_run_clean;
          Alcotest.test_case "registry counters" `Quick test_verify_registry_counters;
          Alcotest.test_case "outcome json" `Quick test_verify_outcome_json;
          Alcotest.test_case "diagnostic ordering" `Quick test_diagnostic_ordering;
          Alcotest.test_case "pipeline verifies by default" `Quick
            test_pipeline_verifies_by_default;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_passes_verify_clean;
          QCheck_alcotest.to_alcotest qcheck_composed_pipeline_verifies;
        ] );
      ( "workloads",
        [ Alcotest.test_case "registered workloads verify clean" `Quick test_workloads_verify_clean ] );
    ]
