open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_binopt
module Scavenger_pass = Stallhide_analysis.Scavenger_pass

let cfg = Memconfig.default

(* --- CFG --- *)

let diamond_src =
  {|
  mov r1, 1
  br eq r1, 0, else_
  add r2, r2, 1
  jmp join
else_:
  add r2, r2, 2
join:
  halt
|}

let test_cfg_diamond () =
  let p = Asm.parse diamond_src in
  let cfg = Cfg.build p in
  Alcotest.(check int) "4 blocks" 4 (Cfg.block_count cfg);
  let b0 = Cfg.block cfg 0 in
  Alcotest.(check (list int)) "entry succs" [ 1; 2 ] (List.sort compare b0.Cfg.succs);
  let join = Cfg.block_of_pc cfg (Program.label_index p "join") in
  Alcotest.(check (list int)) "join preds" [ 1; 2 ] (List.sort compare join.Cfg.preds);
  Alcotest.(check bool) "leader" true (Cfg.is_leader cfg 0);
  Alcotest.(check bool) "not leader" false (Cfg.is_leader cfg 1)

let test_cfg_loop_and_call () =
  let p =
    Asm.parse
      {|
  mov r1, 3
loop:
  call f
  sub r1, r1, 1
  br gt r1, 0, loop
  halt
f:
  ret
|}
  in
  let cfg = Cfg.build p in
  (* call does not end a block, but its target starts one *)
  let fpc = Program.label_index p "f" in
  Alcotest.(check bool) "callee is leader" true (Cfg.is_leader cfg fpc);
  let loop_block = Cfg.block_of_pc cfg (Program.label_index p "loop") in
  Alcotest.(check bool) "loop back edge" true (List.mem loop_block.Cfg.id loop_block.Cfg.succs)

(* --- Liveness --- *)

let test_liveness_basic () =
  let p =
    Asm.parse {|
  mov r1, 1
  mov r2, 2
  yield
  add r3, r1, r2
  halt
|}
  in
  let cfg = Cfg.build p in
  let lv = Liveness.compute cfg in
  (* After the yield, r1 and r2 are live (used by the add); r3 is not. *)
  Alcotest.(check int) "live_out at yield" 0b110 (Liveness.live_out lv 2);
  Alcotest.(check int) "regs to save" 2 (Liveness.regs_to_save lv 2);
  (* Nothing is live after the add (halt uses nothing). *)
  Alcotest.(check int) "live_out at add" 0 (Liveness.live_out lv 3)

let test_liveness_dead_def () =
  let p = Asm.parse {|
  mov r1, 1
  yield
  mov r1, 2
  add r2, r1, 0
  halt
|} in
  let cfg = Cfg.build p in
  let lv = Liveness.compute cfg in
  (* r1 is redefined after the yield before use: not live across it. *)
  Alcotest.(check int) "dead def not saved" 0 (Liveness.live_out lv 1)

let test_liveness_loop () =
  let p =
    Asm.parse
      {|
loop:
  yield
  add r1, r1, r2
  sub r3, r3, 1
  br gt r3, 0, loop
  halt
|}
  in
  let cfg = Cfg.build p in
  let lv = Liveness.compute cfg in
  (* Around the back edge r1 (acc), r2 (addend), r3 (counter) are live. *)
  Alcotest.(check int) "loop-carried live set" 0b1110 (Liveness.live_out lv 0)

let test_liveness_call_conservative () =
  let p = Asm.parse {|
  mov r5, 9
  yield
  call f
  halt
f:
  ret
|} in
  let cfg = Cfg.build p in
  let lv = Liveness.compute cfg in
  (* Call uses all registers: everything is live at the yield. *)
  Alcotest.(check int) "call keeps all live" Reg.count (Liveness.regs_to_save lv 1)

let test_annotate_yields () =
  let p = Asm.parse {|
  mov r1, 1
  yield
  add r2, r1, 0
  halt
|} in
  Liveness.annotate_yields p;
  Alcotest.(check (option int)) "annotation set" (Some 1) (Program.annot p 1).Program.live_regs;
  Alcotest.(check (option int)) "non-yield untouched" None (Program.annot p 0).Program.live_regs

(* --- Depend / coalescing groups --- *)

let join_like_src =
  {|
  load r4, [r1]
  load r5, [r1+8]
  load r6, [r1+16]
  add r1, r1, 24
  load r7, [r4]
  load r8, [r5]
  load r9, [r8]
  halt
|}

let test_depend_groups () =
  let p = Asm.parse join_like_src in
  let cfg = Cfg.build p in
  let groups = Depend.groups cfg ~selected:(fun _ -> true) ~max_group:8 in
  (* pcs 0,1,2 independent (base r1). pc 3 defines r1 -> closes nothing
     for already-open group but bars later r1 loads. pcs 4,5 have bases
     r4/r5 defined inside the window, so they start a fresh group; pc 6
     depends on r8 (defined at pc 5) so it is alone. *)
  Alcotest.(check (list (list int))) "groups" [ [ 0; 1; 2 ]; [ 4; 5 ]; [ 6 ] ] groups

let test_depend_store_closes () =
  let p = Asm.parse "load r4, [r1]\nstore [r2], r4\nload r5, [r1+8]\nhalt" in
  let cfg = Cfg.build p in
  let groups = Depend.groups cfg ~selected:(fun _ -> true) ~max_group:8 in
  Alcotest.(check (list (list int))) "store splits groups" [ [ 0 ]; [ 2 ] ] groups

let test_depend_max_group () =
  let p = Asm.parse "load r4, [r1]\nload r5, [r1+8]\nload r6, [r1+16]\nhalt" in
  let cfg = Cfg.build p in
  let groups = Depend.groups cfg ~selected:(fun _ -> true) ~max_group:2 in
  Alcotest.(check (list (list int))) "cap respected" [ [ 0; 1 ]; [ 2 ] ] groups

let test_depend_selection () =
  let p = Asm.parse join_like_src in
  let cfg = Cfg.build p in
  let groups = Depend.groups cfg ~selected:(fun pc -> pc >= 4) ~max_group:8 in
  Alcotest.(check (list (list int))) "only selected loads grouped" [ [ 4; 5 ]; [ 6 ] ] groups

(* --- Gain/cost --- *)

let est ~p_miss ~stall =
  {
    Gain_cost.miss_probability = (fun _ -> p_miss);
    stall_per_miss = (fun _ -> stall);
  }

let test_gain_model () =
  let m = Gain_cost.default_machine in
  Alcotest.(check bool) "hot load worth it" true
    (Gain_cost.expected_gain m ~live_regs:16 ~p_miss:0.9 ~stall:196.0 > 0.0);
  Alcotest.(check bool) "cold load not worth it" true
    (Gain_cost.expected_gain m ~live_regs:16 ~p_miss:0.05 ~stall:196.0 < 0.0);
  (* fewer live registers make marginal sites profitable *)
  Alcotest.(check bool) "site cost falls with liveness" true
    (Gain_cost.expected_gain m ~live_regs:2 ~p_miss:0.2 ~stall:196.0
    > Gain_cost.expected_gain m ~live_regs:16 ~p_miss:0.2 ~stall:196.0);
  Alcotest.(check (float 0.001)) "switch cost model" 22.0
    (Gain_cost.switch_cost m ~live_regs:16)

let test_select_policies () =
  let p = Asm.parse "load r4, [r1]\nload r5, [r2]\nhalt" in
  let all = Gain_cost.select Gain_cost.Always Gain_cost.default_machine (est ~p_miss:None ~stall:None) p in
  Alcotest.(check (list int)) "always takes all loads" [ 0; 1 ] all;
  let none =
    Gain_cost.select (Gain_cost.Threshold 0.5) Gain_cost.default_machine
      (est ~p_miss:(Some 0.2) ~stall:None) p
  in
  Alcotest.(check (list int)) "threshold filters" [] none;
  let cb =
    Gain_cost.select Gain_cost.Cost_benefit Gain_cost.default_machine
      (est ~p_miss:(Some 0.9) ~stall:(Some 196.0)) p
  in
  Alcotest.(check (list int)) "cost-benefit takes hot" [ 0; 1 ] cb;
  let unsampled =
    Gain_cost.select Gain_cost.Cost_benefit Gain_cost.default_machine
      (est ~p_miss:None ~stall:None) p
  in
  Alcotest.(check (list int)) "unsampled loads left alone" [] unsampled

(* --- Rewrite --- *)

let test_rewrite_insert_before () =
  let p = Asm.parse "mov r1, 1\ntarget:\n  add r1, r1, 1\n  br gt r1, 0, target\n  halt" in
  let p', map =
    Rewrite.insert_before p (fun pc -> if pc = 1 then [ Instr.Nop; Instr.Nop ] else [])
  in
  Alcotest.(check int) "two inserted" (Program.length p + 2) (Program.length p');
  (* The label must now point at the first inserted instruction so jumps
     execute the inserted code. *)
  Alcotest.(check int) "label moved" 1 (Program.label_index p' "target");
  Alcotest.(check bool) "inserted at label" true (Program.instr p' 1 = Instr.Nop);
  (* orig_of_new: inserted pcs map to the pc they precede *)
  Alcotest.(check int) "map inserted" 1 map.(1);
  Alcotest.(check int) "map inserted 2" 1 map.(2);
  Alcotest.(check int) "map original" 1 map.(3);
  Alcotest.(check int) "map tail" 3 map.(5)

let test_rewrite_compose () =
  let inner = [| 0; 0; 1; 2 |] in
  let outer = [| 0; 1; 1; 2; 3 |] in
  Alcotest.(check (array int)) "compose" [| 0; 0; 0; 1; 2 |] (Rewrite.compose outer inner)

(* --- Primary pass --- *)

let chase_prog () = Asm.parse {|
loop:
  load r1, [r1]
  sub r2, r2, 1
  br gt r2, 0, loop
  halt
|}

let test_primary_pass_inserts () =
  let p = chase_prog () in
  let opts = { Primary_pass.default_opts with Primary_pass.policy = Gain_cost.Always } in
  let p', map, rep = Primary_pass.run opts (est ~p_miss:(Some 1.0) ~stall:(Some 196.0)) p in
  Alcotest.(check (list int)) "selected the load" [ 0 ] rep.Primary_pass.selected;
  Alcotest.(check int) "one yield site" 1 rep.Primary_pass.yield_sites;
  (* prefetch then yield precede the load, at the loop head label *)
  Alcotest.(check bool) "prefetch first" true (Program.instr p' 0 = Instr.Prefetch (Reg.r1, 0));
  Alcotest.(check bool) "yield second" true (Program.instr p' 1 = Instr.Yield Instr.Primary);
  Alcotest.(check bool) "load third" true (Program.instr p' 2 = Instr.Load (Reg.r1, Reg.r1, 0));
  Alcotest.(check int) "label at inserted head" 0 (Program.label_index p' "loop");
  Alcotest.(check int) "map" 0 map.(0);
  (* liveness annotation present at the yield *)
  Alcotest.(check bool) "yield annotated" true
    ((Program.annot p' 1).Program.live_regs <> None)

let test_primary_pass_coalesce () =
  let p = Asm.parse join_like_src in
  let opts =
    { Primary_pass.default_opts with Primary_pass.policy = Gain_cost.Always; max_group = 8 }
  in
  let p', _, rep = Primary_pass.run opts (est ~p_miss:(Some 1.0) ~stall:(Some 196.0)) p in
  Alcotest.(check int) "3 yields for 6 loads" 3 rep.Primary_pass.yield_sites;
  Alcotest.(check bool) "coalesced groups" true (rep.Primary_pass.coalesced_groups = 2);
  Alcotest.(check int) "yields in program" 3 (Program.yield_count p');
  (* group of three: three prefetches then a single yield *)
  Alcotest.(check bool) "pf0" true (Program.instr p' 0 = Instr.Prefetch (Reg.r1, 0));
  Alcotest.(check bool) "pf1" true (Program.instr p' 1 = Instr.Prefetch (Reg.r1, 8));
  Alcotest.(check bool) "pf2" true (Program.instr p' 2 = Instr.Prefetch (Reg.r1, 16));
  Alcotest.(check bool) "single yield" true (Program.instr p' 3 = Instr.Yield Instr.Primary)

let test_primary_pass_no_coalesce () =
  let p = Asm.parse join_like_src in
  let opts =
    { Primary_pass.default_opts with Primary_pass.policy = Gain_cost.Always; coalesce = false }
  in
  let _, _, rep = Primary_pass.run opts (est ~p_miss:(Some 1.0) ~stall:(Some 196.0)) p in
  Alcotest.(check int) "one yield per load" 6 rep.Primary_pass.yield_sites

let test_primary_pass_conditional () =
  let p = chase_prog () in
  let opts =
    { Primary_pass.default_opts with Primary_pass.policy = Gain_cost.Always; conditional = true }
  in
  let p', _, _ = Primary_pass.run opts (est ~p_miss:(Some 1.0) ~stall:(Some 196.0)) p in
  Alcotest.(check bool) "cyield emitted" true (Program.instr p' 0 = Instr.Yield_cond (Reg.r1, 0))

(* The instrumented program must compute the same results. *)
let test_primary_pass_preserves_semantics () =
  let mem = Address_space.create ~bytes:(1 lsl 20) in
  let (_ : int) = Address_space.alloc mem ~bytes:64 in
  let nodes = 256 in
  let base = Address_space.alloc mem ~bytes:(nodes * 64) in
  for i = 0 to nodes - 1 do
    Address_space.store mem (base + (i * 64)) (base + (((i + 1) mod nodes) * 64))
  done;
  let run prog =
    let hier = Hierarchy.create cfg in
    let ctx = Context.create ~id:0 ~mode:Context.Primary prog in
    Context.set_regs ctx [ (Reg.r1, base); (Reg.r2, 100) ];
    let clock = ref 0 in
    let rec go () =
      match Engine.run Engine.default_config hier mem ~clock ctx with
      | Engine.Halted -> ctx.Context.regs.{1}
      | Engine.Yielded _ -> go ()
      | s -> Alcotest.fail (Format.asprintf "stop %a" Engine.pp_stop s)
    in
    go ()
  in
  let p = chase_prog () in
  let opts = { Primary_pass.default_opts with Primary_pass.policy = Gain_cost.Always } in
  let p', _, _ = Primary_pass.run opts (est ~p_miss:(Some 1.0) ~stall:(Some 196.0)) p in
  Alcotest.(check int) "same final pointer" (run p) (run p')

(* --- Scavenger pass --- *)

let straight_line n =
  let b = Builder.create () in
  Builder.label b "loop";
  for _ = 1 to n do
    Builder.addi b Reg.r1 Reg.r1 1
  done;
  Builder.binop b Instr.Sub Reg.r2 Reg.r2 (Instr.Imm 1);
  Builder.branch b Instr.Gt Reg.r2 (Instr.Imm 0) "loop";
  Builder.halt b;
  Builder.assemble b

let test_scavenger_spacing_static () =
  let p = straight_line 100 in
  let opts = { Scavenger_pass.default_opts with Scavenger_pass.target_interval = 25 } in
  let p', _, rep = Scavenger_pass.run opts p in
  Alcotest.(check bool) "several yields inserted" true (rep.Scavenger_pass.inserted >= 3);
  Alcotest.(check int) "report matches program" rep.Scavenger_pass.inserted
    (Program.yield_count p');
  (* measure achieved inter-yield distance in scavenger mode *)
  let mem = Address_space.create ~bytes:4096 in
  let hier = Hierarchy.create cfg in
  let ctx = Context.create ~id:0 ~mode:Context.Scavenger p' in
  Context.set_regs ctx [ (Reg.r2, 5) ];
  let clock = ref 0 in
  let last = ref 0 in
  let gaps = ref [] in
  let rec go () =
    match Engine.run Engine.default_config hier mem ~clock ctx with
    | Engine.Yielded _ ->
        gaps := (!clock - !last) :: !gaps;
        last := !clock;
        go ()
    | Engine.Halted -> ()
    | s -> Alcotest.fail (Format.asprintf "stop %a" Engine.pp_stop s)
  in
  go ();
  Alcotest.(check bool) "gaps recorded" true (List.length !gaps > 10);
  List.iter
    (fun g -> Alcotest.(check bool) (Printf.sprintf "gap %d bounded" g) true (g <= 2 * 25)) !gaps

let test_scavenger_existing_yields_reset () =
  (* A loop already carrying a primary yield every 10 cycles needs no
     scavenger yields at interval 50. *)
  let b = Builder.create () in
  Builder.label b "loop";
  Builder.yield b Instr.Primary;
  for _ = 1 to 10 do
    Builder.addi b Reg.r1 Reg.r1 1
  done;
  Builder.binop b Instr.Sub Reg.r2 Reg.r2 (Instr.Imm 1);
  Builder.branch b Instr.Gt Reg.r2 (Instr.Imm 0) "loop";
  Builder.halt b;
  let p = Builder.assemble b in
  let opts = { Scavenger_pass.default_opts with Scavenger_pass.target_interval = 50 } in
  let _, _, rep = Scavenger_pass.run opts p in
  Alcotest.(check int) "no extra yields" 0 rep.Scavenger_pass.inserted

let test_scavenger_preserves_rmw () =
  (* heavy compute inside a read-modify-write window: the yield must
     land after the store, never between load and store *)
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
  let p', _, rep = Scavenger_pass.run opts p in
  Alcotest.(check bool) "yields inserted" true (rep.Scavenger_pass.inserted > 0);
  (* walk the instrumented program: between load [r3] and store [r3]
     there must be no yield *)
  let in_window = ref false in
  Array.iter
    (fun i ->
      match i with
      | Instr.Load (_, rs, 0) when rs = Reg.r3 -> in_window := true
      | Instr.Store (rs, 0, _) when rs = Reg.r3 -> in_window := false
      | Instr.Yield _ | Instr.Yield_cond _ ->
          if !in_window then Alcotest.fail "yield splits a read-modify-write"
      | _ -> ())
    (Program.code p');
  Alcotest.(check int) "all loops still covered" 0
    (List.length (Dominators.unyielded_loops (Cfg.build p')))

let test_scavenger_bad_interval () =
  match
    Scavenger_pass.run
      { Scavenger_pass.default_opts with Scavenger_pass.target_interval = 0 }
      (straight_line 5)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "interval 0 accepted"

(* --- Dominators / natural loops --- *)

let test_dominators_diamond () =
  let p = Asm.parse diamond_src in
  let g = Cfg.build p in
  let d = Dominators.compute g in
  (* entry dominates everything; neither branch arm dominates the join *)
  let join = (Cfg.block_of_pc g (Program.label_index p "join")).Cfg.id in
  Alcotest.(check bool) "entry dom join" true (Dominators.dominates d 0 join);
  Alcotest.(check int) "join idom is entry" 0 (Dominators.idom d join);
  Alcotest.(check bool) "arm does not dominate join" false (Dominators.dominates d 1 join);
  Alcotest.(check (list int)) "all reachable" [] (Dominators.unreachable d)

let test_dominators_unreachable () =
  let p = Asm.parse "jmp end_\ndead:\n  add r1, r1, 1\nend_:\n  halt" in
  let g = Cfg.build p in
  let d = Dominators.compute g in
  Alcotest.(check int) "one unreachable block" 1 (List.length (Dominators.unreachable d))

let test_natural_loops () =
  let p =
    Asm.parse
      {|
outer:
  mov r3, 4
inner:
  sub r3, r3, 1
  br gt r3, 0, inner
  sub r2, r2, 1
  br gt r2, 0, outer
  halt
|}
  in
  let g = Cfg.build p in
  let d = Dominators.compute g in
  let loops = Dominators.natural_loops g d in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let inner = List.find (fun l -> List.length l.Dominators.body = 1) loops in
  let outer = List.find (fun l -> List.length l.Dominators.body > 1) loops in
  Alcotest.(check bool) "inner inside outer" true
    (List.for_all (fun b -> List.mem b outer.Dominators.body) inner.Dominators.body)

let test_unyielded_loops_verifier () =
  (* no yields: both loops unbounded *)
  let src =
    {|
outer:
  mov r3, 4
inner:
  sub r3, r3, 1
  br gt r3, 0, inner
  sub r2, r2, 1
  br gt r2, 0, outer
  halt
|}
  in
  let p = Asm.parse src in
  Alcotest.(check int) "both loops unyielded" 2
    (List.length (Dominators.unyielded_loops (Cfg.build p)));
  (* The pass proves the inner loop's 4 trips on its own input and
     budgets it (3 more iterations of 2 cycles fit target 20) instead
     of yielding inside it; the unbounded outer loop gets a yield. *)
  let opts = { Scavenger_pass.default_opts with Scavenger_pass.target_interval = 20 } in
  let p', _, _ = Scavenger_pass.run opts p in
  Alcotest.(check (list string)) "no interval diagnostic" []
    (List.map
       (Format.asprintf "%a" Stallhide_verify.Diagnostic.pp)
       (Stallhide_verify.Checks.interval_bound ~target:20 p'));
  (* the inner loop runs from its label to the branch back to it *)
  let inner = Program.label_index p' "inner" in
  let rec latch pc =
    match Program.instr p' pc with Instr.Branch (_, _, _, "inner") -> pc | _ -> latch (pc + 1)
  in
  for pc = inner to latch inner do
    match Program.instr p' pc with
    | Instr.Yield _ | Instr.Yield_cond _ -> Alcotest.failf "yield at pc %d inside the inner loop" pc
    | _ -> ()
  done;
  Alcotest.(check int) "outer loop yields" 1 (Program.yield_count p')

(* --- SFI pass --- *)

let test_sfi_inserts_guards () =
  let p = Asm.parse "load r4, [r1]\nstore [r2+8], r4\nhalt" in
  let p', _, rep = Sfi_pass.run Sfi_pass.default_opts p in
  Alcotest.(check int) "two guards" 2 rep.Sfi_pass.guards;
  Alcotest.(check int) "none elided" 0 rep.Sfi_pass.elided;
  Alcotest.(check bool) "guard before load" true (Program.instr p' 0 = Instr.Guard (Reg.r1, 0));
  Alcotest.(check bool) "guard before store" true (Program.instr p' 2 = Instr.Guard (Reg.r2, 8))

let test_sfi_same_line_elision () =
  (* same base, same 64-byte line: one guard suffices *)
  let p = Asm.parse "load r4, [r1]\nload r5, [r1+8]\nload r6, [r1+56]\nload r7, [r1+64]\nhalt" in
  let _, _, rep = Sfi_pass.run Sfi_pass.default_opts p in
  Alcotest.(check int) "guards for two lines" 2 rep.Sfi_pass.guards;
  Alcotest.(check int) "same-line elided" 2 rep.Sfi_pass.elided

let test_sfi_redefinition_invalidates () =
  let p = Asm.parse "load r4, [r1]\nadd r1, r1, 8\nload r5, [r1]\nhalt" in
  let _, _, rep = Sfi_pass.run Sfi_pass.default_opts p in
  Alcotest.(check int) "base redefined: re-guard" 2 rep.Sfi_pass.guards

let test_sfi_call_invalidates () =
  let p = Asm.parse "load r4, [r1]\ncall f\nload r5, [r1]\nhalt\nf:\n  ret" in
  let _, _, rep = Sfi_pass.run Sfi_pass.default_opts p in
  Alcotest.(check bool) "call clears coverage" true (rep.Sfi_pass.guards >= 2)

let test_sfi_chain_propagation () =
  (* coverage flows through a unique-predecessor chain (branch target) *)
  let p =
    Asm.parse
      "load r4, [r1]\nbr eq r4, 0, next\nnext:\n  load r5, [r1+8]\n  halt"
  in
  let _, _, rep = Sfi_pass.run Sfi_pass.default_opts p in
  Alcotest.(check int) "one guard across the chain" 1 rep.Sfi_pass.guards;
  Alcotest.(check int) "successor elided" 1 rep.Sfi_pass.elided

let test_sfi_loop_no_unsound_elision () =
  (* a loop's body re-enters with unknown coverage: guard stays *)
  let p = Asm.parse "loop:\n  load r1, [r1]\n  br ne r1, 0, loop\n  halt" in
  let _, _, rep = Sfi_pass.run Sfi_pass.default_opts p in
  Alcotest.(check int) "loop body guarded" 1 rep.Sfi_pass.guards;
  Alcotest.(check int) "no elision in loop" 0 rep.Sfi_pass.elided

let test_sfi_options () =
  let p = Asm.parse "load r4, [r1]\nstore [r2], r4\nhalt" in
  let _, _, only_stores =
    Sfi_pass.run { Sfi_pass.default_opts with Sfi_pass.guard_loads = false } p
  in
  Alcotest.(check int) "stores only" 1 only_stores.Sfi_pass.guards;
  let _, _, no_elim =
    Sfi_pass.run { Sfi_pass.default_opts with Sfi_pass.eliminate_redundant = false }
      (Asm.parse "load r4, [r1]\nload r5, [r1+8]\nhalt")
  in
  Alcotest.(check int) "elimination off" 2 no_elim.Sfi_pass.guards

let test_sfi_end_to_end_enforcement () =
  (* a sandboxed pointer chase that escapes its domain must fault *)
  let mem = Address_space.create ~bytes:8192 in
  let (_ : int) = Address_space.alloc mem ~bytes:64 in
  let inside = Address_space.alloc mem ~bytes:256 in
  let outside = Address_space.alloc mem ~bytes:64 in
  (* chain: inside -> outside *)
  Address_space.store mem inside outside;
  Address_space.store mem outside outside;
  let p = Asm.parse "loop:\n  load r1, [r1]\n  sub r2, r2, 1\n  br gt r2, 0, loop\n  halt" in
  let p', _, _ = Sfi_pass.run Sfi_pass.default_opts p in
  let ctx = Context.create ~id:0 ~mode:Context.Primary p' in
  Context.set_regs ctx [ (Reg.r1, inside); (Reg.r2, 5) ];
  ctx.Context.domain <- Some (inside, inside + 256);
  let clock = ref 0 in
  let hier = Hierarchy.create cfg in
  match Engine.run Engine.default_config hier mem ~clock ctx with
  | Engine.Fault _ -> ()
  | s -> Alcotest.fail (Format.asprintf "escape not caught: %a" Engine.pp_stop s)

(* Property: primary pass never changes the number of loads and only
   adds prefetches/yields. *)
let qcheck_primary_only_adds =
  QCheck.Test.make ~name:"primary pass adds only prefetch/yield" ~count:50
    QCheck.(int_range 1 20)
    (fun n ->
      let p = straight_line n in
      (* fake load sites by appending a load loop *)
      let items =
        Program.to_items p
        @ [ Program.Ins (Instr.Load (Reg.r3, Reg.r4, 0)); Program.Ins Instr.Halt ]
      in
      let p = Program.assemble items in
      let opts = { Primary_pass.default_opts with Primary_pass.policy = Gain_cost.Always } in
      let p', _, _ = Primary_pass.run opts (est ~p_miss:(Some 1.0) ~stall:(Some 196.0)) p in
      let count pred prog =
        Array.fold_left (fun acc i -> if pred i then acc + 1 else acc) 0 (Program.code prog)
      in
      count Instr.is_load p = count Instr.is_load p'
      && Program.length p' - Program.length p
         = count (function Instr.Prefetch _ | Instr.Yield _ -> true | _ -> false) p'
           - count (function Instr.Prefetch _ | Instr.Yield _ -> true | _ -> false) p)

let () =
  Alcotest.run "binopt"
    [
      ( "cfg",
        [
          Alcotest.test_case "diamond" `Quick test_cfg_diamond;
          Alcotest.test_case "loop and call" `Quick test_cfg_loop_and_call;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "basic" `Quick test_liveness_basic;
          Alcotest.test_case "dead def" `Quick test_liveness_dead_def;
          Alcotest.test_case "loop carried" `Quick test_liveness_loop;
          Alcotest.test_case "call conservative" `Quick test_liveness_call_conservative;
          Alcotest.test_case "annotate yields" `Quick test_annotate_yields;
        ] );
      ( "depend",
        [
          Alcotest.test_case "groups" `Quick test_depend_groups;
          Alcotest.test_case "store closes" `Quick test_depend_store_closes;
          Alcotest.test_case "max group" `Quick test_depend_max_group;
          Alcotest.test_case "selection" `Quick test_depend_selection;
        ] );
      ( "gain-cost",
        [
          Alcotest.test_case "model" `Quick test_gain_model;
          Alcotest.test_case "policies" `Quick test_select_policies;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "insert before" `Quick test_rewrite_insert_before;
          Alcotest.test_case "compose" `Quick test_rewrite_compose;
        ] );
      ( "primary-pass",
        [
          Alcotest.test_case "inserts" `Quick test_primary_pass_inserts;
          Alcotest.test_case "coalesce" `Quick test_primary_pass_coalesce;
          Alcotest.test_case "no coalesce" `Quick test_primary_pass_no_coalesce;
          Alcotest.test_case "conditional" `Quick test_primary_pass_conditional;
          Alcotest.test_case "semantics preserved" `Quick test_primary_pass_preserves_semantics;
          QCheck_alcotest.to_alcotest qcheck_primary_only_adds;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "unreachable" `Quick test_dominators_unreachable;
          Alcotest.test_case "natural loops" `Quick test_natural_loops;
          Alcotest.test_case "loop-coverage verifier" `Quick test_unyielded_loops_verifier;
        ] );
      ( "sfi-pass",
        [
          Alcotest.test_case "inserts guards" `Quick test_sfi_inserts_guards;
          Alcotest.test_case "same-line elision" `Quick test_sfi_same_line_elision;
          Alcotest.test_case "redefinition invalidates" `Quick test_sfi_redefinition_invalidates;
          Alcotest.test_case "call invalidates" `Quick test_sfi_call_invalidates;
          Alcotest.test_case "chain propagation" `Quick test_sfi_chain_propagation;
          Alcotest.test_case "loop stays guarded" `Quick test_sfi_loop_no_unsound_elision;
          Alcotest.test_case "options" `Quick test_sfi_options;
          Alcotest.test_case "end-to-end enforcement" `Quick test_sfi_end_to_end_enforcement;
        ] );
      ( "scavenger-pass",
        [
          Alcotest.test_case "spacing (measured)" `Quick test_scavenger_spacing_static;
          Alcotest.test_case "existing yields reset" `Quick test_scavenger_existing_yields_reset;
          Alcotest.test_case "preserves read-modify-write" `Quick test_scavenger_preserves_rmw;
          Alcotest.test_case "bad interval" `Quick test_scavenger_bad_interval;
        ] );
    ]
