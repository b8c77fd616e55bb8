open Stallhide_isa

type t =
  | Top
  | Const of int
  | Init of Reg.t * int
  | Affine of Reg.t
  | Loaded

let entry_env () = Array.init Reg.count (fun r -> Init (r, 0))

let equal (a : t) (b : t) = a = b

let env_equal a b =
  let n = Array.length a in
  Array.length b = n
  &&
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (equal a.(i) b.(i)) then ok := false
  done;
  !ok

let join a b =
  if a = b then a
  else
    match (a, b) with
    | Top, _ | _, Top -> Top
    | (Init (r, _) | Affine r), (Init (r', _) | Affine r') when r = r' -> Affine r
    | _ -> Top

let join_env dst src =
  let changed = ref false in
  for i = 0 to Array.length dst - 1 do
    let v = join dst.(i) src.(i) in
    if not (equal v dst.(i)) then begin
      dst.(i) <- v;
      changed := true
    end
  done;
  !changed

let operand env = function Instr.Imm i -> Const i | Instr.Reg r -> (env : t array).(r)

(* Pointer taint: a result derived from a loaded value stays [Loaded]
   (it prices as pointer-chasing for placement priors); everything else
   unrepresentable collapses to [Top]. *)
let taint2 a b = match (a, b) with Loaded, _ | _, Loaded -> Loaded | _ -> Top

(* Constants fold with the machine's own arithmetic: a constant the
   machine would not compute would place a load on the wrong cache line,
   and the must analysis would claim hits about a line the program
   never touches. *)
let binop op a b =
  match (a, b) with
  | Const x, Const y -> (
      match Instr.eval_binop op x y with Some v -> Const v | None -> Top)
  | Init (r, o), Const c -> (
      match op with
      | Instr.Add -> Init (r, o + c)
      | Instr.Sub -> Init (r, o - c)
      | _ -> taint2 a b)
  | Const c, Init (r, o) -> (
      match op with Instr.Add -> Init (r, o + c) | _ -> taint2 a b)
  | Affine r, Const _ -> (
      match op with Instr.Add | Instr.Sub -> Affine r | _ -> taint2 a b)
  | Const _, Affine r -> ( match op with Instr.Add -> Affine r | _ -> taint2 a b)
  | _ -> taint2 a b

(* Register effect of one instruction, in place. Loads and accelerator
   results are memory-derived ([Loaded]); a call may run arbitrary
   callee code (the CFG has no interprocedural edges), so it clobbers
   every register. Control flow, stores, prefetches and yields leave
   registers untouched. *)
let step (env : t array) (i : Instr.t) =
  match i with
  | Instr.Binop (op, rd, rs, o) -> env.(rd) <- binop op env.(rs) (operand env o)
  | Instr.Mov (rd, o) -> env.(rd) <- operand env o
  | Instr.Load (rd, _, _) -> env.(rd) <- Loaded
  | Instr.Accel_wait rd -> env.(rd) <- Loaded
  | Instr.Call _ -> Array.fill env 0 (Array.length env) Top
  | Instr.Store _ | Instr.Prefetch _ | Instr.Branch _ | Instr.Jump _ | Instr.Ret
  | Instr.Yield _ | Instr.Yield_cond _ | Instr.Guard _ | Instr.Accel_issue _
  | Instr.Opmark | Instr.Nop | Instr.Halt ->
      ()

type envs = { ins : t array option array; outs : t array option array }

(* Value-only block fixpoint (used standalone by loop-bound inference;
   the full cache analysis interleaves [step] with its own domain).
   Unreachable blocks keep [None]. *)
let block_envs (cfg : Stallhide_binopt.Cfg.t) =
  let open Stallhide_binopt in
  let prog = Cfg.program cfg in
  let nb = Cfg.block_count cfg in
  let ins : t array option array = Array.make nb None in
  let outs : t array option array = Array.make nb None in
  let entry_id = (Cfg.block_of_pc cfg 0).Cfg.id in
  ins.(entry_id) <- Some (entry_env ());
  let changed = ref true in
  let rounds = ref 0 in
  (* lattice height is 3 per register, so convergence is fast; the cap
     is defensive only *)
  let max_rounds = (4 * nb) + 64 in
  while !changed && !rounds < max_rounds do
    changed := false;
    incr rounds;
    for id = 0 to nb - 1 do
      let b = Cfg.block cfg id in
      (match ins.(id) with
      | None -> ()
      | Some in_env ->
          let env = Array.copy in_env in
          for pc = b.Cfg.first to b.Cfg.last do
            step env (Program.instr prog pc)
          done;
          let out_changed =
            match outs.(id) with
            | None ->
                outs.(id) <- Some env;
                true
            | Some prev ->
                if env_equal prev env then false
                else begin
                  outs.(id) <- Some env;
                  true
                end
          in
          if out_changed then begin
            changed := true;
            List.iter
              (fun s ->
                match ins.(s) with
                | None -> ins.(s) <- Some (Array.copy env)
                | Some dst -> if join_env dst env then () else ())
              b.Cfg.succs
          end);
      ()
    done
  done;
  { ins; outs }
