open Stallhide_isa
open Stallhide_binopt

type bound = {
  header : int;
  header_pc : int;
  body : int list;
  latch : int;
  induction : Reg.t;
  step : int;
  init : int;
  limit : int;
  cond : Instr.cond;
  continue_if_taken : bool;
  trips : int;
}

(* Far above any loop the generators or workloads emit, far below
   anything that would make the trip simulation below noticeable. *)
let trip_cap = 1 lsl 22

(* Can [start] reach itself without passing through [header]? If so, a
   path from header to latch may execute [start] more than once and it
   cannot be a plain induction step. Covers nested natural loops and
   irreducible cycles alike. The header itself is exempt: every edge
   into the header from inside a natural loop is a back edge, so
   re-entering it begins the next iteration — it runs exactly once per
   trip (the single-block tight-loop case). *)
let on_cycle_avoiding_header cfg ~body ~header start =
  start <> header
  &&
  let in_body = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace in_body b ()) body;
  let visited = Hashtbl.create 16 in
  let rec dfs b =
    b = start
    || (not (Hashtbl.mem visited b))
       && begin
            Hashtbl.replace visited b ();
            b <> header
            && Hashtbl.mem in_body b
            && List.exists dfs (Cfg.block cfg b).Cfg.succs
          end
  in
  List.exists dfs (Cfg.block cfg start).Cfg.succs

let defs_of_reg prog ~body_pcs r =
  List.filter
    (fun pc -> Instr.defs (Program.instr prog pc) land (1 lsl r) <> 0)
    body_pcs

let body_pcs cfg body =
  List.concat_map
    (fun id ->
      let b = Cfg.block cfg id in
      List.init (b.Cfg.last - b.Cfg.first + 1) (fun i -> b.Cfg.first + i))
    body

(* Number of times the latch test passes, counting the iteration that
   reaches it: the induction register reads [init + i*step] at test
   [i] (one step per iteration, guaranteed by dominance plus the
   cycle check), so iterate the exact machine arithmetic. *)
let simulate ~init ~step ~limit ~cond ~continue_if_taken =
  let continue v =
    let t = Instr.eval_cond cond v limit in
    if continue_if_taken then t else not t
  in
  let rec go v trips =
    if trips >= trip_cap then None
    else
      let v = v + step in
      let trips = trips + 1 in
      if continue v then go v trips else Some trips
  in
  go init 0

let infer_one cfg doms (envs : Value.envs) prog (l : Dominators.loop) =
  let header_b = Cfg.block cfg l.Dominators.header in
  let latch_b = Cfg.block cfg l.Dominators.back_edge_src in
  let body = l.Dominators.body in
  let pcs = body_pcs cfg body in
  (* a call may do anything, including loop forever or scribble on the
     counter from the callee *)
  let has_call =
    List.exists
      (fun pc -> match Program.instr prog pc with Instr.Call _ -> true | _ -> false)
      pcs
  in
  if has_call then None
  else
    match Program.instr prog latch_b.Cfg.last with
    | Instr.Branch (cond, rc, op, _) -> (
        let taken_target = Program.resolved_target prog latch_b.Cfg.last in
        let continue_if_taken =
          if taken_target = header_b.Cfg.first then Some true
          else if latch_b.Cfg.last + 1 = header_b.Cfg.first then Some false
          else None
        in
        match continue_if_taken with
        | None -> None
        | Some continue_if_taken -> (
            match defs_of_reg prog ~body_pcs:pcs rc with
            | [ def_pc ] -> (
                match Program.instr prog def_pc with
                | Instr.Binop ((Instr.Add | Instr.Sub) as bop, rd, rs, Instr.Imm c)
                  when rd = rc && rs = rc -> (
                    let step = if bop = Instr.Add then c else -c in
                    let def_blk = (Cfg.block_of_pc cfg def_pc).Cfg.id in
                    let ok_shape =
                      Dominators.dominates doms def_blk latch_b.Cfg.id
                      && not
                           (on_cycle_avoiding_header cfg ~body
                              ~header:l.Dominators.header def_blk)
                    in
                    if not ok_shape then None
                    else
                      (* initial value: join of the loop-entry edges
                         only (preds of the header that the header does
                         not dominate), plus the program entry when the
                         header is the entry block *)
                      let entry_contrib =
                        if header_b.Cfg.first = 0 then [ Value.entry_env () ]
                        else []
                      in
                      let pred_contribs =
                        List.filter_map
                          (fun p ->
                            if Dominators.dominates doms l.Dominators.header p
                            then None
                            else envs.Value.outs.(p))
                          header_b.Cfg.preds
                      in
                      let init_v =
                        match entry_contrib @ pred_contribs with
                        | [] -> Value.Top
                        | e :: rest ->
                            List.fold_left
                              (fun acc env -> Value.join acc env.(rc))
                              e.(rc) rest
                      in
                      (* limit: immediate, or a register provably
                         loop-invariant-constant at the latch *)
                      let limit_v =
                        match op with
                        | Instr.Imm m -> Some m
                        | Instr.Reg r -> (
                            match envs.Value.ins.(latch_b.Cfg.id) with
                            | None -> None
                            | Some env -> (
                                let env = Array.copy env in
                                for pc = latch_b.Cfg.first to latch_b.Cfg.last - 1
                                do
                                  Value.step env (Program.instr prog pc)
                                done;
                                match env.(r) with
                                | Value.Const m -> Some m
                                | _ -> None))
                      in
                      match (init_v, limit_v) with
                      | Value.Const init, Some limit -> (
                          match
                            simulate ~init ~step ~limit ~cond ~continue_if_taken
                          with
                          | None -> None
                          | Some trips ->
                              Some
                                {
                                  header = l.Dominators.header;
                                  header_pc = header_b.Cfg.first;
                                  body;
                                  latch = latch_b.Cfg.id;
                                  induction = rc;
                                  step;
                                  init;
                                  limit;
                                  cond;
                                  continue_if_taken;
                                  trips;
                                })
                      | _ -> None)
                | _ -> None)
            | _ -> None))
    | _ -> None

let infer cfg doms envs =
  let prog = Cfg.program cfg in
  let loops = Dominators.natural_loops cfg doms in
  (* two back edges to one header = a merged loop this simple pattern
     cannot bound *)
  let header_count = Hashtbl.create 8 in
  List.iter
    (fun (l : Dominators.loop) ->
      Hashtbl.replace header_count l.Dominators.header
        (1 + Option.value ~default:0 (Hashtbl.find_opt header_count l.Dominators.header)))
    loops;
  List.filter_map
    (fun (l : Dominators.loop) ->
      if Hashtbl.find header_count l.Dominators.header > 1 then None
      else infer_one cfg doms envs prog l)
    loops

let trips_at bounds ~header_pc =
  List.find_map
    (fun b -> if b.header_pc = header_pc then Some b.trips else None)
    bounds
