open Stallhide_isa
open Stallhide_mem
open Stallhide_binopt

(* Guaranteed cycles an instruction occupies the core, a floor under
   the engine's charge: loads pay base plus at least the L1 latency; a
   prefetch is charged the configured issue cost instead of its table
   cost; a yield's own cost is zero (switch cost is the scheduler's). *)
let min_cost (mem : Memconfig.t) i =
  match i with
  | Instr.Prefetch _ -> mem.Memconfig.prefetch_issue_cost
  | _ ->
      Cost.base i
      + if Instr.is_load i then mem.Memconfig.l1.Memconfig.latency else 0

(* Cycles guaranteed to elapse between a prefetch issuing at
   [prefetch_pc] and the demand load at [load_pc] reaching the memory
   system, on the straight-line path between them (both in one block):
   the sum of minimum costs of every instruction from the prefetch up
   to, but excluding, the load. The prefetched line is ready
   [latency] cycles after issue, so a lead >= latency proves the load
   hits even when the line was in DRAM. *)
let prefetch_lead (mem : Memconfig.t) prog ~prefetch_pc ~load_pc =
  let d = ref 0 in
  for pc = prefetch_pc to load_pc - 1 do
    d := !d + min_cost mem (Program.instr prog pc)
  done;
  !d

(* Every yield-free natural loop, with a budget when the loop's trip
   count is proven on this CFG: (trips - 1) times the summed body cost,
   an upper bound on the cycles the iterations after the first add. *)
let yield_free_loops ~cost cfg =
  let bounds = lazy (Loop_bounds.infer cfg (Dominators.compute cfg) (Value.block_envs cfg)) in
  List.map
    (fun (l : Dominators.loop) ->
      let header_pc = (Cfg.block cfg l.Dominators.header).Cfg.first in
      let budget t =
        let body_cost =
          List.fold_left
            (fun acc pc -> acc +. cost pc)
            0.0
            (Loop_bounds.body_pcs cfg l.Dominators.body)
        in
        float_of_int (t - 1) *. body_cost
      in
      (l, Option.map budget (Loop_bounds.trips_at (Lazy.force bounds) ~header_pc)))
    (Dominators.unyielded_loops cfg)

type flow = {
  cut : (int * int, unit) Hashtbl.t;
  budget : float array;
  dist_out : float array;
  moved : int list;  (* blocks whose outgoing distance moved in the last round *)
}

let in_dist flow (b : Cfg.block) =
  List.fold_left
    (fun acc p -> if Hashtbl.mem flow.cut (b.Cfg.id, p) then acc else max acc flow.dist_out.(p))
    0.0 b.Cfg.preds
  +. flow.budget.(b.Cfg.id)

(* The block fixpoint: a block's incoming distance is the max over its
   predecessors' outgoing distances, minus the cut back edges, plus the
   budgets charged to it as a header. Once every yield-free loop's back
   edge is cut (or a yield is planned in it), all remaining feedback
   passes a yield, so the fixpoint converges in O(nb) rounds with no
   target-proportional cap; a round cap of 2 nb + 8 stops an
   irreducible yield-free cycle. *)
let solve ~walk ~cut cfg =
  let nb = Cfg.block_count cfg in
  let flow =
    { cut = Hashtbl.create 8; budget = Array.make nb 0.0; dist_out = Array.make nb 0.0; moved = [] }
  in
  List.iter
    (fun ((l : Dominators.loop), b) ->
      Hashtbl.replace flow.cut (l.Dominators.header, l.Dominators.back_edge_src) ();
      flow.budget.(l.Dominators.header) <- flow.budget.(l.Dominators.header) +. b)
    cut;
  let max_iters = (2 * nb) + 8 in
  let iters = ref 0 and moved = ref [ -1 ] in
  while !moved <> [] && !iters < max_iters do
    moved := [];
    incr iters;
    for id = 0 to nb - 1 do
      let b = Cfg.block cfg id in
      let out = walk b (in_dist flow b) in
      if abs_float (out -. flow.dist_out.(id)) > 1e-9 then begin
        flow.dist_out.(id) <- out;
        moved := id :: !moved
      end
    done
  done;
  { flow with moved = List.rev !moved }

let fixpoint ~walk ~cut cfg = (solve ~walk ~cut cfg).moved

type result = {
  converged : bool;
  worst : float;
  worst_pc : int;
  witness : int list;
  budgeted : int;
  unproven : Dominators.loop list;
}

(* Longest yield-free path, in cycles, over the CFG — the inter-yield
   interval bound. Every yield-free loop's back edge is cut: a loop
   with a proven trip count charges its header its budget, and one
   without is returned in [unproven] (its back edge is cut purely so
   the fixpoint converges — callers must treat it as unbounded).
   Irreducible yield-free cycles surface as [converged = false]. *)
let yield_free_paths ~cost cfg =
  let prog = Cfg.program cfg in
  let nb = Cfg.block_count cfg in
  let loops = yield_free_loops ~cost cfg in
  let walk (b : Cfg.block) d0 =
    let d = ref d0 and best = ref neg_infinity and best_pc = ref b.Cfg.first in
    for pc = b.Cfg.first to b.Cfg.last do
      match Program.instr prog pc with
      | Instr.Yield _ | Instr.Yield_cond _ -> d := 0.0
      | _ ->
          let c = cost pc in
          if !d +. c > !best then begin
            best := !d +. c;
            best_pc := pc
          end;
          d := !d +. c
    done;
    (!d, !best, !best_pc)
  in
  let flow =
    solve
      ~walk:(fun b d0 ->
        let out, _, _ = walk b d0 in
        out)
      ~cut:(List.map (fun (l, b) -> (l, Option.value b ~default:0.0)) loops)
      cfg
  in
  let worst = ref neg_infinity and worst_pc = ref 0 and worst_block = ref 0 in
  for id = 0 to nb - 1 do
    let b = Cfg.block cfg id in
    let _, m, mpc = walk b (in_dist flow b) in
    if m > !worst then begin
      worst := m;
      worst_pc := mpc;
      worst_block := id
    end
  done;
  let best_pred (b : Cfg.block) =
    List.fold_left
      (fun bp p ->
        if Hashtbl.mem flow.cut (b.Cfg.id, p) then bp
        else if bp < 0 || flow.dist_out.(p) > flow.dist_out.(bp) then p
        else bp)
      (-1) b.Cfg.preds
  in
  let rec chain id acc steps =
    let b = Cfg.block cfg id in
    let p = best_pred b in
    if steps > nb || p < 0 || flow.dist_out.(p) <= 1e-9 then b.Cfg.first :: acc
    else chain p (b.Cfg.first :: acc) (steps + 1)
  in
  let witness = chain !worst_block [ !worst_pc ] 0 in
  {
    converged = flow.moved = [];
    worst = !worst;
    worst_pc = !worst_pc;
    witness;
    budgeted = List.length (List.filter (fun (_, b) -> Option.is_some b) loops);
    unproven = List.filter_map (fun (l, b) -> if Option.is_none b then Some l else None) loops;
  }
