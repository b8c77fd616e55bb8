open Stallhide_isa
open Stallhide_mem
open Stallhide_binopt

(* Guaranteed (resp. worst-case) cycles an instruction occupies the
   core, bracketing the engine's charge: loads pay base plus the
   serving-level latency (L1 at best, DRAM at worst); a prefetch is
   charged the configured issue cost instead of its table cost; an
   accelerator wait pays up to the full operation latency; a yield's
   own cost is zero (switch cost is the scheduler's). *)
let min_cost (mem : Memconfig.t) i =
  match i with
  | Instr.Prefetch _ -> mem.Memconfig.prefetch_issue_cost
  | _ ->
      Cost.base i
      + if Instr.is_load i then mem.Memconfig.l1.Memconfig.latency else 0

let max_cost (mem : Memconfig.t) i =
  match i with
  | Instr.Prefetch _ -> mem.Memconfig.prefetch_issue_cost
  | Instr.Load _ -> Cost.base i + mem.Memconfig.dram_latency
  | Instr.Accel_wait _ -> Cost.base i + mem.Memconfig.accel_latency
  | _ -> Cost.base i

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

type budgeted = { header_pc : int; trips : int; budget : float }

type result = {
  converged : bool;
  worst : float;
  worst_pc : int;
  witness : int list;
  budgeted : budgeted list;
  unproven : Dominators.loop list;
}

(* Longest yield-free path, in cycles, over the CFG — the inter-yield
   interval bound. Yield-free natural loops do not make the interval
   unbounded when their trip count is proven: the back edge is cut and
   the header charged a budget of (trips - 1) times the summed body
   cost, an upper bound on the cycles the remaining iterations add.
   Yield-free loops without a proven bound are returned in [unproven]
   (their back edges are cut too, purely so the fixpoint converges —
   callers must treat them as unbounded). Irreducible yield-free
   cycles surface as [converged = false]. *)
let yield_free_paths ~cost ~trips cfg =
  let prog = Cfg.program cfg in
  let nb = Cfg.block_count cfg in
  let is_yield pc =
    match Program.instr prog pc with
    | Instr.Yield _ | Instr.Yield_cond _ -> true
    | _ -> false
  in
  let budget = Array.make nb 0.0 in
  let cut = Hashtbl.create 8 in
  let budgeted = ref [] and unproven = ref [] in
  List.iter
    (fun (l : Dominators.loop) ->
      Hashtbl.replace cut (l.Dominators.header, l.Dominators.back_edge_src) ();
      let header_pc = (Cfg.block cfg l.Dominators.header).Cfg.first in
      match trips ~header_pc with
      | Some t ->
          let body_cost =
            List.fold_left
              (fun acc pc -> acc +. cost pc)
              0.0
              (Loop_bounds.body_pcs cfg l.Dominators.body)
          in
          let b = float_of_int (t - 1) *. body_cost in
          budget.(l.Dominators.header) <- budget.(l.Dominators.header) +. b;
          budgeted := { header_pc; trips = t; budget = b } :: !budgeted
      | None -> unproven := l :: !unproven)
    (Dominators.unyielded_loops cfg);
  let dist_out = Array.make nb 0.0 in
  let walk (b : Cfg.block) d0 =
    let d = ref d0 and best = ref neg_infinity and best_pc = ref b.Cfg.first in
    for pc = b.Cfg.first to b.Cfg.last do
      if is_yield pc then d := 0.0
      else begin
        let c = cost pc in
        if !d +. c > !best then begin
          best := !d +. c;
          best_pc := pc
        end;
        d := !d +. c
      end
    done;
    (!d, !best, !best_pc)
  in
  let in_dist (b : Cfg.block) =
    List.fold_left
      (fun acc p -> if Hashtbl.mem cut (b.Cfg.id, p) then acc else max acc dist_out.(p))
      0.0 b.Cfg.preds
    +. budget.(b.Cfg.id)
  in
  (* with every yield-free natural-loop back edge cut, all remaining
     feedback passes a yield (constant out-distance), so the fixpoint
     converges in O(nb) rounds — no target-proportional cap needed *)
  let max_iters = (2 * nb) + 8 in
  let iters = ref 0 in
  let changed = ref true in
  while !changed && !iters < max_iters do
    changed := false;
    incr iters;
    for id = 0 to nb - 1 do
      let b = Cfg.block cfg id in
      let out, _, _ = walk b (in_dist b) in
      if abs_float (out -. dist_out.(id)) > 1e-9 then begin
        dist_out.(id) <- out;
        changed := true
      end
    done
  done;
  let converged = not !changed in
  let worst = ref neg_infinity and worst_pc = ref 0 and worst_block = ref 0 in
  for id = 0 to nb - 1 do
    let b = Cfg.block cfg id in
    let _, m, mpc = walk b (in_dist b) in
    if m > !worst then begin
      worst := m;
      worst_pc := mpc;
      worst_block := id
    end
  done;
  let best_pred (b : Cfg.block) =
    List.fold_left
      (fun bp p ->
        if Hashtbl.mem cut (b.Cfg.id, p) then bp
        else if bp < 0 || dist_out.(p) > dist_out.(bp) then p
        else bp)
      (-1) b.Cfg.preds
  in
  let rec chain id acc steps =
    let b = Cfg.block cfg id in
    let p = best_pred b in
    if steps > nb || p < 0 || dist_out.(p) <= 1e-9 then b.Cfg.first :: acc
    else chain p (b.Cfg.first :: acc) (steps + 1)
  in
  let witness = chain !worst_block [ !worst_pc ] 0 in
  {
    converged;
    worst = !worst;
    worst_pc = !worst_pc;
    witness;
    budgeted = List.rev !budgeted;
    unproven = List.rev !unproven;
  }
