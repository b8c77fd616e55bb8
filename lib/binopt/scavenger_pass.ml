open Stallhide_isa

type opts = {
  target_interval : int;
  pc_cycles : int -> float option;
  load_static_latency : int;
  loop_bounds : int -> int option;
}

let default_opts =
  {
    target_interval = 200;
    pc_cycles = (fun _ -> None);
    load_static_latency = 4;
    loop_bounds = (fun _ -> None);
  }

type report = { inserted : int; sites : int list; uncovered_loops : int }

let run opts prog =
  if opts.target_interval <= 0 then invalid_arg "Scavenger_pass: target_interval must be positive";
  let cfg = Cfg.build prog in
  let nb = Cfg.block_count cfg in
  let target = float_of_int opts.target_interval in
  let cost pc =
    match opts.pc_cycles pc with
    | Some c -> c
    | None ->
        let i = Program.instr prog pc in
        let static = Cost.base i + if Instr.is_load i then opts.load_static_latency else 0 in
        float_of_int static
  in
  let planned = Hashtbl.create 32 in
  (* Cooperative atomicity: code written for coroutines relies on no
     yield occurring between a load and the store that completes its
     read-modify-write. Mark the pcs strictly inside such windows
     (same base register and displacement, base not redefined) so the
     planner defers insertion past the store. *)
  let no_insert = Array.make (Program.length prog) false in
  for id = 0 to nb - 1 do
    let b = Cfg.block cfg id in
    let open_windows : (int * int, int) Hashtbl.t = Hashtbl.create 4 in
    for pc = b.Cfg.first to b.Cfg.last do
      (match Program.instr prog pc with
      | Instr.Load (_, rs, disp) -> Hashtbl.replace open_windows (rs, disp) pc
      | Instr.Store (rs, disp, _) -> (
          match Hashtbl.find_opt open_windows (rs, disp) with
          | Some start ->
              for k = start + 1 to pc do
                no_insert.(k) <- true
              done;
              Hashtbl.remove open_windows (rs, disp)
          | None -> ())
      | Instr.Yield _ | Instr.Yield_cond _ -> Hashtbl.reset open_windows
      | i ->
          (* a redefined base breaks the window *)
          Hashtbl.iter
            (fun (rs, d) _ ->
              if Instr.defs i land (1 lsl rs) <> 0 then Hashtbl.remove open_windows (rs, d))
            (Hashtbl.copy open_windows))
    done
  done;
  (* Yield-free natural loops would otherwise feed the distance fixpoint
     unboundedly (PR 5 papered over this with a cap proportional to the
     target interval). With proven trip counts the loop is handled
     head-on: if its total extra distance — (trips - 1) times the summed
     body cost — fits inside the target, the back edge is cut and the
     header charged that budget; otherwise a scavenger yield is seeded
     in the loop body up front (latch block preferred, atomicity
     windows respected when possible), which caps the feedback the
     moment the fixpoint starts. *)
  let budget = Array.make nb 0.0 in
  let cut = Hashtbl.create 8 in
  List.iter
    (fun (l : Dominators.loop) ->
      let body_pcs =
        List.concat_map
          (fun id ->
            let b = Cfg.block cfg id in
            List.init (b.Cfg.last - b.Cfg.first + 1) (fun i -> b.Cfg.first + i))
          l.Dominators.body
      in
      let body_cost = List.fold_left (fun acc pc -> acc +. cost pc) 0.0 body_pcs in
      let header_pc = (Cfg.block cfg l.Dominators.header).Cfg.first in
      let proven =
        match opts.loop_bounds header_pc with
        | Some t when float_of_int (t - 1) *. body_cost <= target -> Some t
        | Some _ | None -> None
      in
      match proven with
      | Some t ->
          Hashtbl.replace cut (l.Dominators.header, l.Dominators.back_edge_src) ();
          budget.(l.Dominators.header) <-
            budget.(l.Dominators.header) +. (float_of_int (t - 1) *. body_cost)
      | None ->
          (* seed one yield: last insertable pc of the latch block, else
             the first body pc — an unbounded yield-free loop must get a
             yield even inside an atomicity window *)
          let latch = Cfg.block cfg l.Dominators.back_edge_src in
          let site = ref (-1) in
          for pc = latch.Cfg.first to latch.Cfg.last do
            if not no_insert.(pc) then site := pc
          done;
          let site = if !site >= 0 then !site else latch.Cfg.first in
          Hashtbl.replace planned site ())
    (Dominators.unyielded_loops cfg);
  let dist_out = Array.make nb 0.0 in
  (* Walk a block with incoming distance [d0], greedily planning a yield
     before any instruction that would push the distance past target.
     Existing yields and planned yields reset the distance. *)
  let walk_block plan b d0 =
    let d = ref d0 in
    let first = b.Cfg.first and last = b.Cfg.last in
    for pc = first to last do
      if Hashtbl.mem planned pc then d := 0.0;
      match Program.instr prog pc with
      | Instr.Yield _ | Instr.Yield_cond _ -> d := 0.0
      | _ ->
          let c = cost pc in
          if
            plan && !d +. c > target
            && (not (Hashtbl.mem planned pc))
            && not no_insert.(pc)
          then begin
            Hashtbl.replace planned pc ();
            d := c
          end
          else d := !d +. c
    done;
    !d
  in
  (* Fixpoint: incoming distance of a block is the max over predecessor
     outgoing distances — minus cut (budgeted) back edges, plus the
     header budgets. Every yield-free loop was budgeted or seeded with
     a yield above, so all remaining feedback passes a yield and the
     fixpoint converges in O(nb) rounds; the cap is defensive only. *)
  let max_iters = (2 * nb) + 8 in
  let iter = ref 0 in
  let changed = ref true in
  while !changed && !iter < max_iters do
    changed := false;
    incr iter;
    for id = 0 to nb - 1 do
      let b = Cfg.block cfg id in
      let d0 =
        List.fold_left
          (fun acc p -> if Hashtbl.mem cut (id, p) then acc else max acc dist_out.(p))
          0.0 b.Cfg.preds
        +. budget.(id)
      in
      let before = Hashtbl.length planned in
      let out = walk_block true b d0 in
      if Hashtbl.length planned <> before || abs_float (out -. dist_out.(id)) > 1e-9 then begin
        dist_out.(id) <- out;
        changed := true
      end
    done
  done;
  let sites = List.sort compare (Hashtbl.fold (fun pc () acc -> pc :: acc) planned []) in
  let prog', map =
    Rewrite.insert_before prog (fun pc ->
        if Hashtbl.mem planned pc then [ Instr.Yield Instr.Scavenger ] else [])
  in
  Liveness.annotate_yields prog';
  (* budgeted loops are intentionally yield-free: their proven trip
     budget bounds the interval, so they are covered, not uncovered *)
  let budgeted_headers = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (header, _) () ->
      Hashtbl.replace budgeted_headers (Cfg.block cfg header).Cfg.first ())
    cut;
  let cfg' = Cfg.build prog' in
  let uncovered_loops =
    List.length
      (List.filter
         (fun (l : Dominators.loop) ->
           let first' = (Cfg.block cfg' l.Dominators.header).Cfg.first in
           let orig = if first' < Array.length map then map.(first') else -1 in
           not (Hashtbl.mem budgeted_headers orig))
         (Dominators.unyielded_loops cfg'))
  in
  (prog', map, { inserted = List.length sites; sites; uncovered_loops })
