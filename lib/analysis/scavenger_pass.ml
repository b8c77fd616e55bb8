open Stallhide_isa
open Stallhide_binopt

type opts = { target_interval : int; pc_cycles : int -> float option }

let default_opts = { target_interval = 200; pc_cycles = (fun _ -> None) }

let static_cost prog pc =
  let i = Program.instr prog pc in
  float_of_int (Cost.base i + if Instr.is_load i then 4 else 0)

let bound ~target = 2 * target

(* Cooperative atomicity: code written for coroutines relies on no
   yield occurring between a load and the store that completes its
   read-modify-write. A window opens at a load and closes at the next
   store to the same base register and displacement in its block; any
   instruction that redefines the base, a load included, drops it. A
   load that overwrites its own base ([load r1, [r1+8]]) opens none: a
   later store through that register writes another word. A yield does
   not close a window: it splits it. *)
let windows cfg =
  let prog = Cfg.program cfg in
  let found = ref [] in
  for id = 0 to Cfg.block_count cfg - 1 do
    let b = Cfg.block cfg id in
    let open_at : (int * int, int) Hashtbl.t = Hashtbl.create 4 in
    for pc = b.Cfg.first to b.Cfg.last do
      let i = Program.instr prog pc in
      let defs = Instr.defs i in
      if defs <> 0 then
        Hashtbl.filter_map_inplace
          (fun (rs, _) start -> if defs land (1 lsl rs) <> 0 then None else Some start)
          open_at;
      match i with
      | Instr.Load (rd, rs, disp) when rd <> rs -> Hashtbl.replace open_at (rs, disp) pc
      | Instr.Store (rs, disp, _) -> (
          match Hashtbl.find_opt open_at (rs, disp) with
          | Some start ->
              found := (start, pc) :: !found;
              Hashtbl.remove open_at (rs, disp)
          | None -> ())
      | _ -> ()
    done
  done;
  List.rev !found

type report = { inserted : int }

let run opts prog =
  if opts.target_interval <= 0 then invalid_arg "Scavenger_pass: target_interval must be positive";
  let cfg = Cfg.build prog in
  let n = Program.length prog in
  let target = float_of_int opts.target_interval in
  let bound = float_of_int (bound ~target:opts.target_interval) in
  let cost pc = match opts.pc_cycles pc with Some c -> c | None -> static_cost prog pc in
  let planned = Hashtbl.create 32 in
  (* A yield inserted before any pc after a window's load, through its
     store, would split the window: the planner defers it past the
     store instead. *)
  let no_insert = Array.make n false in
  List.iter
    (fun (load, store) ->
      for k = load + 1 to store do
        no_insert.(k) <- true
      done)
    (windows cfg);
  (* Where a yield that must break a block's feedback goes: the
     block's last pc outside a window, else its first pc (a cycle must
     get a yield even inside a window). *)
  let last_site id =
    let b = Cfg.block cfg id in
    let site = ref b.Cfg.first in
    for pc = b.Cfg.first to b.Cfg.last do
      if not no_insert.(pc) then site := pc
    done;
    !site
  in
  (* A yield-free loop whose proven budget fits inside the target is
     budgeted: its back edge is cut and its header charged the budget.
     Every other yield-free loop gets a scavenger yield seeded up front
     in its latch block, which caps the loop's feedback the moment the
     fixpoint starts. *)
  let cut =
    List.filter_map
      (fun ((l : Dominators.loop), budget) ->
        match budget with
        | Some budget when budget <= target -> Some (l, budget)
        | Some _ | None ->
            Hashtbl.replace planned (last_site l.Dominators.back_edge_src) ();
            None)
      (Distance.yield_free_loops ~cost cfg)
  in
  (* Cost of a window's opening load through the end of the no-insert
     run after it: its own window and any window overlapping it. *)
  let window_cost start =
    let c = ref (cost start) and k = ref (start + 1) in
    while !k < n && no_insert.(!k) do
      c := !c +. cost !k;
      incr k
    done;
    !c
  in
  (* Walk a block with incoming distance [d0], greedily planning a yield
     before any instruction that would push the distance past target,
     and before a window's opening load when the window would push the
     distance past the bound (no yield can go inside it). Existing
     yields and planned yields reset the distance. *)
  let walk_block (b : Cfg.block) d0 =
    let d = ref d0 in
    for pc = b.Cfg.first to b.Cfg.last do
      if Hashtbl.mem planned pc then d := 0.0;
      match Program.instr prog pc with
      | Instr.Yield _ | Instr.Yield_cond _ -> d := 0.0
      | _ ->
          let c = cost pc in
          let over =
            !d +. c > target || (pc + 1 < n && no_insert.(pc + 1) && !d +. window_cost pc > bound)
          in
          if over && (not (Hashtbl.mem planned pc)) && not no_insert.(pc) then begin
            Hashtbl.replace planned pc ();
            d := c
          end
          else d := !d +. c
    done;
    !d
  in
  (* A planned yield ends the feedback through it. An irreducible
     cycle has no back edge to cut: when its distance passes the target
     inside the round cap, the walk plans a yield there; when the cap
     ends the fixpoint first, the first still-moving block that reaches
     itself through moving blocks gets a yield at its last site and the
     fixpoint runs again. Blocks the cycle only feeds move with it but
     need no yield of their own. The pass adds no verdict of its own:
     the verifier judges the rewrite. *)
  let rec settle () =
    let moving = Distance.fixpoint ~walk:walk_block ~cut cfg in
    let on_cycle id =
      let seen = Hashtbl.create 8 in
      let rec reaches b =
        List.exists (fun s -> List.mem s moving && (s = id || visit s)) (Cfg.block cfg b).Cfg.succs
      and visit s =
        (not (Hashtbl.mem seen s))
        && begin
             Hashtbl.replace seen s ();
             reaches s
           end
      in
      reaches id
    in
    match
      List.find_opt
        (fun id -> (not (Hashtbl.mem planned (last_site id))) && on_cycle id)
        moving
    with
    | Some id ->
        Hashtbl.replace planned (last_site id) ();
        settle ()
    | None -> ()
  in
  settle ();
  let prog', map =
    Rewrite.insert_before prog (fun pc ->
        if Hashtbl.mem planned pc then [ Instr.Yield Instr.Scavenger ] else [])
  in
  Liveness.annotate_yields prog';
  (prog', map, { inserted = Hashtbl.length planned })
