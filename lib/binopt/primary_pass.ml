open Stallhide_isa

type opts = {
  policy : Gain_cost.policy;
  machine : Gain_cost.machine;
  coalesce : bool;
  max_group : int;
  conditional : bool;
  placement : Gain_cost.placement;
}

let default_opts =
  {
    policy = Gain_cost.Cost_benefit;
    machine = Gain_cost.default_machine;
    coalesce = true;
    max_group = 8;
    conditional = false;
    placement = Gain_cost.Pgo;
  }

type report = { selected : int list; yield_sites : int; coalesced_groups : int }

let base_and_disp prog pc =
  match Program.instr prog pc with
  | Instr.Load (_, rs, disp) -> (rs, disp)
  | i -> invalid_arg ("Primary_pass: not a load: " ^ Instr.to_string i)

let run ?(wait_stalls = fun _ -> 1) opts est prog =
  let est = Gain_cost.place opts.placement est in
  let selected = Gain_cost.select opts.policy opts.machine est prog in
  let selected_set = Hashtbl.create 64 in
  List.iter (fun pc -> Hashtbl.replace selected_set pc ()) selected;
  let is_selected pc = Hashtbl.mem selected_set pc in
  (* Under profile-free (Static) placement the evidence per site is a
     prior, not a measurement, so an unconditional switch is a bad bet
     on sites the analysis could not decide: those get a residency-
     conditional yield (pay one check on a hit, hide the stall on a
     miss). Proven Always_miss sites keep the cheaper unconditional
     prefetch+yield — the proof says the check would never pass. *)
  let cond_site pc =
    opts.conditional
    ||
    match opts.placement with
    | Gain_cost.Static c -> (
        match c.Gain_cost.cls_at pc with Some Gain_cost.Miss -> false | _ -> true)
    | Gain_cost.Pgo | Gain_cost.Hybrid _ -> false
  in
  let insertions : (int, Instr.t list) Hashtbl.t = Hashtbl.create 64 in
  let yield_sites = ref 0 in
  let coalesced_groups = ref 0 in
  let plan_single pc =
    let rs, disp = base_and_disp prog pc in
    incr yield_sites;
    if cond_site pc then Hashtbl.replace insertions pc [ Instr.Yield_cond (rs, disp) ]
    else Hashtbl.replace insertions pc [ Instr.Prefetch (rs, disp); Instr.Yield Instr.Primary ]
  in
  if opts.coalesce then begin
    (* coalescing amortizes one unconditional switch over a group, so
       only unconditional sites group; conditional ones stand alone *)
    (match List.filter (fun pc -> not (cond_site pc)) selected with
    | [] -> ()
    | _ :: _ ->
        let cfg = Cfg.build prog in
        let unconditional pc = is_selected pc && not (cond_site pc) in
        let groups = Depend.groups cfg ~selected:unconditional ~max_group:opts.max_group in
        List.iter
          (fun group ->
            match group with
            | [] -> ()
            | [ pc ] -> plan_single pc
            | head :: _ ->
                incr yield_sites;
                incr coalesced_groups;
                let prefetches =
                  List.map
                    (fun pc ->
                      let rs, disp = base_and_disp prog pc in
                      Instr.Prefetch (rs, disp))
                    group
                in
                Hashtbl.replace insertions head (prefetches @ [ Instr.Yield Instr.Primary ]))
          groups);
    List.iter (fun pc -> if cond_site pc then plan_single pc) selected
  end
  else List.iter plan_single selected;
  let wait_sites = ref [] in
  Array.iteri
    (fun pc i ->
      match i with
      | Instr.Accel_wait _ when wait_stalls pc > 0 ->
          incr yield_sites;
          wait_sites := pc :: !wait_sites;
          Hashtbl.replace insertions pc [ Instr.Yield Instr.Primary ]
      | _ -> ())
    (Program.code prog);
  let selected = selected @ List.rev !wait_sites in
  let prog', map =
    Rewrite.insert_before prog (fun pc ->
        match Hashtbl.find_opt insertions pc with Some l -> l | None -> [])
  in
  Liveness.annotate_yields prog';
  (prog', map, { selected; yield_sites = !yield_sites; coalesced_groups = !coalesced_groups })
