open Stallhide_isa
open Stallhide_util
open Stallhide_cpu
open Stallhide_binopt

type site = {
  yield_pc : int;
  kind : Instr.yield_kind;
  covered : int list;
  fires : int;
  skips : int;
  baseline_stall : int;
  residual_stall : int;
  hidden_stall : int;
  switch_paid : int;
  predicted_gain : float;
  measured_gain : int;
}

type report = {
  sites : site list;
  total_baseline_stall : int;
  total_residual_stall : int;
}

(* Static covering map over the instrumented program: each selected
   load/wait belongs to the nearest preceding yield — the primary pass
   emits the group's yield before its loads, so nearest-preceding is the
   group structure, not a heuristic. *)
let covering_sites program ~orig_of_new ~selected =
  let is_selected = Hashtbl.create 16 in
  List.iter (fun pc -> Hashtbl.replace is_selected pc ()) selected;
  let sites = ref [] in
  let current = ref None in
  for pc = 0 to Program.length program - 1 do
    match Program.instr program pc with
    | Instr.Yield kind ->
        current := Some (pc, kind, ref []);
        sites := !current :: !sites
    | Instr.Yield_cond _ ->
        let kind = Instr.Primary in
        current := Some (pc, kind, ref []);
        sites := !current :: !sites
    | Instr.Load _ | Instr.Accel_wait _ -> (
        let orig = orig_of_new.(pc) in
        if Hashtbl.mem is_selected orig then
          match !current with
          | Some (_, _, covered) -> covered := orig :: !covered
          | None -> ())
    | _ -> ()
  done;
  List.rev_map
    (fun site ->
      match site with
      | Some (pc, kind, covered) -> (pc, kind, List.rev !covered)
      | None -> assert false)
    !sites

let predicted machine estimates program ~yield_pc ~covered ~execs =
  let live_regs =
    match (Program.annot program yield_pc).Program.live_regs with
    | Some n -> n
    | None -> Reg.count
  in
  let per_exec =
    List.fold_left
      (fun acc orig ->
        let p = Option.value ~default:0.0 (estimates.Gain_cost.miss_probability orig) in
        let stall =
          Option.value ~default:machine.Gain_cost.default_miss_stall
            (estimates.Gain_cost.stall_per_miss orig)
        in
        acc +. ((p *. stall) -. machine.Gain_cost.prefetch_cost))
      0.0 covered
    -. (2.0 *. Gain_cost.switch_cost machine ~live_regs)
  in
  float_of_int execs *. per_exec

let build ~program ~orig_of_new ~selected ~machine ~estimates ~baseline measured =
  let base_stall = Probe.stalls baseline in
  (* the measured stall, re-keyed to original pcs *)
  let residual = Array.make (Array.length base_stall) 0 in
  Array.iteri
    (fun pc v ->
      let orig = orig_of_new.(pc) in
      residual.(orig) <- residual.(orig) + v)
    (Probe.stalls measured);
  let fired = Probe.fired_yields measured
  and skipped = Probe.skipped_yields measured
  and switches = Probe.switch_cycles measured in
  let sites =
    covering_sites program ~orig_of_new ~selected
    |> List.map (fun (yield_pc, kind, covered) ->
           let fires = fired.(yield_pc) and skips = skipped.(yield_pc) in
           let sum a = List.fold_left (fun acc pc -> acc + a.(pc)) 0 covered in
           let baseline_stall = sum base_stall in
           let residual_stall = sum residual in
           let switch_paid = switches.(yield_pc) in
           let hidden_stall = baseline_stall - residual_stall in
           {
             yield_pc;
             kind;
             covered;
             fires;
             skips;
             baseline_stall;
             residual_stall;
             hidden_stall;
             switch_paid;
             predicted_gain =
               predicted machine estimates program ~yield_pc ~covered ~execs:(fires + skips);
             measured_gain = hidden_stall - switch_paid;
           })
  in
  let total a = Array.fold_left ( + ) 0 a in
  {
    sites;
    total_baseline_stall = total base_stall;
    total_residual_stall = total residual;
  }

let pp_report fmt r =
  Format.fprintf fmt "%-8s %-10s %-14s %8s %8s %9s %9s %8s %10s %10s@."
    "yield@pc" "kind" "covers" "fires" "skips" "base" "residual" "switch" "predicted" "measured";
  List.iter
    (fun s ->
      let covers =
        match s.covered with
        | [] -> "-"
        | pcs -> String.concat "," (List.map string_of_int pcs)
      in
      Format.fprintf fmt "%-8d %-10s %-14s %8d %8d %9d %9d %8d %10.1f %10d@." s.yield_pc
        (Stallhide_obs.Event.kind_name s.kind) covers s.fires s.skips s.baseline_stall s.residual_stall
        s.switch_paid s.predicted_gain s.measured_gain)
    r.sites;
  Format.fprintf fmt "total stall: baseline=%d residual=%d hidden=%d@." r.total_baseline_stall
    r.total_residual_stall
    (r.total_baseline_stall - r.total_residual_stall)

let to_json r =
  Json.Obj
    [
      ( "sites",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("yield_pc", Json.Int s.yield_pc);
                   ("kind", Json.String (Stallhide_obs.Event.kind_name s.kind));
                   ("covered", Json.List (List.map (fun pc -> Json.Int pc) s.covered));
                   ("fires", Json.Int s.fires);
                   ("skips", Json.Int s.skips);
                   ("baseline_stall", Json.Int s.baseline_stall);
                   ("residual_stall", Json.Int s.residual_stall);
                   ("hidden_stall", Json.Int s.hidden_stall);
                   ("switch_paid", Json.Int s.switch_paid);
                   ("predicted_gain", Json.Float s.predicted_gain);
                   ("measured_gain", Json.Int s.measured_gain);
                 ])
             r.sites) );
      ("total_baseline_stall", Json.Int r.total_baseline_stall);
      ("total_residual_stall", Json.Int r.total_residual_stall);
    ]
