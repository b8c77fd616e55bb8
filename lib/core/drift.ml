open Stallhide_isa

(* A site needs this many firings to be judged; a judged site loses
   when its measured gain is negative; the profile is stale once this
   share of the judged sites loses. *)
let min_fires = 4

let stale_fraction = 0.25

type verdict = {
  losing : Attribution.site list;
  judged : int;
  lost_cycles : int;
  stale : bool;
  deinstrumented : int;
  protected : int;
}

let assess (report : Attribution.report) =
  let judged =
    List.filter
      (fun s -> s.Attribution.fires >= min_fires)
      report.Attribution.sites
  in
  let losing =
    List.filter (fun s -> s.Attribution.measured_gain < 0) judged
  in
  let lost_cycles =
    List.fold_left (fun acc s -> acc - s.Attribution.measured_gain) 0 losing
  in
  let n_judged = List.length judged in
  let stale =
    n_judged > 0
    && float_of_int (List.length losing) /. float_of_int n_judged >= stale_fraction
  in
  { losing; judged = n_judged; lost_cycles; stale; deinstrumented = 0; protected = 0 }

(* Nop out the yields at [pcs]. One-for-one replacement keeps every pc
   stable, so the original-pc map and the liveness annotations of the
   surviving sites stay valid; we copy the annotations over since
   reassembly resets them. The paired prefetch is left in place — a
   prefetch of an already-resident line is nearly free, while the
   unconditional switch behind it is the cost being recovered. Returns
   the program and how many yields were removed and kept. *)
let deinstrument ~protect program ~pcs =
  let doomed = Hashtbl.create 16 in
  List.iter (fun pc -> Hashtbl.replace doomed pc ()) pcs;
  let removed = ref 0 in
  let protected = ref 0 in
  let pc = ref 0 in
  let items =
    List.map
      (fun item ->
        match item with
        | Program.Label _ -> item
        | Program.Ins ins ->
            let here = !pc in
            incr pc;
            if Hashtbl.mem doomed here then (
              match ins with
              | Instr.Yield _ | Instr.Yield_cond _ ->
                  (* a site the static analysis proved always-miss is
                     useful on every execution whatever the profile
                     says: the attribution signal against it is noise
                     (or an adversarial drift fault), so the yield
                     stays *)
                  if protect here then begin
                    incr protected;
                    item
                  end
                  else begin
                    incr removed;
                    Program.Ins Instr.Nop
                  end
              | _ -> item)
            else item)
      (Program.to_items program)
  in
  let program' = Program.assemble items in
  for i = 0 to Program.length program - 1 do
    (Program.annot program' i).Program.live_regs <- (Program.annot program i).Program.live_regs
  done;
  (program', !removed, !protected)

let adapt ?(protect = fun _ -> false) report program =
  let v = assess report in
  match v.losing with
  | [] -> (program, v)
  | losing ->
      let program', deinstrumented, protected =
        deinstrument ~protect program
          ~pcs:(List.map (fun s -> s.Attribution.yield_pc) losing)
      in
      (program', { v with deinstrumented; protected })
