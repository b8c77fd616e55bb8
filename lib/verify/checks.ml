open Stallhide_isa
open Stallhide_util
open Stallhide_binopt
module D = Diagnostic
module A = Stallhide_analysis

let insertable = function
  | Instr.Prefetch _ | Instr.Yield _ | Instr.Yield_cond _ | Instr.Guard _ -> true
  | Instr.Binop _ | Instr.Mov _ | Instr.Load _ | Instr.Store _ | Instr.Branch _
  | Instr.Jump _ | Instr.Call _ | Instr.Ret | Instr.Accel_issue _ | Instr.Accel_wait _
  | Instr.Opmark | Instr.Nop | Instr.Halt ->
      false

let addr_str rs disp =
  if disp = 0 then Printf.sprintf "[%s]" (Reg.name rs)
  else if disp > 0 then Printf.sprintf "[%s+%d]" (Reg.name rs) disp
  else Printf.sprintf "[%s%d]" (Reg.name rs) disp

(* --- CFG equivalence modulo instrumentation --- *)

let inserted_map ~orig_of_new inst =
  let n = Program.length inst in
  let arr = Array.make n false in
  (* inserted instructions precede the original instruction they map
     to, so every pc of a same-original-pc run except the last one is
     an insertion *)
  if Array.length orig_of_new = n then
    for pc = 0 to n - 2 do
      arr.(pc) <- orig_of_new.(pc + 1) = orig_of_new.(pc)
    done;
  arr

let cfg_equivalence ~orig ~orig_of_new inst =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let n_new = Program.length inst and n_old = Program.length orig in
  if Array.length orig_of_new <> n_new then
    add
      (D.error D.Cfg_equiv
         (Printf.sprintf "pc map has %d entries for a %d-instruction program"
            (Array.length orig_of_new) n_new))
  else begin
    let n = ref 0 in
    let o = ref 0 in
    let structural_ok = ref true in
    while !structural_ok && !o < n_old do
      if !n >= n_new || orig_of_new.(!n) <> !o then begin
        add
          (D.error D.Cfg_equiv
             ~pc:(min !n (n_new - 1))
             ~witness:[ !o ]
             (Printf.sprintf
                "original instruction at pc %d (%S) has no image in the instrumented program"
                !o
                (Instr.to_string (Program.instr orig !o))));
        structural_ok := false
      end
      else begin
        (* skip over the inserted run; the last new pc mapping to !o is
           the original instruction itself *)
        while !n + 1 < n_new && orig_of_new.(!n + 1) = !o do
          let i = Program.instr inst !n in
          if not (insertable i) then
            add
              (D.error D.Cfg_equiv ~pc:!n ~witness:[ !o ]
                 (Printf.sprintf
                    "non-instrumentation instruction %S inserted before original pc %d"
                    (Instr.to_string i) !o));
          incr n
        done;
        let i = Program.instr inst !n in
        let oi = Program.instr orig !o in
        if not (Instr.equal i oi) then
          add
            (D.error D.Cfg_equiv ~pc:!n ~witness:[ !o ]
               (Printf.sprintf "instruction altered: %S instead of original %S"
                  (Instr.to_string i) (Instr.to_string oi)))
        else begin
          match Instr.target i with
          | None -> ()
          | Some l ->
              let t_new = Program.resolved_target inst !n in
              let t_old = Program.resolved_target orig !o in
              let img =
                if t_new >= 0 && t_new < n_new then orig_of_new.(t_new) else -1
              in
              if img <> t_old then
                add
                  (D.error D.Cfg_equiv ~pc:!n
                     ~witness:[ t_new; t_old ]
                     (Printf.sprintf
                        "control transfer %S retargeted: lands on original pc %d, expected %d"
                        l img t_old))
        end;
        incr n;
        incr o
      end
    done;
    if !structural_ok && !n < n_new then
      add
        (D.error D.Cfg_equiv ~pc:!n
           (Printf.sprintf "%d trailing instruction(s) beyond the original program"
              (n_new - !n)));
    (* every original label must mark the image of the instruction it
       marked originally (trailing labels stay trailing) *)
    List.iter
      (function
        | Program.Ins _ -> ()
        | Program.Label l ->
            let li_old = Program.label_index orig l in
            if not (Program.has_label inst l) then
              add (D.error D.Cfg_equiv (Printf.sprintf "label %S dropped" l))
            else
              let li_new = Program.label_index inst l in
              let img = if li_new >= n_new then n_old else orig_of_new.(li_new) in
              if img <> li_old then
                add
                  (D.error D.Cfg_equiv
                     ~pc:(min li_new (n_new - 1))
                     ~witness:[ li_old ]
                     (Printf.sprintf "label %S moved: marks original pc %d, expected %d" l
                        img li_old)))
      (Program.to_items orig)
  end;
  List.rev !diags

(* --- Liveness soundness --- *)

let liveness_soundness prog =
  let cfg = Cfg.build prog in
  let lv = Liveness.compute cfg in
  let diags = ref [] in
  for pc = 0 to Program.length prog - 1 do
    match Program.instr prog pc with
    | Instr.Yield _ | Instr.Yield_cond _ -> (
        match (Program.annot prog pc).Program.live_regs with
        | None -> () (* unannotated yields save everything: sound *)
        | Some k ->
            let mask = Liveness.live_out lv pc in
            let need = Bits.popcount mask in
            let regs = List.rev (Bits.fold (fun r acc -> r :: acc) mask []) in
            if k < need then
              diags :=
                D.error D.Liveness ~pc ~witness:regs
                  (Printf.sprintf
                     "context save covers %d register(s) but %d are live-out" k need)
                :: !diags
            else if k > need then
              diags :=
                D.warning D.Liveness ~pc ~witness:regs
                  (Printf.sprintf
                     "stale annotation: saves %d register(s), only %d live-out" k need)
                :: !diags)
    | _ -> ()
  done;
  List.rev !diags

(* --- Prefetch/yield pairing --- *)

let prefetch_pairing ?(is_inserted = fun _ -> false)
    ?(mem = Stallhide_mem.Memconfig.default) prog =
  let cfg = Cfg.build prog in
  let dom = Dominators.compute cfg in
  let diags = ref [] in
  let report pc ?witness msg =
    let mk = if is_inserted pc then D.error else D.warning in
    diags := mk D.Pairing ~pc ?witness msg :: !diags
  in
  for pc = 0 to Program.length prog - 1 do
    match Program.instr prog pc with
    | Instr.Prefetch (rs, disp) | Instr.Yield_cond (rs, disp) ->
        let b = Cfg.block_of_pc cfg pc in
        let rec scan k =
          if k > b.Cfg.last then `No_load
          else
            match Program.instr prog k with
            | Instr.Load (_, rs', disp') when rs' = rs && disp' = disp -> `Paired k
            | i when Instr.defs i land (1 lsl rs) <> 0 -> `Clobbered k
            | _ -> scan (k + 1)
        in
        (match scan (pc + 1) with
        | `Paired l ->
            let bl = (Cfg.block_of_pc cfg l).Cfg.id in
            if not (Dominators.dominates dom b.Cfg.id bl) then
              report pc ~witness:[ l ]
                (Printf.sprintf "prefetch of %s does not dominate its paired load"
                   (addr_str rs disp))
            else begin
              (* The pair must actually hide the latency it was priced
                 for: either a yield sits between issue and use (another
                 lane runs while the line travels), or the proven
                 straight-line cycle distance covers a DRAM fill by
                 itself. A [Yield_cond] is its own yield. *)
              match Program.instr prog pc with
              | Instr.Prefetch _ ->
                  let yield_between = ref false in
                  for k = pc + 1 to l - 1 do
                    match Program.instr prog k with
                    | Instr.Yield _ | Instr.Yield_cond _ -> yield_between := true
                    | _ -> ()
                  done;
                  let lead =
                    A.Distance.prefetch_lead mem prog ~prefetch_pc:pc ~load_pc:l
                  in
                  if
                    (not !yield_between)
                    && lead < mem.Stallhide_mem.Memconfig.dram_latency
                  then
                    report pc ~witness:[ l ]
                      (Printf.sprintf
                         "prefetch lead of %d cycle(s) to the load of %s covers neither the DRAM latency (%d) nor a yield"
                         lead (addr_str rs disp)
                         mem.Stallhide_mem.Memconfig.dram_latency)
              | _ -> ()
            end
        | `Clobbered k ->
            report pc ~witness:[ k ]
              (Printf.sprintf
                 "address register %s clobbered at pc %d before the load of %s"
                 (Reg.name rs) k (addr_str rs disp))
        | `No_load ->
            report pc
              (Printf.sprintf "no paired load of %s in the block" (addr_str rs disp)))
    | _ -> ()
  done;
  List.rev !diags

(* --- Scavenger interval bound --- *)

let interval_bound ~target prog =
  if target <= 0 then invalid_arg "Checks.interval_bound: target must be positive";
  let cfg = Cfg.build prog in
  (* Yield-free loops are only unbounded when no iteration bound can be
     proven: the analysis derives the bounds on the program it is given
     (never trusting the pass) and charges bounded loops their
     (trips - 1) x body-cost budget. *)
  let r = A.Distance.yield_free_paths ~cost:(A.Scavenger_pass.static_cost prog) cfg in
  let diags = ref [] in
  List.iter
    (fun (l : Dominators.loop) ->
      let firsts =
        List.map (fun b -> (Cfg.block cfg b).Cfg.first) l.Dominators.body
      in
      diags :=
        D.error D.Interval
          ~pc:(Cfg.block cfg l.Dominators.header).Cfg.first
          ~witness:firsts
          "yield-free cycle with no proven iteration bound: inter-yield interval is unbounded"
        :: !diags)
    r.A.Distance.unproven;
  if not r.A.Distance.converged then
    diags :=
      D.error D.Interval ~pc:r.A.Distance.worst_pc
        "irreducible yield-free cycle: inter-yield interval is unbounded"
      :: !diags;
  if r.A.Distance.unproven = [] && r.A.Distance.converged then begin
    let bound = A.Scavenger_pass.bound ~target in
    if r.A.Distance.worst > float_of_int bound +. 1e-9 then begin
      let budget_note =
        match r.A.Distance.budgeted with
        | 0 -> ""
        | n -> Printf.sprintf " (includes %d proven loop budget(s))" n
      in
      diags :=
        D.error D.Interval ~pc:r.A.Distance.worst_pc ~witness:r.A.Distance.witness
          (Printf.sprintf "yield-free path of %.0f cycles exceeds target %d (+%d slack)%s"
             r.A.Distance.worst target (bound - target) budget_note)
        :: !diags
    end
  end;
  List.rev !diags

(* --- SFI guard completeness --- *)

module Key_set = Set.Make (struct
  type t = int * int

  let compare = Stdlib.compare
end)

type avail = Top | Avail of Key_set.t

let sfi_completeness ?(guard_loads = true) ?(guard_stores = true) prog =
  let cfg = Cfg.build prog in
  let nb = Cfg.block_count cfg in
  let key rs disp = (rs, disp asr 6) in
  let kill_defs i s =
    let defs = Instr.defs i in
    if defs = 0 then s
    else Key_set.filter (fun (rs, _) -> defs land (1 lsl rs) = 0) s
  in
  let transfer_ins i s =
    match i with
    | Instr.Guard (rs, disp) -> Key_set.add (key rs disp) s
    | Instr.Call _ -> Key_set.empty (* the callee may guard or clobber anything *)
    | _ -> kill_defs i s
  in
  let transfer_block b s =
    let s = ref s in
    for pc = b.Cfg.first to b.Cfg.last do
      s := transfer_ins (Program.instr prog pc) !s
    done;
    !s
  in
  let meet a b =
    match (a, b) with
    | Top, x | x, Top -> x
    | Avail s1, Avail s2 -> Avail (Key_set.inter s1 s2)
  in
  let eq a b =
    match (a, b) with
    | Top, Top -> true
    | Avail s1, Avail s2 -> Key_set.equal s1 s2
    | _ -> false
  in
  let out = Array.make nb Top in
  let in_of b =
    (* the program entry contributes an empty set; unreachable blocks
       stay Top and are not reported *)
    let base = if b.Cfg.id = 0 then Avail Key_set.empty else Top in
    List.fold_left (fun acc p -> meet acc out.(p)) base b.Cfg.preds
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for id = 0 to nb - 1 do
      let b = Cfg.block cfg id in
      let o =
        match in_of b with Top -> Top | Avail s -> Avail (transfer_block b s)
      in
      if not (eq o out.(id)) then begin
        out.(id) <- o;
        changed := true
      end
    done
  done;
  let diags = ref [] in
  for id = 0 to nb - 1 do
    let b = Cfg.block cfg id in
    match in_of b with
    | Top -> ()
    | Avail s0 ->
        let s = ref s0 in
        for pc = b.Cfg.first to b.Cfg.last do
          let i = Program.instr prog pc in
          let want rs disp kind =
            if not (Key_set.mem (key rs disp) !s) then
              diags :=
                D.error D.Sfi ~pc
                  (Printf.sprintf "%s of %s not covered by a guard on every path" kind
                     (addr_str rs disp))
                :: !diags
          in
          (match i with
          | Instr.Load (_, rs, disp) when guard_loads -> want rs disp "load"
          | Instr.Accel_issue (rs, disp) when guard_loads -> want rs disp "accel-issue"
          | Instr.Store (rs, disp, _) when guard_stores -> want rs disp "store"
          | _ -> ());
          s := transfer_ins i !s
        done
  done;
  List.rev !diags

(* --- Cooperative-atomicity lint --- *)

let atomicity prog =
  List.concat_map
    (fun (load, store) ->
      match Program.instr prog store with
      | Instr.Store (rs, disp, _) ->
          List.filter_map
            (fun pc ->
              match Program.instr prog pc with
              | Instr.Yield _ | Instr.Yield_cond _ ->
                  Some
                    (D.warning D.Atomicity ~pc ~witness:[ load; store ]
                       (Printf.sprintf
                          "yield between load (pc %d) and dependent store (pc %d) to %s" load
                          store (addr_str rs disp)))
              | _ -> None)
            (List.init (store - load - 1) (fun k -> load + 1 + k))
      | _ -> [])
    (A.Scavenger_pass.windows (Cfg.build prog))
