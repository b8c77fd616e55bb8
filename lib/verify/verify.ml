module D = Diagnostic

type outcome = { diags : D.t list; checks_run : D.check list }

let count sev o = List.length (List.filter (fun d -> d.D.severity = sev) o.diags)

let errors o = count D.Error o

let warnings o = count D.Warning o

let ok o = errors o = 0

let clean o = o.diags = []

let pp_outcome fmt o =
  if o.diags = [] then
    Format.fprintf fmt "verify: clean (%d check(s) run)@." (List.length o.checks_run)
  else begin
    List.iter (fun d -> Format.fprintf fmt "%a@." D.pp d) o.diags;
    Format.fprintf fmt "verify: %d error(s), %d warning(s)@." (errors o) (warnings o)
  end

let outcome_to_json o =
  let open Stallhide_util in
  Json.Obj
    [
      ("errors", Json.Int (errors o));
      ("warnings", Json.Int (warnings o));
      ( "checks",
        Json.List (List.map (fun c -> Json.String (D.check_id c)) o.checks_run) );
      ("diagnostics", Json.List (List.map D.to_json o.diags));
    ]

exception Rejected of outcome

let () =
  Printexc.register_printer (function
    | Rejected o ->
        Some (Format.asprintf "Stallhide_verify.Verify.Rejected@.%a" pp_outcome o)
    | _ -> None)

(* [against] is the rewrite's input and pc map, when there is one. *)
let check ?against ?target_interval ?(expect_sfi = false) ?registry prog =
  let checks = ref [] and diags = ref [] in
  let ran c ds =
    checks := c :: !checks;
    diags := !diags @ ds
  in
  (match against with
  | Some (orig, orig_of_new) -> ran D.Cfg_equiv (Checks.cfg_equivalence ~orig ~orig_of_new prog)
  | None -> ());
  ran D.Liveness (Checks.liveness_soundness prog);
  let is_inserted =
    match against with
    | Some (_, orig_of_new) ->
        let m = Checks.inserted_map ~orig_of_new prog in
        fun pc -> pc >= 0 && pc < Array.length m && m.(pc)
    | None -> fun _ -> false
  in
  ran D.Pairing (Checks.prefetch_pairing ~is_inserted prog);
  (match target_interval with
  | Some target -> ran D.Interval (Checks.interval_bound ~target prog)
  | None -> ());
  if expect_sfi then ran D.Sfi (Checks.sfi_completeness prog);
  ran D.Atomicity (Checks.atomicity prog);
  let outcome = { diags = List.sort D.compare !diags; checks_run = List.rev !checks } in
  (match registry with
  | Some reg ->
      let open Stallhide_obs in
      let c name = Registry.counter reg ~ctx:(-1) name in
      Registry.incr (c "verify.programs");
      Registry.incr ~by:(List.length outcome.checks_run) (c "verify.checks");
      List.iter
        (fun d ->
          Registry.incr (c ("verify." ^ D.severity_name d.D.severity ^ "s"));
          Registry.incr (c ("verify.diag." ^ D.check_id d.D.check)))
        outcome.diags
  | None -> ());
  outcome

let run prog = check prog

let validate ~orig ~orig_of_new = check ~against:(orig, orig_of_new)
