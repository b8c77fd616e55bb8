open Stallhide_isa
open Stallhide_util

type opts = {
  cases : int;
  seed : int;
  oracles : Oracle.name list;
  shrink : bool;
  repro_dir : string option;
}

let default_opts =
  { cases = 100; seed = 42; oracles = Oracle.all; shrink = true; repro_dir = None }

type counterexample = {
  oracle : Oracle.name;
  case_seed : int;
  detail : string;
  instructions : int;
  shrunk_instructions : int option;
  program_text : string;
  repro_path : string option;
}

type report = {
  cases : int;
  oracles : Oracle.name list;
  checks : int;
  counterexamples : counterexample list;
  invalid : (Oracle.name * int * string) list;
}

let ok r = r.counterexamples = [] && r.invalid = []

(* The shrinker's test: a candidate "still fails" iff it assembles and
   the same oracle still reports a counterexample. Invalid candidates
   (unassemblable, or budget blow-ups from e.g. a deleted loop
   decrement) are rejected, so shrinking cannot wander from a
   miscompile to an unrelated non-terminating program. *)
let still_fails oracle cfg items =
  match Program.assemble items with
  | exception Program.Error _ -> false
  | prog -> ( match Oracle.check oracle cfg prog with Oracle.Counterexample _ -> true | _ -> false)

let shrunken oracle cfg program =
  let items = Program.to_items program in
  let minimal = Shrink.minimize ~test:(still_fails oracle cfg) items in
  let prog = Program.assemble minimal in
  let detail =
    match Oracle.check oracle cfg prog with
    | Oracle.Counterexample d -> d
    | _ -> assert false (* minimize only returns candidates that still fail *)
  in
  (prog, Shrink.instruction_count minimal, detail)

let run (opts : opts) =
  if opts.cases < 1 then invalid_arg "Fuzz.run: cases must be at least 1";
  let counterexamples = ref [] in
  let invalid = ref [] in
  let checks = ref 0 in
  for i = 0 to opts.cases - 1 do
    let case = Gen.case ~seed:(opts.seed + i) () in
    let cfg = case.Gen.cfg in
    List.iter
      (fun oracle ->
        incr checks;
        match Oracle.check_case oracle case with
        | Oracle.Pass -> ()
        | Oracle.Invalid why -> invalid := (oracle, cfg.Gen.seed, why) :: !invalid
        | Oracle.Counterexample detail ->
            let instructions =
              Shrink.instruction_count (Program.to_items case.Gen.program)
            in
            let prog, shrunk_instructions, detail =
              if opts.shrink then
                let p, n, d = shrunken oracle cfg case.Gen.program in
                (p, Some n, d)
              else (case.Gen.program, None, detail)
            in
            let repro = Repro.make ~oracle ~cfg ~program:prog ~detail in
            let repro_path =
              Option.map (fun dir -> Repro.save ~dir repro) opts.repro_dir
            in
            counterexamples :=
              {
                oracle;
                case_seed = cfg.Gen.seed;
                detail;
                instructions;
                shrunk_instructions;
                program_text = repro.Repro.program_text;
                repro_path;
              }
              :: !counterexamples)
      opts.oracles
  done;
  {
    cases = opts.cases;
    oracles = opts.oracles;
    checks = !checks;
    counterexamples = List.rev !counterexamples;
    invalid = List.rev !invalid;
  }

let cex_to_json c =
  Json.Obj
    ([
       ("oracle", Json.String (Oracle.to_string c.oracle));
       ("seed", Json.Int c.case_seed);
       ("detail", Json.String c.detail);
       ("instructions", Json.Int c.instructions);
     ]
    @ (match c.shrunk_instructions with
      | Some n -> [ ("shrunk_instructions", Json.Int n) ]
      | None -> [])
    @ [ ("program", Json.String c.program_text) ]
    @ match c.repro_path with Some p -> [ ("repro", Json.String p) ] | None -> [])

let report_to_json r =
  Json.Obj
    [
      ("cases", Json.Int r.cases);
      ("oracles", Json.List (List.map (fun o -> Json.String (Oracle.to_string o)) r.oracles));
      ("checks", Json.Int r.checks);
      ("counterexamples", Json.List (List.map cex_to_json r.counterexamples));
      ( "invalid",
        Json.List
          (List.map
             (fun (o, seed, why) ->
               Json.Obj
                 [
                   ("oracle", Json.String (Oracle.to_string o));
                   ("seed", Json.Int seed);
                   ("why", Json.String why);
                 ])
             r.invalid) );
      ("ok", Json.Bool (ok r));
    ]

let pp_report ppf r =
  Format.fprintf ppf "fuzz: %d cases x %d oracle(s) = %d checks@." r.cases
    (List.length r.oracles) r.checks;
  List.iter
    (fun c ->
      Format.fprintf ppf "  COUNTEREXAMPLE [%s] seed %d: %s@." (Oracle.to_string c.oracle)
        c.case_seed c.detail;
      (match c.shrunk_instructions with
      | Some n -> Format.fprintf ppf "    shrunk %d -> %d instruction(s)@." c.instructions n
      | None -> ());
      (match c.repro_path with
      | Some p -> Format.fprintf ppf "    repro: %s@." p
      | None -> ());
      Format.fprintf ppf "    %s@."
        (String.concat "\n    " (String.split_on_char '\n' c.program_text)))
    r.counterexamples;
  List.iter
    (fun (o, seed, why) ->
      Format.fprintf ppf "  INVALID [%s] seed %d: %s@." (Oracle.to_string o) seed why)
    r.invalid;
  if ok r then Format.fprintf ppf "  all oracles passed@."
  else
    Format.fprintf ppf "  %d counterexample(s), %d invalid case(s)@."
      (List.length r.counterexamples) (List.length r.invalid)
