(* fuzz-oracles: the seven-oracle differential campaign, driven case by
   case through [Gen.case] and [Oracle.check_case]. Thousands of tiny
   simulations, so per-run set-up inside every layer dominates. *)

module Gen = Stallhide_check.Gen
module Oracle = Stallhide_check.Oracle

let cases = function Pass.Full | Pass.C25 -> 120 | Pass.Tiny -> 4

(* Cases are drawn from case seeds 0 .. pool_size-1, minus the ones on
   which an oracle reports a counterexample at the commit that defined
   this benchmark: there the verifier rejects the scavenger pass's
   rewrite (see README.md). A benchmark seed selects a window of the
   remaining seeds. *)
let pool_size = 20_011

let known_failing = [ 3041; 6373; 7841 ]

let pool =
  List.init pool_size Fun.id
  |> List.filter (fun s -> not (List.mem s known_failing))
  |> Array.of_list

let case_seed ~seed i =
  let n = Array.length pool in
  pool.((((seed * 7919) + i) mod n + n) mod n)

let oracle_layer o = "check." ^ Oracle.to_string o

(* One pass; the per-layer metrics are meaningful when spans are on. *)
let run ~seed ~size =
  let n = cases size in
  let oracles = List.length Oracle.all in
  let gen_s = Array.make n 0.0 and check_s = Array.make (n * oracles) 0.0 in
  let passed = ref 0 and counterexamples = ref 0 and invalid = ref 0 in
  let failures = ref [] in
  let instructions = ref 0 in
  let fail o case_seed kind detail =
    failures :=
      Printf.sprintf "%s oracle, case seed %d: %s: %s" (Oracle.to_string o) case_seed kind detail
      :: !failures
  in
  let body () =
    for i = 0 to n - 1 do
      let cs = case_seed ~seed i in
      let case, s = Pass.timed (fun () -> Span.with_ "gen" (fun () -> Gen.case ~seed:cs ())) in
      gen_s.(i) <- s;
      instructions := !instructions + Stallhide_isa.Program.length case.Gen.program;
      List.iteri
        (fun k o ->
          let v, s =
            Pass.timed (fun () ->
                Span.with_ ~rid:i (oracle_layer o) (fun () -> Oracle.check_case o case))
          in
          check_s.((i * oracles) + k) <- s;
          match v with
          | Oracle.Pass -> incr passed
          | Oracle.Counterexample d ->
              incr counterexamples;
              fail o cs "counterexample" d
          | Oracle.Invalid d ->
              incr invalid;
              fail o cs "invalid" d)
        Oracle.all
    done
  in
  let (), wall_s = Pass.timed (fun () -> Span.with_ "pass" body) in
  let checks = n * List.length Oracle.all in
  let layers =
    ("check.gen_ms", Span.total_s "gen" *. 1e3 /. float_of_int n)
    :: List.map
         (fun o ->
           let l = oracle_layer o in
           (l ^ "_ms", Span.total_s l *. 1e3 /. float_of_int (max 1 (Span.calls l))))
         Oracle.all
  in
  {
    Pass.ops = checks;
    failed = List.length !failures;
    failures = List.rev !failures;
    work = checks;
    work_s = check_s;
    setup_s = gen_s;
    wall_s;
    fingerprint =
      [
        ("checks", checks);
        ("pass", !passed);
        ("counterexample", !counterexamples);
        ("invalid", !invalid);
        ("instructions", !instructions);
      ];
    layers;
    table = [];
  }
