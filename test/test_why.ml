(* lib/why — causal ground-truth recovery and analysis invariants.

   The full workload x injection matrix is bench C21 and the CI
   causal-smoke job; here one fast case per intervention type keeps the
   tier-1 suite honest. *)

module Why = Stallhide_why.Why
module Sweep = Stallhide_why.Sweep
module Causal = Stallhide_why.Causal

let cfg ?injection ?(workload = "hash-join") () =
  { Why.default_config with Why.workload; repeats = 2; injection }

let test_injection_parse () =
  (match Why.injection_of_string "dram" with
  | Ok (Why.Level_spike { l3_mult = 1; dram_mult = 8 }) -> ()
  | _ -> Alcotest.fail "dram shorthand");
  (match Why.injection_of_string "spike:at=0,for=1000,l3=4,dram=2" with
  | Ok (Why.Level_spike { l3_mult = 4; dram_mult = 2 }) -> ()
  | _ -> Alcotest.fail "spike spec");
  (match Why.injection_of_string "site" with
  | Ok (Why.Site_load _) -> ()
  | _ -> Alcotest.fail "site shorthand");
  match Why.injection_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus accepted"

let test_recovers_dram_spike () =
  let injection =
    match Why.injection_of_string "dram" with Ok i -> i | Error e -> failwith e
  in
  let a = Why.analyze (cfg ~injection ()) in
  (match a.Why.truth with
  | Some { Why.injected = "level:DRAM"; rank = Some 1 } -> ()
  | Some { Why.injected; rank } ->
      Alcotest.failf "expected level:DRAM at #1, got %s at %s" injected
        (match rank with Some r -> string_of_int r | None -> "absent")
  | None -> Alcotest.fail "no ground truth on an injected run");
  Alcotest.(check bool) "recovered" true (Why.recovered a)

let test_recovers_site_injection () =
  let injection =
    match Why.injection_of_string "site" with Ok i -> i | Error e -> failwith e
  in
  let a = Why.analyze (cfg ~injection ()) in
  Alcotest.(check bool) "site ranked #1" true (Why.recovered a)

let test_analysis_deterministic () =
  let a1 = Why.analyze (cfg ()) and a2 = Why.analyze (cfg ()) in
  let series (a : Why.analysis) =
    List.map
      (fun (c : Causal.contribution) ->
        (c.Causal.target.Causal.id, Sweep.series_value Sweep.P99 c.Causal.contribution))
      a.Why.causal.Causal.rows
  in
  Alcotest.(check bool) "same seeds, same table" true (series a1 = series a2);
  Alcotest.(check bool) "no truth without injection" true (a1.Why.truth = None)

let test_sweep_shape () =
  let r = Why.sweep (cfg ()) in
  Alcotest.(check (list int)) "seeds" [ 42; 43 ] r.Sweep.seeds;
  Alcotest.(check bool) "single-core knob set" true
    (List.exists (fun (row : Sweep.row) -> row.Sweep.knob = "lanes*2") r.Sweep.rows);
  let ranked = Sweep.ranked Sweep.P99 r in
  let abs_delta (row : Sweep.row) =
    Float.abs (Sweep.series_value Sweep.P99 row.Sweep.delta).Sweep.value
  in
  Alcotest.(check bool) "ranked by |delta|" true
    (fst
       (List.fold_left
          (fun (ok, prev) row ->
            let d = abs_delta row in
            (ok && d <= prev, d))
          (true, infinity) ranked))

let test_critical_kv_only () =
  Alcotest.(check bool) "non-kv has no critical path" true
    (Why.critical (cfg ()) = None);
  match Why.critical (cfg ~workload:"kv-server" ()) with
  | None -> Alcotest.fail "kv-server critical path missing"
  | Some c ->
      Alcotest.(check bool) "requests decomposed" true (c.Why.requests > 0);
      let t = c.Why.all in
      let open Stallhide_why.Critical_path in
      (* the identity every breakdown satisfies, summed *)
      Alcotest.(check int) "latency = queueing + compute + stall + switch + offcore"
        t.latency
        (t.queueing + t.compute + t.stall + t.switch + t.offcore);
      Alcotest.(check bool) "contention within stall" true (t.contention <= t.stall);
      (* on-core time is decomposed, not all booked as queueing *)
      Alcotest.(check bool) "on-core compute decomposed" true (t.compute > 0);
      Alcotest.(check bool) "on-core stall decomposed" true (t.stall > 0);
      Alcotest.(check bool) "tail is a subset" true
        (c.Why.tail.n <= t.n && c.Why.tail.latency <= t.latency)

(* fewer than one repeat is an error, not a silent single run *)
let test_repeats_below_one () =
  List.iter
    (fun (name, f) ->
      match f { (cfg ()) with Why.repeats = 0 } with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s accepted 0 repeats" name)
    [ ("analyze", fun c -> ignore (Why.analyze c)); ("sweep", fun c -> ignore (Why.sweep c)) ]

(* --- Sweep / causal drivers on synthetic closures --- *)

let synth v =
  {
    Stallhide_runtime.Latency.count = 1;
    mean = float_of_int v;
    stddev = 0.0;
    p50 = v;
    p90 = v;
    p99 = v;
    p999 = v;
    max = v;
  }

let test_sweep_stats () =
  let r =
    Sweep.run ~seeds:[ 1; 2; 3 ]
      ~base:(fun seed -> synth (100 + seed))
      ~knobs:[ ("k", "perturb", fun seed -> synth (150 + seed)) ]
  in
  let row = List.hd r.Sweep.rows in
  let d = Sweep.series_value Sweep.P99 row.Sweep.delta in
  (* paired differences are a constant +50, so the CI collapses to 0
     even though both arms vary with the seed *)
  Alcotest.(check (float 1e-9)) "paired delta" 50.0 d.Sweep.value;
  Alcotest.(check (float 1e-9)) "paired ci" 0.0 d.Sweep.ci95;
  let b = Sweep.series_value Sweep.Mean r.Sweep.base in
  Alcotest.(check (float 1e-9)) "base mean" 102.0 b.Sweep.value;
  Alcotest.(check (float 1e-3)) "base ci (sd 1, n 3)" (1.96 /. sqrt 3.0) b.Sweep.ci95

let test_causal_ranking () =
  let t id kind = { Causal.id; kind; detail = "" } in
  let r =
    Causal.run ~seeds:[ 7 ]
      ~base:(fun _ -> synth 100)
      ~targets:
        [
          (t "level:L3" Causal.Resource, fun _ -> synth 90);
          (t "level:DRAM" Causal.Resource, fun _ -> synth 40);
          (t "site:3" Causal.Site, fun _ -> synth 95);
        ]
  in
  Alcotest.(check (option int)) "DRAM #1 among resources" (Some 1)
    (Causal.rank_of Sweep.P99 r ~id:"level:DRAM");
  Alcotest.(check (option int)) "L3 #2 among resources" (Some 2)
    (Causal.rank_of Sweep.P99 r ~id:"level:L3");
  Alcotest.(check (option int)) "site ranks within its own kind" (Some 1)
    (Causal.rank_of Sweep.P99 r ~id:"site:3");
  Alcotest.(check (option int)) "unknown id" None
    (Causal.rank_of Sweep.P99 r ~id:"level:L1");
  let dram =
    List.find (fun (c : Causal.contribution) -> c.Causal.target.Causal.id = "level:DRAM")
      r.Causal.rows
  in
  Alcotest.(check (float 1e-9)) "share of base" 0.6 (Causal.share Sweep.P99 r dram)

(* --- Golden outputs: small runs pinned byte for byte --- *)

let small ?injection workload = { (cfg ?injection ~workload ()) with Why.lanes = 4; ops = 200 }

let pretty j = Stallhide_util.Json.to_string_pretty j ^ "\n"

let test_golden_analysis () =
  let injection = match Why.injection_of_string "site" with Ok i -> i | Error e -> failwith e in
  Golden.check "why_analysis_hash_join_site.json"
    (pretty (Why.analysis_to_json (Why.analyze (small ~injection "hash-join"))))

let test_golden_sweeps () =
  Golden.check "why_sweep_hash_join.json" (pretty (Sweep.to_json (Why.sweep (small "hash-join"))));
  Golden.check "why_sweep_kv_server.json" (pretty (Sweep.to_json (Why.sweep (small "kv-server"))))

let test_golden_critical () =
  match Why.critical (small "kv-server") with
  | None -> Alcotest.fail "kv-server critical path missing"
  | Some c -> Golden.check "why_critical_kv_server.json" (pretty (Why.critical_to_json c))

let () =
  Alcotest.run "why"
    [
      ("injection", [ Alcotest.test_case "parse" `Quick test_injection_parse ]);
      ( "ground-truth",
        [
          Alcotest.test_case "dram spike recovered" `Quick test_recovers_dram_spike;
          Alcotest.test_case "site injection recovered" `Quick test_recovers_site_injection;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "deterministic" `Quick test_analysis_deterministic;
          Alcotest.test_case "repeats below one" `Quick test_repeats_below_one;
        ] );
      ("sweep", [ Alcotest.test_case "knobs + ranking" `Quick test_sweep_shape ]);
      ("critical", [ Alcotest.test_case "kv decomposition" `Quick test_critical_kv_only ]);
      ( "causal-drivers",
        [
          Alcotest.test_case "sweep stats" `Quick test_sweep_stats;
          Alcotest.test_case "causal ranking" `Quick test_causal_ranking;
        ] );
      ( "golden",
        [
          Alcotest.test_case "site-injected analysis" `Quick test_golden_analysis;
          Alcotest.test_case "single-core and smp sweeps" `Quick test_golden_sweeps;
          Alcotest.test_case "kv critical path" `Quick test_golden_critical;
        ] );
    ]
