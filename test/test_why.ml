(* lib/why — causal ground-truth recovery and analysis invariants.

   The full workload x injection matrix is bench C21 and the CI
   causal-smoke job; here one fast case per intervention type keeps the
   tier-1 suite honest. *)

module Why = Stallhide_why.Why
module Sweep = Stallhide_obs.Sweep
module Causal = Stallhide_obs.Causal

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
      let open Stallhide_obs.Critical_path in
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
        [ Alcotest.test_case "deterministic" `Quick test_analysis_deterministic ] );
      ("sweep", [ Alcotest.test_case "knobs + ranking" `Quick test_sweep_shape ]);
      ("critical", [ Alcotest.test_case "kv decomposition" `Quick test_critical_kv_only ]);
    ]
