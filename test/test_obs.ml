open Stallhide
open Stallhide_util
open Stallhide_mem
open Stallhide_workloads
module Obs = Stallhide_obs

let chase ?image ?(lanes = 8) ?(hops = 400) ?compute () =
  Pointer_chase.make ?image ?compute ~lanes ~nodes_per_lane:2048 ~hops ~seed:42 ()

let with_obs () =
  let s = Obs.Stream.create () in
  ({ Baselines.default_opts with Baselines.obs = Some s }, s)

(* --- Zero-overhead invariant ---

   Telemetry must never touch the simulated clock: the same workload
   (fresh image, same seed) completes in exactly the same number of
   cycles with a stream attached as without. *)

let test_zero_overhead_sequential () =
  let bare = Baselines.run_sequential (chase ()) in
  let opts, s = with_obs () in
  let obs = Baselines.run_sequential ~opts (chase ()) in
  Alcotest.(check int) "cycles identical" bare.Metrics.cycles obs.Metrics.cycles;
  Alcotest.(check bool) "events recorded" true (Obs.Stream.length s > 0)

let test_zero_overhead_round_robin () =
  let bare = Baselines.run_round_robin (chase ()) in
  let opts, s = with_obs () in
  let obs = Baselines.run_round_robin ~opts (chase ()) in
  Alcotest.(check int) "cycles identical" bare.Metrics.cycles obs.Metrics.cycles;
  Alcotest.(check int) "stall identical" bare.Metrics.stall obs.Metrics.stall;
  Alcotest.(check bool) "events recorded" true (Obs.Stream.length s > 0)

let dual ?opts () =
  let im = Address_space.create ~bytes:(1 lsl 22) in
  let kv = Kv_server.make ~image:im ~requests:200 ~seed:1 () in
  let sc = chase ~image:im ~lanes:4 ~hops:200 ~compute:100 () in
  Baselines.run_dual ?opts ~primary:kv ~scavengers:sc ()

let test_zero_overhead_dual () =
  let bare = dual () in
  let opts, s = with_obs () in
  let obs = dual ~opts () in
  Alcotest.(check int) "cycles identical" bare.Baselines.metrics.Metrics.cycles
    obs.Baselines.metrics.Metrics.cycles;
  Alcotest.(check bool) "events recorded" true (Obs.Stream.length s > 0)

(* --- Registry fed by the stream --- *)

let test_registry_counts () =
  let opts, s = with_obs () in
  let m = Baselines.run_round_robin ~opts (chase ()) in
  let r = Obs.Stream.registry s in
  Alcotest.(check int) "stall.cycles matches metrics" m.Metrics.stall
    (Obs.Registry.total r "stall.cycles");
  Alcotest.(check bool) "dispatch histogram present" true
    (Obs.Registry.merged r "dispatch.cycles" <> None)

(* --- Perfetto export: parses back, timestamps monotone per track --- *)

let test_trace_json_roundtrip () =
  let opts, s = with_obs () in
  let (_ : Metrics.t) = Baselines.run_round_robin ~opts (chase ~lanes:4 ~hops:100 ()) in
  let j = Json.of_string (Json.to_string (Obs.Perfetto.to_json s)) in
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "trace non-empty" true (List.length events > 0);
  let last_ts = Hashtbl.create 8 in
  let spans = ref 0 in
  List.iter
    (fun e ->
      match Option.bind (Json.member "ph" e) Json.to_string_opt with
      | Some "X" ->
          incr spans;
          let tid = Option.get (Option.bind (Json.member "tid" e) Json.to_int_opt) in
          let ts = Option.get (Option.bind (Json.member "ts" e) Json.to_int_opt) in
          let dur = Option.get (Option.bind (Json.member "dur" e) Json.to_int_opt) in
          Alcotest.(check bool) "dur positive" true (dur > 0);
          let prev = Option.value (Hashtbl.find_opt last_ts tid) ~default:min_int in
          Alcotest.(check bool) "ts monotone per context" true (ts >= prev);
          Hashtbl.replace last_ts tid (ts + dur)
      | Some "M" ->
          Alcotest.(check (option string)) "metadata names threads" (Some "thread_name")
            (Option.bind (Json.member "name" e) Json.to_string_opt)
      | _ -> ())
    events;
  Alcotest.(check bool) "dispatch spans exported" true (!spans > 0)

(* --- Attribution --- *)

let test_attribution_invariants () =
  let r = Baselines.run_pgo_attributed (chase ()) in
  let a = r.Baselines.attribution in
  Alcotest.(check int) "no events dropped" 0 (a.Obs.Attribution.dropped + a.Obs.Attribution.baseline_dropped);
  Alcotest.(check bool) "sites found" true (a.Obs.Attribution.sites <> []);
  let hidden =
    List.fold_left (fun acc s -> acc + s.Obs.Attribution.hidden_stall) 0 a.Obs.Attribution.sites
  in
  (* Per-site hidden stall only covers instrumented loads, so its sum
     can never exceed the whole-program stall delta. *)
  Alcotest.(check bool) "covered hidden <= total hidden" true
    (hidden <= a.Obs.Attribution.total_baseline_stall - a.Obs.Attribution.total_residual_stall);
  List.iter
    (fun s ->
      Alcotest.(check int) "hidden = baseline - residual" s.Obs.Attribution.hidden_stall
        (s.Obs.Attribution.baseline_stall - s.Obs.Attribution.residual_stall);
      Alcotest.(check bool) "site exercised" true (s.Obs.Attribution.fires + s.Obs.Attribution.skips > 0);
      Alcotest.(check bool) "covers something" true (s.Obs.Attribution.covered <> []))
    a.Obs.Attribution.sites;
  (* On the pointer chase the model and the measurement must agree the
     instrumentation was worth it. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) "predicted gain positive" true (s.Obs.Attribution.predicted_gain > 0.);
      Alcotest.(check bool) "measured gain positive" true (s.Obs.Attribution.measured_gain > 0))
    a.Obs.Attribution.sites;
  (* Report JSON round-trips through our own parser. *)
  let j = Json.of_string (Json.to_string (Obs.Attribution.to_json a)) in
  Alcotest.(check bool) "report JSON has sites" true (Json.member "sites" j <> None)

(* --- Stream mechanics --- *)

let test_stream_drop_accounting () =
  let s = Obs.Stream.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Stream.record s (Obs.Event.Op_retired { ctx = 0; pc = i; cycle = i })
  done;
  Alcotest.(check int) "buffer capped" 4 (Obs.Stream.length s);
  Alcotest.(check int) "drops counted" 6 (Obs.Stream.dropped s);
  (* the registry keeps counting past the cap *)
  Alcotest.(check int) "registry uncapped" 10 (Obs.Registry.total (Obs.Stream.registry s) "ops");
  Obs.Stream.reset s;
  Alcotest.(check int) "reset clears" 0 (Obs.Stream.length s + Obs.Stream.dropped s)

(* --- Golden-file regression for the Perfetto exporter ---

   A hand-authored stream covering every branch of the event mapping
   (dispatch spans, fired/skipped yields, a stall-free hit that must be
   dropped, Stall/Frontend_stall that must be dropped, switches,
   escalations, watchdog verdicts, thread-name metadata) is exported and
   compared *structurally* against test/golden/perfetto_small.json:
   object fields compare as sets, so a formatting or field-order change
   is not a regression, while any added/removed/retyped field or event
   is, with the JSON path of the first divergence in the failure.

   To bless a deliberate exporter change:
     STALLHIDE_BLESS=$PWD/test/golden/perfetto_small.json \
       dune exec test/test_obs.exe -- test golden *)

let golden_stream () =
  let s = Obs.Stream.create () in
  let record = Obs.Stream.record s in
  record (Obs.Event.Dispatch { ctx = 0; start = 10; stop = 42 });
  record
    (Obs.Event.Yield
       { ctx = 0; pc = 3; kind = Stallhide_isa.Instr.Primary; fired = true; cycle = 17 });
  record
    (Obs.Event.Yield
       { ctx = 1; pc = 9; kind = Stallhide_isa.Instr.Scavenger; fired = false; cycle = 21 });
  record
    (Obs.Event.Cache_access
       { ctx = 1; pc = 4; addr = 512; level = Hierarchy.Dram; stall = 180; queue = 0; cycle = 23 });
  (* a contended miss: carries a "queued" arg in the export *)
  record
    (Obs.Event.Cache_access
       { ctx = 0; pc = 7; addr = 640; level = Hierarchy.L3; stall = 60; queue = 12; cycle = 30 });
  (* a hit (stall = 0) and raw stalls: all dropped by the exporter *)
  record
    (Obs.Event.Cache_access
       { ctx = 1; pc = 5; addr = 576; level = Hierarchy.L1; stall = 0; queue = 0; cycle = 24 });
  record (Obs.Event.Stall { ctx = 0; pc = 6; cycles = 7; cycle = 25 });
  record (Obs.Event.Frontend_stall { ctx = 0; pc = 6; cycles = 2; cycle = 26 });
  record
    (Obs.Event.Context_switch { from_ctx = 0; to_ctx = 1; at_pc = 3; cost = 24; cycle = 42 });
  record (Obs.Event.Op_retired { ctx = 1; pc = 12; cycle = 55 });
  record (Obs.Event.Scavenger_escalation { ctx = 2; pc = 8; cycle = 60 });
  record (Obs.Event.Watchdog { ctx = 2; action = Obs.Event.Demote; cycle = 61 });
  record (Obs.Event.Dispatch { ctx = 1; start = 44; stop = 70 });
  (* request-lifetime spans (async b/e, overlapping on one track) and a
     steal migration instant *)
  record (Obs.Event.Span_open { ctx = 0; name = "request"; cycle = 8 });
  record (Obs.Event.Span_open { ctx = 1; name = "request"; cycle = 12 });
  record (Obs.Event.Steal { ctx = 1; from_core = 0; to_core = 1; cycle = 40 });
  record (Obs.Event.Span_close { ctx = 0; name = "request"; cycle = 64 });
  record (Obs.Event.Span_close { ctx = 1; name = "request"; cycle = 72 });
  s

(* First structural difference between two JSON values, as a path. *)
let rec json_diff path a b =
  match (a, b) with
  | Json.Obj xs, Json.Obj ys ->
      let keys l = List.map fst l |> List.sort compare in
      if keys xs <> keys ys then
        Some
          (Printf.sprintf "%s: fields {%s} vs {%s}" path
             (String.concat "," (keys xs))
             (String.concat "," (keys ys)))
      else
        List.fold_left
          (fun acc (k, v) ->
            match acc with
            | Some _ -> acc
            | None -> json_diff (path ^ "." ^ k) v (List.assoc k ys))
          None xs
  | Json.List xs, Json.List ys ->
      if List.length xs <> List.length ys then
        Some
          (Printf.sprintf "%s: %d vs %d elements" path (List.length xs) (List.length ys))
      else
        List.fold_left
          (fun acc (i, (x, y)) ->
            match acc with
            | Some _ -> acc
            | None -> json_diff (Printf.sprintf "%s[%d]" path i) x y)
          None
          (List.mapi (fun i p -> (i, p)) (List.combine xs ys))
  | x, y -> if x = y then None else Some (Printf.sprintf "%s: %s vs %s" path (Json.to_string x) (Json.to_string y))

let test_perfetto_golden () =
  let got = Obs.Perfetto.to_json (golden_stream ()) in
  match Sys.getenv_opt "STALLHIDE_BLESS" with
  | Some path when path <> "" -> Json.write ~path got
  | _ -> (
      (* dune runtest runs in test/; dune exec from the project root *)
      let golden_path =
        if Sys.file_exists "golden/perfetto_small.json" then "golden/perfetto_small.json"
        else "test/golden/perfetto_small.json"
      in
      let ic = open_in golden_path in
      let want = Json.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      match json_diff "$" want got with
      | None -> ()
      | Some d -> Alcotest.fail ("exporter output diverges from golden file at " ^ d))

(* --- Prometheus text exposition: round-trips against the registry --- *)

let test_prometheus_roundtrip () =
  let opts, s = with_obs () in
  let m = Baselines.run_round_robin ~opts (chase ()) in
  let r = Obs.Stream.registry s in
  (* the transaction engine's counters ride the same registry *)
  let txn =
    Stallhide_txn.Runner.(
      run Seq { default_params with inflight = 2; txns = 4; keys = 256 })
  in
  Stallhide_txn.Runner.counters_into r txn;
  let text = Obs.Registry.to_prometheus r in
  let samples =
    List.filter_map
      (fun line ->
        if line = "" || line.[0] = '#' then None
        else
          match String.rindex_opt line ' ' with
          | Some i ->
              Some
                ( String.sub line 0 i,
                  int_of_string (String.sub line (i + 1) (String.length line - i - 1)) )
          | None -> None)
      (String.split_on_char '\n' text)
  in
  let sum_of prefix =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k >= String.length prefix && String.sub k 0 (String.length prefix) = prefix
        then acc + v
        else acc)
      0 samples
  in
  (* counters: the per-ctx label sum equals the registry total *)
  Alcotest.(check int) "stall.cycles counter round-trips" m.Metrics.stall
    (sum_of "stallhide_stall_cycles{");
  Alcotest.(check bool) "counter TYPE line present" true
    (List.exists
       (fun l -> l = "# TYPE stallhide_stall_cycles counter")
       (String.split_on_char '\n' text));
  Alcotest.(check int) "txn.commits counter round-trips"
    txn.Stallhide_txn.Runner.counters.Stallhide_txn.Runner.commits
    (sum_of "stallhide_txn_commits{");
  Alcotest.(check int) "txn.group_prefetch_hits counter round-trips"
    txn.Stallhide_txn.Runner.counters.Stallhide_txn.Runner.group_prefetch_hits
    (sum_of "stallhide_txn_group_prefetch_hits{");
  (* histograms: _count, _sum and the +Inf bucket match the merged view *)
  let h = Option.get (Obs.Registry.merged r "dispatch.cycles") in
  Alcotest.(check (option int))
    "_count matches" (Some (Obs.Registry.hist_count h))
    (List.assoc_opt "stallhide_dispatch_cycles_count" samples);
  Alcotest.(check (option int))
    "_sum matches" (Some (Obs.Registry.hist_sum h))
    (List.assoc_opt "stallhide_dispatch_cycles_sum" samples);
  Alcotest.(check (option int))
    "+Inf bucket = count" (Some (Obs.Registry.hist_count h))
    (List.assoc_opt "stallhide_dispatch_cycles_bucket{le=\"+Inf\"}" samples);
  (* bucket series is cumulative: non-decreasing in le order *)
  let buckets =
    List.filter_map
      (fun (k, v) ->
        let p = "stallhide_dispatch_cycles_bucket{le=\"" in
        if String.length k > String.length p && String.sub k 0 (String.length p) = p then Some v
        else None)
      samples
  in
  Alcotest.(check bool) "buckets cumulative" true
    (fst
       (List.fold_left (fun (ok, prev) v -> (ok && v >= prev, v)) (true, 0) buckets))

(* --- Span pairing: nesting, unbalanced opens/closes, cross-core --- *)

let test_span_pairing () =
  let open Obs.Event in
  (* a merged multi-core timeline, deliberately out of order: ctx 1's
     span opens on one core and closes on another (steal); ctx 2 never
     closes (unbalanced open); ctx 3 closes without opening *)
  let events =
    [
      Span_close { ctx = 1; name = "request"; cycle = 30 };
      Span_open { ctx = 1; name = "request"; cycle = 5 };
      Span_open { ctx = 2; name = "request"; cycle = 6 };
      Span_open { ctx = 1; name = "request"; cycle = 40 };
      Span_close { ctx = 1; name = "request"; cycle = 55 };
      Span_close { ctx = 3; name = "request"; cycle = 60 };
    ]
  in
  let pairs = Obs.Critical_path.pair_spans events in
  let expect =
    [ (1, "request", 5, Some 30); (2, "request", 6, None); (1, "request", 40, Some 55) ]
  in
  Alcotest.(check bool) "pairs (unmatched close dropped, unclosed open = None)" true
    (pairs = expect);
  (* concurrent same-key opens close FIFO *)
  let fifo =
    Obs.Critical_path.pair_spans
      [
        Span_open { ctx = 9; name = "s"; cycle = 1 };
        Span_open { ctx = 9; name = "s"; cycle = 2 };
        Span_close { ctx = 9; name = "s"; cycle = 10 };
      ]
  in
  Alcotest.(check bool) "FIFO close" true (fifo = [ (9, "s", 1, Some 10); (9, "s", 2, None) ])

(* --- Sweep / causal drivers on synthetic closures --- *)

let synth v =
  { Obs.Sweep.count = 1; mean = float_of_int v; p50 = v; p90 = v; p99 = v; p999 = v; max = v }

let test_sweep_stats () =
  let r =
    Obs.Sweep.run ~seeds:[ 1; 2; 3 ]
      ~base:(fun seed -> synth (100 + seed))
      ~knobs:[ ("k", "perturb", fun seed -> synth (150 + seed)) ]
  in
  let row = List.hd r.Obs.Sweep.rows in
  let d = Obs.Sweep.series_value Obs.Sweep.P99 row.Obs.Sweep.delta in
  (* paired differences are a constant +50, so the CI collapses to 0
     even though both arms vary with the seed *)
  Alcotest.(check (float 1e-9)) "paired delta" 50.0 d.Obs.Sweep.value;
  Alcotest.(check (float 1e-9)) "paired ci" 0.0 d.Obs.Sweep.ci95;
  let b = Obs.Sweep.series_value Obs.Sweep.Mean r.Obs.Sweep.base in
  Alcotest.(check (float 1e-9)) "base mean" 102.0 b.Obs.Sweep.value;
  Alcotest.(check (float 1e-3)) "base ci (sd 1, n 3)" (1.96 /. sqrt 3.0) b.Obs.Sweep.ci95

let test_causal_ranking () =
  let t id kind = { Obs.Causal.id; kind; detail = "" } in
  let r =
    Obs.Causal.run ~seeds:[ 7 ]
      ~base:(fun _ -> synth 100)
      ~targets:
        [
          (t "level:L3" Obs.Causal.Resource, fun _ -> synth 90);
          (t "level:DRAM" Obs.Causal.Resource, fun _ -> synth 40);
          (t "site:3" Obs.Causal.Site, fun _ -> synth 95);
        ]
  in
  Alcotest.(check (option int)) "DRAM #1 among resources" (Some 1)
    (Obs.Causal.rank_of Obs.Sweep.P99 r ~id:"level:DRAM");
  Alcotest.(check (option int)) "L3 #2 among resources" (Some 2)
    (Obs.Causal.rank_of Obs.Sweep.P99 r ~id:"level:L3");
  Alcotest.(check (option int)) "site ranks within its own kind" (Some 1)
    (Obs.Causal.rank_of Obs.Sweep.P99 r ~id:"site:3");
  Alcotest.(check (option int)) "unknown id" None
    (Obs.Causal.rank_of Obs.Sweep.P99 r ~id:"level:L1");
  let dram =
    List.find (fun (c : Obs.Causal.contribution) -> c.Obs.Causal.target.Obs.Causal.id = "level:DRAM")
      r.Obs.Causal.rows
  in
  Alcotest.(check (float 1e-9)) "share of base" 0.6 (Obs.Causal.share Obs.Sweep.P99 r dram)

let () =
  Alcotest.run "obs"
    [
      ( "zero-overhead",
        [
          Alcotest.test_case "sequential" `Quick test_zero_overhead_sequential;
          Alcotest.test_case "round-robin" `Quick test_zero_overhead_round_robin;
          Alcotest.test_case "dual-mode" `Quick test_zero_overhead_dual;
        ] );
      ("registry", [ Alcotest.test_case "stream feeds registry" `Quick test_registry_counts ]);
      ("perfetto", [ Alcotest.test_case "round-trip + monotone" `Quick test_trace_json_roundtrip ]);
      ("golden", [ Alcotest.test_case "perfetto exporter" `Quick test_perfetto_golden ]);
      ("attribution", [ Alcotest.test_case "invariants" `Quick test_attribution_invariants ]);
      ("stream", [ Alcotest.test_case "drop accounting" `Quick test_stream_drop_accounting ]);
      ("prometheus", [ Alcotest.test_case "text exposition round-trip" `Quick test_prometheus_roundtrip ]);
      ("spans", [ Alcotest.test_case "pairing + nesting" `Quick test_span_pairing ]);
      ( "causal-drivers",
        [
          Alcotest.test_case "sweep stats" `Quick test_sweep_stats;
          Alcotest.test_case "causal ranking" `Quick test_causal_ranking;
        ] );
    ]
