(* The benchmark driver: runs one workload for a fixed host time and
   prints its metrics as one JSON line. See README.md.

     main.exe --workload smp-kv --seed 1 --seconds 10 --trace 0

   With [--trace 0] it repeats untraced passes and reports the
   end-to-end metrics (medians over passes). With [--trace 1] it
   alternates untraced and traced passes and reports the per-layer
   metrics; the traced passes record spans around every layer call. *)

module Json = Stallhide_util.Json

type workload = {
  name : string;
  untraced : seed:int -> size:Pass.size -> Pass.t;
  traced : seed:int -> size:Pass.size -> Pass.t;
}

let workloads =
  [
    { name = "smp-kv"; untraced = Serving.smp_untraced; traced = Serving.smp_traced };
    { name = "cluster-kv"; untraced = Serving.cluster_untraced; traced = Serving.cluster_traced };
    { name = "pgo-single"; untraced = Pgo_single.untraced; traced = Pgo_single.traced };
    { name = "fuzz-oracles"; untraced = Fuzz_oracles.run; traced = Fuzz_oracles.run };
  ]

let end_to_end = [ ("ops_per_s", "1/s"); ("setup_s", "s"); ("heap_peak_mb", "MB") ]

(* Every per-layer metric, in BENCHMARK.json order. A workload that
   bypasses a layer reports 0 for it. *)
let per_layer =
  [
    ("gen.self_ms", "ms");
    ("pmu.profile_ms", "ms");
    ("pmu.samples", "count");
    ("pmu.ns_per_instr", "ns");
    ("binopt.instrument_ms", "ms");
    ("binopt.yield_sites", "count");
    ("verify.validate_ms", "ms");
    ("verify.diagnostics", "count");
    ("analysis.run_ms", "ms");
    ("sched.ns_per_instr", "ns");
    ("engine.fast_ns_per_instr", "ns");
    ("engine.hook_overhead_ratio", "ratio");
    ("machine.self_ms", "ms");
    ("machine.steps", "count");
    ("machine.step_ns_p50", "ns");
    ("machine.step_ns_p99", "ns");
    ("machine.ns_per_slice", "ns");
    ("machine.minor_words_per_slice", "words");
    ("core_sched.slices", "count");
    ("core_sched.switches", "count");
    ("core_sched.steals", "count");
    ("core_sched.escalations", "count");
    ("mem.demand_accesses", "count");
    ("mem.l1_hit_ratio", "ratio");
    ("mem.dram_accesses", "count");
    ("mem.useless_prefetch_ratio", "ratio");
    ("l3.admitted", "count");
    ("l3.queue_cycles", "cycles");
    ("l3.invalidations", "count");
    ("obs.trace_cost_ratio", "ratio");
    ("cluster.run_ms", "ms");
    ("cluster.node_build_ms", "ms");
    ("cluster.des_residual_share", "ratio");
    ("check.gen_ms", "ms");
  ]
  @ List.map (fun o -> (Fuzz_oracles.oracle_layer o ^ "_ms", "ms")) Fuzz_oracles.Oracle.all
  @ [
      ("gc.minor_words_per_op", "words");
      ("gc.major_collections", "count");
      ("model.req_per_kcycle", "1/kcycle");
      ("model.p99_cycles", "cycles");
      ("model.pgo_speedup", "ratio");
      ("model.static_speedup", "ratio");
      ("trace.uncovered_share", "ratio");
      ("trace.overhead_ratio", "ratio");
      ("trace.dropped_spans", "count");
    ]

(* Layer metrics every traced pass yields from its span totals. *)
let span_layers () =
  let ms l = Span.self_s l *. 1e3 in
  [
    ("gen.self_ms", ms "gen");
    ("pmu.profile_ms", ms "pmu");
    ("binopt.instrument_ms", ms "binopt");
    ("verify.validate_ms", ms "verify");
    ("analysis.run_ms", ms "analysis");
    ("machine.self_ms", Span.self_s_prefix "machine." *. 1e3);
    ("cluster.run_ms", ms "cluster");
    ("trace.uncovered_share", Span.self_s "pass" /. Span.total_s "pass");
  ]

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable size : Pass.size;
  mutable spans_out : string option;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload smp-kv|cluster-kv|pgo-single|fuzz-oracles --seed N --seconds S \
     --trace 0|1 [--size full|tiny|c25] [--spans-out FILE]";
  exit 2

let parse_args () =
  let a =
    { workload = ""; seed = 1; seconds = 10.0; trace = false; size = Pass.Full; spans_out = None }
  in
  let rec go = function
    | "--workload" :: v :: rest ->
        a.workload <- v;
        go rest
    | "--seed" :: v :: rest ->
        a.seed <- int_of_string v;
        go rest
    | "--seconds" :: v :: rest ->
        a.seconds <- float_of_string v;
        go rest
    | "--trace" :: v :: rest ->
        a.trace <- v = "1";
        go rest
    | "--size" :: v :: rest ->
        (a.size <-
           match v with
           | "full" -> Pass.Full
           | "tiny" -> Pass.Tiny
           | "c25" -> Pass.C25
           | _ -> usage ());
        go rest
    | "--spans-out" :: v :: rest ->
        a.spans_out <- Some v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  a

let () =
  let a = parse_args () in
  let w =
    match List.find_opt (fun w -> w.name = a.workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  let fingerprint = ref None and table = ref [] in
  let note (p : Pass.t) =
    attempted := !attempted + p.Pass.ops;
    failed := !failed + p.Pass.failed;
    failures := !failures @ p.Pass.failures;
    match !fingerprint with
    | None ->
        fingerprint := Some p.Pass.fingerprint;
        table := p.Pass.table
    | Some f when f = p.Pass.fingerprint -> ()
    | Some _ ->
        incr failed;
        failures := !failures @ [ "fingerprint differs between passes of one run" ]
  in
  (* A pass that raises counts as one failed operation and ends the run. *)
  let guarded f =
    match f () with
    | p -> Some p
    | exception e ->
        incr attempted;
        incr failed;
        failures := !failures @ [ "exception: " ^ Printexc.to_string e ];
        None
  in
  let untraced_wall = ref [] and untraced = ref [] and traced = ref [] in
  let gc_minor = ref [] and gc_major = ref [] in
  (* Every pass starts from a compacted heap, so the passes of one run
     are alike and the heap peak is that of a single pass. *)
  let run_untraced () =
    Gc.compact ();
    let m0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
    match guarded (fun () -> w.untraced ~seed:a.seed ~size:a.size) with
    | None -> false
    | Some p ->
        Printf.eprintf "pass %d: %.6g work/s, setup %.6g s, wall %.6g s\n%!"
          (List.length !untraced + 1)
          (float_of_int p.Pass.work /. Pass.sum p.Pass.work_s)
          (Pass.sum p.Pass.setup_s) p.Pass.wall_s;
        untraced_wall := p.Pass.wall_s :: !untraced_wall;
        gc_minor := ((Gc.minor_words () -. m0) /. float_of_int (max 1 p.Pass.ops)) :: !gc_minor;
        gc_major := float_of_int ((Gc.quick_stat ()).Gc.major_collections - c0) :: !gc_major;
        note p;
        untraced := p :: !untraced;
        true
  in
  let run_traced () =
    Gc.compact ();
    Span.reset_totals ();
    Span.enabled := true;
    let r = guarded (fun () -> w.traced ~seed:a.seed ~size:a.size) in
    Span.enabled := false;
    match r with
    | None -> false
    | Some p ->
        note p;
        traced := (p.Pass.wall_s, p.Pass.layers @ span_layers ()) :: !traced;
        true
  in
  let t0 = Span.now_ns () in
  let continue_ () = Pass.seconds_since t0 < a.seconds in
  let ok = ref true in
  ok := run_untraced ();
  if a.trace && !ok then ok := run_traced ();
  while !ok && continue_ () do
    ok := run_untraced ();
    if a.trace && !ok then ok := run_traced ()
  done;
  (* The first pass warms the heap up: it counts for correctness but
     not for the timings, unless it is the only one. *)
  let timed l = match List.rev l with _ :: (_ :: _ as rest) -> rest | l -> l in
  let untraced = ref (timed !untraced) and untraced_wall = ref (timed !untraced_wall) in
  let med f l = Pass.median (List.map f l) in
  let metrics =
    if not a.trace then
      let top = float_of_int (Gc.quick_stat ()).Gc.top_heap_words in
      (* Host contention only ever slows these deterministic
         computations, and it comes in bursts: each timed unit's best
         time over the passes estimates its uncontended cost, where a
         median would follow the neighbours' load. *)
      let best f =
        match !untraced with
        | [] -> 0.0
        | p0 :: rest ->
            let m = Array.copy (f p0) in
            List.iter (fun p -> Array.iteri (fun i x -> m.(i) <- Float.min m.(i) x) (f p)) rest;
            Pass.sum m
      in
      let work = match !untraced with p :: _ -> float_of_int p.Pass.work | [] -> 0.0 in
      [
        ("ops_per_s", work /. best (fun p -> p.Pass.work_s));
        ("setup_s", best (fun p -> p.Pass.setup_s));
        ("heap_peak_mb", top *. float_of_int (Sys.word_size / 8) /. 1048576.0);
      ]
    else
      let layer name =
        match name with
        | "gc.minor_words_per_op" -> Pass.median !gc_minor
        | "gc.major_collections" -> Pass.median !gc_major
        | "trace.overhead_ratio" -> med fst !traced /. Pass.median !untraced_wall
        | "trace.dropped_spans" -> float_of_int !Span.dropped
        | _ -> med (fun (_, l) -> Option.value ~default:0.0 (List.assoc_opt name l)) !traced
      in
      List.map (fun (name, _) -> (name, layer name)) per_layer
  in
  let units = if a.trace then per_layer else end_to_end in
  (match a.spans_out with Some path when a.trace -> Span.write ~path | _ -> ());
  List.iter print_endline !table;
  let num x = if Float.is_finite x then Json.Float x else Json.Float 0.0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0 && !attempted > 0));
            ("attempted", Json.Int (max 1 !attempted));
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v) ->
                     let unit = Json.String (List.assoc name units) in
                     (name, Json.Obj [ ("value", num v); ("unit", unit) ]))
                   metrics) );
            ( "fingerprint",
              Json.Obj
                (List.map
                   (fun (k, v) -> (k, Json.Int v))
                   (Option.value ~default:[] !fingerprint)) );
            ("failures", Json.List (List.map (fun s -> Json.String s) !failures));
            ("passes", Json.Int (List.length !untraced + List.length !traced));
          ]))
