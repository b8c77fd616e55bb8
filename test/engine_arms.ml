(* The arms and workloads the engine-diff wall shares between its
   executables ([test_engine_diff] and the two halves of the
   [Baselines] runners' case, [test_baselines_diff_a] and
   [test_baselines_diff_b]): every case runs in up to four arms, each
   interpreter traced and untraced, and checks each arm against the
   untraced reference arm and the two traced streams against each
   other. *)

open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_workloads
module Stream = Stallhide_obs.Stream

let memcfg = Memconfig.default

let fast_engine = Engine.default_config

(* The nine workloads, fresh per arm (runs mutate the image), on their
   own image unless given one to share. *)
type maker = ?image:Address_space.t -> int -> Workload.t

let makers : (string * maker) list =
  [
    ("pointer-chase", fun ?image seed -> Pointer_chase.make ?image ~seed ());
    ("hash-probe", fun ?image seed -> Hash_probe.make ?image ~seed ());
    ("array-scan", fun ?image seed -> Array_scan.make ?image ~seed ());
    ("btree", fun ?image seed -> Btree.make ?image ~seed ());
    ("graph-bfs", fun ?image seed -> Graph_bfs.make ?image ~seed ());
    ("group-by", fun ?image seed -> Group_by.make ?image ~seed ());
    ("hash-join", fun ?image seed -> Hash_join.make ?image ~seed ());
    ("kv-server", fun ?image seed -> Kv_server.make ?image ~seed ());
    ("offload", fun ?image seed -> Offload.make ?image ~seed ());
  ]

(* A maker with its seed fixed. *)
type fixed_maker = ?image:Address_space.t -> unit -> Workload.t

(* The hand-instrumented (manual) variants, which exercise the yield
   opcodes on the fast path. *)
let manual_makers : (string * fixed_maker) list =
  [
    ("pointer-chase", fun ?image () -> Pointer_chase.make ?image ~manual:true ~seed:42 ());
    ("hash-probe", fun ?image () -> Hash_probe.make ?image ~manual:true ~seed:42 ());
    ("group-by", fun ?image () -> Group_by.make ?image ~manual:true ~seed:42 ());
    ("kv-server", fun ?image () -> Kv_server.make ?image ~manual:true ~seed:42 ());
    ("offload", fun ?image () -> Offload.make ?image ~manual:true ~seed:42 ());
  ]

(* --- the four arms --- *)

type arm = { fast : bool; traced : bool }

(* The untraced reference arm first: every other arm is checked
   against it. *)
let arms =
  [
    { fast = false; traced = false };
    { fast = true; traced = false };
    { fast = false; traced = true };
    { fast = true; traced = true };
  ]

let arm_name a =
  Printf.sprintf "%s%s" (if a.fast then "µop loop" else "reference")
    (if a.traced then ", traced" else "")

(* [base] with the arm's loop, and when traced a stream on a fresh
   probe. *)
let arm_engine ?(base = Engine.default_config) a =
  let engine = { base with Engine.fast = a.fast } in
  if not a.traced then (None, engine)
  else begin
    let stream = Stream.create () in
    let probe = Probe.create () in
    Stream.attach stream probe;
    (Some stream, { engine with Engine.probe = Some probe })
  end

(* The two traced streams must agree event for event, and on what they
   dropped and counted. *)
let check_streams label (a : Stream.t) (b : Stream.t) =
  let rec first i xs ys =
    match (xs, ys) with
    | x :: xs, y :: ys ->
        if x <> y then
          Alcotest.failf "%s: event %d: %s vs %s" label i
            (Format.asprintf "%a" Stallhide_obs.Event.pp x)
            (Format.asprintf "%a" Stallhide_obs.Event.pp y)
        else first (i + 1) xs ys
    | [], [] -> ()
    | _ -> Alcotest.failf "%s: %d vs %d events" label (Stream.length a) (Stream.length b)
  in
  first 0 (Stream.events a) (Stream.events b);
  Alcotest.(check int) (label ^ ": dropped") (Stream.dropped a) (Stream.dropped b);
  Alcotest.(check string)
    (label ^ ": registry")
    (Stallhide_util.Json.to_string (Stallhide_obs.Registry.to_json (Stream.registry a)))
    (Stallhide_util.Json.to_string (Stallhide_obs.Registry.to_json (Stream.registry b)))

(* Events the traced arms compared, so a test can tell that it traced
   something. *)
let traced_events = ref 0

let expect_traced label f =
  let before = !traced_events in
  f ();
  if !traced_events = before then Alcotest.failf "%s: nothing traced" label

(* Run [run] in every arm of [arms] (default: all four); check each
   against the first with [same] and two traced arms' streams against
   each other. [run] returns its result and the stream it traced into,
   if any. *)
let four_arms ?(arms = arms) label ~run ~same =
  let results = List.map (fun a -> (a, run a)) arms in
  match results with
  | (_, (first, _)) :: rest ->
      List.iter (fun (a, (r, _)) -> same (label ^ " [" ^ arm_name a ^ "]") first r) rest;
      (match List.filter_map (fun (_, (_, s)) -> s) results with
      | [ reference; fast ] ->
          traced_events := !traced_events + Stream.length reference;
          check_streams (label ^ ": traced streams") reference fast
      | [] | [ _ ] -> ()
      | _ -> assert false);
      first
  | [] -> assert false

let check_mem_stats label (a : Mem_stats.t) (b : Mem_stats.t) =
  let f name g = Alcotest.(check int) (label ^ ": " ^ name) (g a) (g b) in
  f "demand_accesses" (fun s -> s.Mem_stats.demand_accesses);
  f "l1_hits" (fun s -> s.Mem_stats.l1_hits);
  f "l2_hits" (fun s -> s.Mem_stats.l2_hits);
  f "l3_hits" (fun s -> s.Mem_stats.l3_hits);
  f "dram_accesses" (fun s -> s.Mem_stats.dram_accesses);
  f "prefetches" (fun s -> s.Mem_stats.prefetches);
  f "useless_prefetches" (fun s -> s.Mem_stats.useless_prefetches)

(* --- the [Baselines] runners: they attach a latency recorder as the
   opmark observer, and a traced arm sets [obs]. Every figure they
   report, down to the last bit of the latency mean and stddev, must
   match the untraced reference arm. --- *)

let metrics = Alcotest.testable Stallhide.Metrics.pp ( = )

let latency = Alcotest.(option (testable Latency.pp_summary ( = )))

let baselines_opts a =
  let obs = if a.traced then Some (Stream.create ()) else None in
  ( { Stallhide.Baselines.default_opts with
      Stallhide.Baselines.engine = { Engine.default_config with Engine.fast = a.fast };
      obs },
    obs )

let diff_baselines label ~(make : fixed_maker) =
  let module B = Stallhide.Baselines in
  let metrics_of ?arms name run =
    ignore
      (four_arms ?arms (label ^ ": " ^ name)
         ~same:(fun l r f -> Alcotest.check metrics l r f)
         ~run:(fun a ->
           let opts, obs = baselines_opts a in
           (run opts, obs)))
  in
  metrics_of "run_sequential" (fun opts -> B.run_sequential ~opts (make ()));
  metrics_of "run_ooo" (fun opts -> B.run_ooo ~opts ~window:48 (make ()));
  (* SMT steps through [Engine.step] whatever [fast] says *)
  metrics_of ~arms:(List.filter (fun a -> not a.fast) arms) "run_smt" (fun opts ->
      B.run_smt ~opts (make ()));
  metrics_of "run_round_robin" (fun opts -> B.run_round_robin ~opts (make ()));
  (* dual mode: the workload's lanes scavenge behind one kv-server
     primary lane on a shared image *)
  ignore
    (four_arms (label ^ ": run_dual")
       ~same:(fun l r f ->
         Alcotest.check metrics l r.B.metrics f.B.metrics;
         Alcotest.check latency (l ^ " primary latency") r.B.primary_latency f.B.primary_latency;
         Alcotest.(check int)
           (l ^ " scavenger switches")
           r.B.stats.Core_sched.scav_dispatches f.B.stats.Core_sched.scav_dispatches)
       ~run:(fun a ->
         let opts, obs = baselines_opts a in
         let image = Address_space.create ~bytes:(1 lsl 24) in
         let primary = Kv_server.make ~image ~requests:200 ~seed:42 () in
         (B.run_dual ~opts ~primary ~scavengers:(make ~image ()) (), obs)));
  (* attribution reads the probe's tallies, so every arm runs it; a
     traced arm traces the measured run *)
  ignore
    (four_arms (label ^ ": run_pgo_attributed")
       ~same:(fun l r f ->
         Alcotest.check metrics l r.B.pgo_metrics f.B.pgo_metrics;
         Alcotest.(check string)
           (l ^ " attribution")
           (Stallhide_util.Json.to_string (Stallhide.Attribution.to_json r.B.attribution))
           (Stallhide_util.Json.to_string (Stallhide.Attribution.to_json f.B.attribution)))
       ~run:(fun a ->
         let opts, obs = baselines_opts a in
         (B.run_pgo_attributed ~opts (make ()), obs)))

(* The [Baselines] runners' workloads: the nine, then the manual
   variants. *)
let baselines_workloads : (string * fixed_maker) list =
  List.map (fun (name, (make : maker)) -> (name, fun ?image () -> make ?image 42)) makers
  @ List.map (fun (name, mk) -> (name ^ "/manual", mk)) manual_makers

(* The case runs in two executables of about equal cost: array-scan
   and btree take half of its time. *)
let heavy (name, _) = name = "array-scan" || name = "btree"

(* The [Baselines] runners' case over [workloads]. *)
let baselines_case workloads =
  Alcotest.test_case "Baselines runners (+manual variants)" `Quick (fun () ->
      expect_traced "Baselines" (fun () ->
          List.iter (fun (name, make) -> diff_baselines name ~make) workloads))
