open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_sched
open Stallhide_smp

let cfg = Memconfig.default

(* --- Shared L3: bandwidth admission --- *)

let test_l3_admission () =
  let l3 = Shared_l3.create ~window:32 ~budget:2 cfg in
  let delays = List.init 5 (fun _ -> Shared_l3.admit l3 ~now:0) in
  Alcotest.(check (list int)) "windowed queueing" [ 0; 0; 32; 32; 64 ] delays;
  let s = Shared_l3.stats l3 in
  Alcotest.(check int) "admitted" 5 s.Shared_l3.admitted;
  Alcotest.(check int) "queued" 3 s.Shared_l3.queued;
  Alcotest.(check int) "queue cycles" 128 s.Shared_l3.queue_cycles;
  (* a later window has fresh budget *)
  Alcotest.(check int) "fresh window" 0 (Shared_l3.admit l3 ~now:100)

let test_l3_unlimited () =
  let l3 = Shared_l3.create ~budget:0 cfg in
  for _ = 1 to 100 do
    Alcotest.(check int) "no contention" 0 (Shared_l3.admit l3 ~now:0)
  done

(* The admission table as it was before it became a flat array: a
   Hashtbl of per-window counts, searched forward from [now]'s window. *)
module Admission_model = struct
  type t = {
    win : int;
    bud : int;
    used : (int, int) Hashtbl.t;
    mutable admitted : int;
    mutable queued : int;
    mutable queue_cycles : int;
  }

  let create ~window ~budget =
    { win = window; bud = budget; used = Hashtbl.create 16; admitted = 0; queued = 0; queue_cycles = 0 }

  let rec place m w =
    let u = Option.value ~default:0 (Hashtbl.find_opt m.used w) in
    if u < m.bud then begin
      Hashtbl.replace m.used w (u + 1);
      w
    end
    else place m (w + 1)

  let admit m ~now =
    m.admitted <- m.admitted + 1;
    if m.bud <= 0 then 0
    else
      let w0 = now / m.win in
      let w = place m w0 in
      if w = w0 then 0
      else begin
        let delay = (w * m.win) - now in
        m.queued <- m.queued + 1;
        m.queue_cycles <- m.queue_cycles + delay;
        delay
      end
end

(* A call sequence for [admit]: small steps either way (cores' clocks
   interleave out of order), bursts at one cycle past the budget, and
   jumps that force the table to grow, downwards too. *)
type admission_op = Step of int | Burst of int | Jump of int

let show_admission_op = function
  | Step d -> Printf.sprintf "step %d" d
  | Burst k -> Printf.sprintf "burst %d" k
  | Jump d -> Printf.sprintf "jump %d" d

let admission_case =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun d -> Step d) (int_range (-300) 300));
        (2, map (fun k -> Burst k) (int_range 2 40));
        (1, map (fun d -> Jump d) (int_range (-5_000) 20_000));
      ]
  in
  QCheck.make
    ~print:(fun (budget, window, start, ops) ->
      Printf.sprintf "budget %d, window %d, start %d: %s" budget window start
        (String.concat "; " (List.map show_admission_op ops)))
    (quad (oneofl [ 0; 1; 2; 16 ]) (oneofl [ 1; 32 ]) (int_range 0 1_000_000)
       (list_size (int_range 1 200) op))

let qcheck_admission_model =
  QCheck.Test.make ~name:"admission table matches the Hashtbl model" ~count:300 admission_case
    (fun (budget, window, start, ops) ->
      let l3 = Shared_l3.create ~window ~budget cfg in
      let m = Admission_model.create ~window ~budget in
      let now = ref start in
      let agree () =
        let got = Shared_l3.admit l3 ~now:!now and want = Admission_model.admit m ~now:!now in
        got = want || QCheck.Test.fail_reportf "now %d: delay %d, model %d" !now got want
      in
      let ok =
        List.for_all
          (function
            | Step d | Jump d ->
                now := max 0 (!now + d);
                agree ()
            | Burst k -> List.for_all agree (List.init k (fun _ -> ())))
          ops
      in
      let s = Shared_l3.stats l3 in
      ok
      && (s.Shared_l3.admitted, s.Shared_l3.queued, s.Shared_l3.queue_cycles)
         = (m.Admission_model.admitted, m.Admission_model.queued, m.Admission_model.queue_cycles))

(* --- Shared L3: cross-core invalidation through Hierarchy --- *)

let test_l3_invalidation () =
  let l3 = Shared_l3.create ~budget:0 cfg in
  let h0 = Hierarchy.create_core cfg ~shared:l3 in
  let h1 = Hierarchy.create_core cfg ~shared:l3 in
  Alcotest.(check int) "two cores attached" 2 (Shared_l3.cores l3);
  let addr = 4096 in
  (* the level that served a demand load *)
  let level h ~now addr =
    ignore (Hierarchy.access_latency h ~now addr);
    Hierarchy.level_of_code (Hierarchy.last_level h)
  in
  (* core 0 reads the line into its private L1/L2 *)
  ignore (Hierarchy.access_latency h0 ~now:0 addr);
  Alcotest.(check bool) "core 0 has it private" true (level h0 ~now:1000 addr = Hierarchy.L1);
  (* remote write kills core 0's private copies, not the L3 copy *)
  Hierarchy.write h1 addr;
  let s = Shared_l3.stats l3 in
  Alcotest.(check int) "one write" 1 s.Shared_l3.writes;
  Alcotest.(check int) "l1+l2 invalidated" 2 s.Shared_l3.invalidations;
  Alcotest.(check bool) "re-read served below private levels" true
    (level h0 ~now:2000 addr = Hierarchy.L3);
  (* the writer's own hierarchy is unaffected *)
  ignore (Hierarchy.access_latency h1 ~now:3000 addr);
  Hierarchy.write h1 addr;
  Alcotest.(check bool) "writer keeps its line" true (level h1 ~now:5000 addr = Hierarchy.L1)

(* --- Latency.merge --- *)

let test_latency_merge () =
  let empty = Latency.merge [] in
  Alcotest.(check int) "empty count" 0 empty.Latency.count;
  let a = Latency.summary [ 10; 20; 30 ] in
  Alcotest.(check int) "singleton is identity" a.Latency.p99 (Latency.merge [ a ]).Latency.p99;
  let b = Latency.summary [ 40 ] in
  let m = Latency.merge [ a; b ] in
  Alcotest.(check int) "pooled count" 4 m.Latency.count;
  Alcotest.(check (float 1e-9)) "pooled mean exact" 25.0 m.Latency.mean;
  Alcotest.(check int) "max of maxes" 40 m.Latency.max;
  let expect_p50 =
    int_of_float
      (Float.round
         (float_of_int ((3 * a.Latency.p50) + (1 * b.Latency.p50)) /. 4.0))
  in
  Alcotest.(check int) "count-weighted p50" expect_p50 m.Latency.p50;
  (* summaries with count = 0 are ignored *)
  let m' = Latency.merge [ a; Latency.summary []; b ] in
  Alcotest.(check int) "zero-count summaries ignored" m.Latency.p99 m'.Latency.p99

(* identical shards: the merge is exact, not just an approximation *)
let test_latency_merge_identical () =
  let xs = List.init 100 (fun i -> i + 1) in
  let s = Latency.summary xs in
  let m = Latency.merge [ s; s; s ] in
  Alcotest.(check int) "count triples" (3 * s.Latency.count) m.Latency.count;
  Alcotest.(check (float 1e-9)) "mean unchanged" s.Latency.mean m.Latency.mean;
  Alcotest.(check (float 1e-6)) "stddev unchanged" s.Latency.stddev m.Latency.stddev;
  Alcotest.(check int) "p99 unchanged" s.Latency.p99 m.Latency.p99

(* merge [] and merge [s] pinned field by field: the empty merge is
   exactly [empty_summary] and a singleton merge is the identity — not
   just on headline percentiles but on every moment the summary carries *)
let test_latency_merge_edges () =
  let check_all label (exp : Latency.summary) (got : Latency.summary) =
    Alcotest.(check int) (label ^ " count") exp.Latency.count got.Latency.count;
    Alcotest.(check (float 1e-9)) (label ^ " mean") exp.Latency.mean got.Latency.mean;
    Alcotest.(check (float 1e-9)) (label ^ " stddev") exp.Latency.stddev got.Latency.stddev;
    Alcotest.(check int) (label ^ " p50") exp.Latency.p50 got.Latency.p50;
    Alcotest.(check int) (label ^ " p90") exp.Latency.p90 got.Latency.p90;
    Alcotest.(check int) (label ^ " p99") exp.Latency.p99 got.Latency.p99;
    Alcotest.(check int) (label ^ " p999") exp.Latency.p999 got.Latency.p999;
    Alcotest.(check int) (label ^ " max") exp.Latency.max got.Latency.max
  in
  check_all "empty merge" Latency.empty_summary (Latency.merge []);
  check_all "all-empty merge" Latency.empty_summary
    (Latency.merge [ Latency.summary []; Latency.summary [] ]);
  let s = Latency.summary [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  check_all "singleton identity" s (Latency.merge [ s ]);
  check_all "singleton + empties identity" s
    (Latency.merge [ Latency.summary []; s; Latency.summary [] ])

(* --- Dispatch --- *)

let test_dispatch_home () =
  List.iter
    (fun shards ->
      for key = 0 to 999 do
        let h = Dispatch.home ~shards key in
        Alcotest.(check bool) "home in range" true (h >= 0 && h < shards);
        Alcotest.(check int) "home stable" h (Dispatch.home ~shards key)
      done)
    [ 1; 2; 4; 7; 8 ]

let test_dispatch_choose () =
  Alcotest.(check int) "d-fcfs ignores depths" 0
    (Dispatch.choose Dispatch.D_fcfs ~home:0 ~depths:[| 5; 0; 0 |]);
  Alcotest.(check int) "jbsq takes shallowest" 1
    (Dispatch.choose Dispatch.Jbsq ~home:0 ~depths:[| 3; 1; 2 |]);
  Alcotest.(check int) "home wins ties" 1
    (Dispatch.choose Dispatch.Jbsq ~home:1 ~depths:[| 2; 2; 2 |]);
  Alcotest.(check int) "lowest index among equals" 0
    (Dispatch.choose Dispatch.Jbsq ~home:1 ~depths:[| 1; 2; 1 |]);
  Alcotest.(check (option Alcotest.reject)) "unknown policy name" None
    (Dispatch.policy_of_string "lifo");
  Alcotest.(check bool) "jbsq parses" true (Dispatch.policy_of_string "jbsq" = Some Dispatch.Jbsq)

(* --- Perfetto multi-track export --- *)

let test_perfetto_tracks () =
  let module Obs = Stallhide_obs in
  let s0 = Obs.Stream.create () and s1 = Obs.Stream.create () in
  Obs.Stream.record s0 (Obs.Event.Dispatch { ctx = 7; start = 0; stop = 10 });
  Obs.Stream.record s1 (Obs.Event.Dispatch { ctx = 8; start = 5; stop = 15 });
  match Obs.Perfetto.to_json_tracks [ ("core0", s0); ("core1", s1) ] with
  | Stallhide_util.Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Stallhide_util.Json.List events ->
          let names_by_tid = Hashtbl.create 4 in
          let tids = Hashtbl.create 4 in
          List.iter
            (fun e ->
              match e with
              | Stallhide_util.Json.Obj f -> (
                  (match List.assoc_opt "tid" f with
                  | Some (Stallhide_util.Json.Int tid) -> Hashtbl.replace tids tid ()
                  | _ -> ());
                  match (List.assoc_opt "name" f, List.assoc_opt "args" f) with
                  | Some (Stallhide_util.Json.String "thread_name"), Some (Stallhide_util.Json.Obj args)
                    -> (
                      match (List.assoc_opt "name" args, List.assoc_opt "tid" f) with
                      | Some (Stallhide_util.Json.String track), Some (Stallhide_util.Json.Int tid)
                        ->
                          Hashtbl.replace names_by_tid tid track
                      | _ -> ())
                  | _ -> ())
              | _ -> ())
            events;
          Alcotest.(check (option string)) "track 0 named" (Some "core0")
            (Hashtbl.find_opt names_by_tid 0);
          Alcotest.(check (option string)) "track 1 named" (Some "core1")
            (Hashtbl.find_opt names_by_tid 1);
          Alcotest.(check (list int)) "only two lanes" [ 0; 1 ]
            (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tids []))
      | _ -> Alcotest.fail "traceEvents is not a list")
  | _ -> Alcotest.fail "trace is not an object"

(* --- Core_sched: the stealable count --- *)

type sched_op = Add of int | Sched_step | Donate | Submit

let show_sched_op = function
  | Add k -> Printf.sprintf "add %d" k
  | Sched_step -> "step"
  | Donate -> "donate"
  | Submit -> "submit"

(* Scavengers that hide (scavenger yields) or escalate (primary
   yields), and a primary whose yields open stalls to hide. *)
let hiding = Asm.parse "mov r1, 3\nloop:\nsub r1, r1, 1\nsyield\nbr gt r1, 0, loop\nhalt"

let escalating = Asm.parse "mov r1, 2\nloop:\nsub r1, r1, 1\nyield\nbr gt r1, 0, loop\nhalt"

let primary = Asm.parse "mov r1, 2\nloop:\nsub r1, r1, 1\nyield\nbr gt r1, 0, loop\nhalt"

(* [Add k]: 0 and 1 a cold hiding or escalating scavenger, 2 one
   already started elsewhere, 3 one already done — neither stealable. *)
let qcheck_stealable =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun k -> Add k) (int_range 0 3));
          (4, return Sched_step);
          (2, return Donate);
          (1, return Submit);
        ])
  in
  QCheck.Test.make ~name:"stealable equals a scan of the core's scavengers" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_sched_op ops))
       QCheck.Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let core =
        Core_sched.create (Hierarchy.create cfg) (Address_space.create ~bytes:65536)
      in
      let placed = ref [] and ids = ref 0 in
      let fresh prog mode =
        incr ids;
        Context.create ~id:!ids ~mode prog
      in
      let cold () =
        List.length
          (List.filter (fun c -> Context.is_ready c && c.Context.started_at < 0) !placed)
      in
      List.for_all
        (fun op ->
          (match op with
          | Add k ->
              let c = fresh (if k = 1 then escalating else hiding) Context.Scavenger in
              if k = 2 then c.Context.started_at <- 0;
              if k = 3 then c.Context.status <- Context.Done;
              Core_sched.add_scavenger core c;
              placed := c :: !placed
          | Sched_step -> ignore (Core_sched.step core ~deadline:max_int)
          | Donate -> (
              let before = cold () in
              match Core_sched.donate core with
              | Some c ->
                  if not (List.memq c !placed) then
                    QCheck.Test.fail_report "donated a context the core never had";
                  placed := List.filter (fun x -> x != c) !placed
              | None -> if before > 0 then QCheck.Test.fail_report "donate refused a cold scavenger")
          | Submit -> Core_sched.submit core (fresh primary Context.Primary));
          let got = Core_sched.stealable core and want = cold () in
          got = want
          || QCheck.Test.fail_reportf "after %s: stealable %d, scan %d" (show_sched_op op) got
               want)
        ops)

(* --- Machine: determinism and stealing --- *)

let small_params =
  {
    Harness.default_params with
    Harness.cores = 4;
    requests_per_core = 12;
    scav_per_core = 3;
    scav_tuples = 60;
    interarrival = 2000;
  }

let fingerprint (r : Harness.run) =
  let res = r.Harness.result in
  ( Array.to_list
      (Array.map
         (fun (c : Machine.core_result) ->
           ( c.Machine.cycles,
             c.Machine.stats.Core_sched.dispatches,
             c.Machine.stats.Core_sched.steals,
             c.Machine.stats.Core_sched.scav_dispatches ))
         res.Machine.per_core),
    ( res.Machine.cycles,
      res.Machine.completed,
      res.Machine.steals,
      res.Machine.l3.Shared_l3.admitted,
      res.Machine.l3.Shared_l3.invalidations,
      res.Machine.summary.Latency.p99 ) )

let test_machine_determinism () =
  let a = Harness.run small_params and b = Harness.run small_params in
  Alcotest.(check bool) "bit-identical rerun" true (fingerprint a = fingerprint b);
  let c = Harness.run { small_params with Harness.seed = 43 } in
  Alcotest.(check bool) "seed actually matters" true (fingerprint a <> fingerprint c)

let test_machine_completes () =
  let r = Harness.run small_params in
  let res = r.Harness.result in
  Alcotest.(check int) "all requests served" (12 * 4) res.Machine.completed;
  Alcotest.(check int) "no faults" 0 res.Machine.faulted;
  Alcotest.(check int) "verifier-clean" 0 (r.Harness.verify_errors + r.Harness.verify_warnings)

let test_steal_correctness () =
  (* batch work is enqueued on core 0 only (scav_home_cores = 1): the
     other cores must steal to hide their primaries' stalls; the
     dispatch spans checked below are recorded only when traced *)
  let r = Harness.run { small_params with Harness.trace = true } in
  let res = r.Harness.result in
  Alcotest.(check bool) "steals happened" true (res.Machine.steals > 0);
  Alcotest.(check int) "every steal is one donation" res.Machine.steals res.Machine.donations;
  (* a scavenger — stolen or not — executes on exactly one core: its
     dispatch spans appear in exactly one core's stream *)
  let total = small_params.Harness.requests_per_core * small_params.Harness.cores in
  let cores_running = Hashtbl.create 16 in
  Array.iter
    (fun (c : Machine.core_result) ->
      Stallhide_obs.Stream.iter
        (function
          | Stallhide_obs.Event.Dispatch { ctx; _ } when ctx >= total ->
              let seen =
                match Hashtbl.find_opt cores_running ctx with Some s -> s | None -> []
              in
              if not (List.mem c.Machine.core_id seen) then
                Hashtbl.replace cores_running ctx (c.Machine.core_id :: seen)
          | _ -> ())
        c.Machine.stream)
    res.Machine.per_core;
  Alcotest.(check bool) "some scavengers ran" true (Hashtbl.length cores_running > 0);
  Hashtbl.iter
    (fun ctx cores ->
      Alcotest.(check int)
        (Printf.sprintf "scavenger %d runs on exactly one core" ctx)
        1 (List.length cores))
    cores_running;
  (* at least one scavenger ran away from home (core 0) *)
  let migrated =
    Hashtbl.fold (fun _ cores acc -> acc || List.exists (fun c -> c <> 0) cores)
      cores_running false
  in
  Alcotest.(check bool) "a stolen scavenger ran remotely" true migrated

(* an untraced machine records no per-request spans and no per-slice
   or per-instruction events: its streams hold only the steals *)
let test_untraced_streams () =
  Alcotest.(check bool) "machines are untraced by default" false
    Machine.default_config.Machine.trace;
  let r = Harness.run { small_params with Harness.trace = false } in
  let res = r.Harness.result in
  Alcotest.(check bool) "steals happened" true (res.Machine.steals > 0);
  let recorded = ref 0 in
  Array.iter
    (fun (c : Machine.core_result) ->
      Stallhide_obs.Stream.iter
        (function
          | Stallhide_obs.Event.Steal _ -> incr recorded
          | e ->
              Alcotest.failf "core %d recorded a non-steal event: %a" c.Machine.core_id
                Stallhide_obs.Event.pp e)
        c.Machine.stream)
    res.Machine.per_core;
  Alcotest.(check int) "one event per steal" res.Machine.steals !recorded

(* [Machine.core_json]: a core's id, then that core's own scheduler
   and memory stats under ascending names; [Machine.counters_json]'s
   aggregate sums each name over the cores and holds nothing else. *)
let test_counters_json () =
  let module J = Stallhide_util.Json in
  let res = (Harness.run small_params).Harness.result in
  let obj = function J.Obj kvs -> kvs | _ -> Alcotest.fail "not an object" in
  let int = function J.Int n -> n | _ -> Alcotest.fail "not an int" in
  let own (c : Machine.core_result) =
    let s = c.Machine.stats and m = c.Machine.mem in
    [
      ("cycles", c.Machine.cycles);
      ("dispatches", s.Core_sched.dispatches);
      ("scav_dispatches", s.Core_sched.scav_dispatches);
      ("switches", s.Core_sched.switches);
      ("switch_cycles", s.Core_sched.switch_cycles);
      ("steals", s.Core_sched.steals);
      ("donated", s.Core_sched.donated);
      ("escalations", s.Core_sched.escalations);
      ("completions", s.Core_sched.completions);
      ("faults", s.Core_sched.fault_count);
      ("demand_accesses", m.Mem_stats.demand_accesses);
      ("l1_hits", m.Mem_stats.l1_hits);
      ("l2_hits", m.Mem_stats.l2_hits);
      ("l3_hits", m.Mem_stats.l3_hits);
      ("dram_accesses", m.Mem_stats.dram_accesses);
      ("prefetches", m.Mem_stats.prefetches);
    ]
  in
  let names = List.sort compare (List.map fst (own res.Machine.per_core.(0))) in
  let rows = Array.map (fun c -> obj (Machine.core_json c)) res.Machine.per_core in
  Array.iteri
    (fun i (c : Machine.core_result) ->
      let row = rows.(i) in
      Alcotest.(check (list string)) (Printf.sprintf "core %d: id, then names ascending" i)
        ("core" :: names) (List.map fst row);
      Alcotest.(check int) (Printf.sprintf "core %d id" i) c.Machine.core_id
        (int (List.assoc "core" row));
      List.iter
        (fun (name, v) ->
          Alcotest.(check int) (Printf.sprintf "core %d %s" i name) v (int (List.assoc name row)))
        (own c))
    res.Machine.per_core;
  let doc = obj (Machine.counters_json res) in
  Alcotest.(check (list string)) "aggregate only" [ "aggregate" ] (List.map fst doc);
  let aggregate = obj (List.assoc "aggregate" doc) in
  Alcotest.(check (list string)) "aggregate names ascending" names (List.map fst aggregate);
  List.iter
    (fun name ->
      let sum = Array.fold_left (fun acc row -> acc + int (List.assoc name row)) 0 rows in
      Alcotest.(check int) ("aggregate " ^ name) sum (int (List.assoc name aggregate)))
    names;
  Alcotest.(check int) "aggregate steals" res.Machine.steals (int (List.assoc "steals" aggregate))

let test_no_steal_means_none () =
  let r = Harness.run { small_params with Harness.steal = false } in
  Alcotest.(check int) "no steals when disabled" 0 r.Harness.result.Machine.steals;
  Alcotest.(check int) "still serves everything" (12 * 4) r.Harness.result.Machine.completed

let test_machine_validation () =
  let mem = Address_space.create ~bytes:65536 in
  (match
     Machine.run
       ~config:{ Machine.default_config with Machine.cores = 0 }
       ~policy:Dispatch.Jbsq ~mem ~requests:[] ~scavengers:[||] ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cores = 0 accepted");
  (match
     Machine.run ~policy:Dispatch.Jbsq ~mem ~requests:[] ~scavengers:[| []; [] |] ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "scavenger arity mismatch accepted");
  (* [Machine.run] checks nothing itself: [Live.submit] refuses an
     out-of-range home and an unsorted request list *)
  let req ~rid ~home ~arrival =
    Machine.request ~rid ~key:rid ~home ~arrival
      (Context.create ~id:rid ~mode:Context.Primary primary)
  in
  let serve requests =
    ignore
      (Machine.run
         ~config:{ Machine.default_config with Machine.cores = 2 }
         ~policy:Dispatch.Jbsq ~mem ~requests ~scavengers:[| []; [] |] ())
  in
  Alcotest.check_raises "home out of range"
    (Invalid_argument "Machine: request 0's home 2 out of range (cores=2)") (fun () ->
      serve [ req ~rid:0 ~home:2 ~arrival:0 ]);
  Alcotest.check_raises "unsorted requests"
    (Invalid_argument
       "Machine: requests must be submitted in arrival order (request 1 arrives at 10, before \
        the previous submission's 20)") (fun () ->
      serve [ req ~rid:0 ~home:0 ~arrival:20; req ~rid:1 ~home:1 ~arrival:10 ]);
  (* the serving harness names a bad input before drawing any traffic *)
  Alcotest.check_raises "harness cores = 0"
    (Invalid_argument "Smp.Harness: cores must be positive (got 0)") (fun () ->
      ignore (Harness.run { small_params with Harness.cores = 0 }));
  Alcotest.check_raises "harness requests_per_core < 0"
    (Invalid_argument "Smp.Harness: requests_per_core must be >= 0 (got -1)") (fun () ->
      ignore (Harness.run { small_params with Harness.requests_per_core = -1 }));
  Alcotest.check_raises "harness interarrival < 0"
    (Invalid_argument "Smp.Harness: interarrival must be >= 0 (got -1)") (fun () ->
      ignore (Harness.live { small_params with Harness.interarrival = -1 }));
  Alcotest.check_raises "harness skew = nan"
    (Invalid_argument "Smp.Harness: skew must be finite (got nan)") (fun () ->
      ignore (Harness.run { small_params with Harness.skew = Float.nan }))

(* [node.scav]'s contract: every scavenger context the machine runs
   aggregates into lane 0's accumulators, so scavenger stores on
   different cores share lines. *)
let test_node_shared_accumulators () =
  let p = small_params in
  let node = Harness.node p ~per_shard:(Array.make p.Harness.cores 2) in
  let wl = match node.Harness.scav with Some w -> w | None -> Alcotest.fail "no scavengers" in
  let base0 = Stallhide_workloads.Group_by.acc_base wl ~lane:0 in
  let ctxs = List.concat (Array.to_list (Harness.scavengers node ~id:Fun.id)) in
  Alcotest.(check int) "one context per lane" (p.Harness.scav_per_core * p.Harness.cores)
    (List.length ctxs);
  List.iter
    (fun (c : Context.t) ->
      Alcotest.(check int) (Printf.sprintf "scavenger %d's r3" c.Context.id) base0
        c.Context.regs.{Reg.r3})
    ctxs

(* Host work per dispatch slice of an untraced machine: the µop decode
   is per program and the scheduler's hide path allocates no closures,
   so what is left is the fast loop's per-slice entry cost. *)
let test_minor_words_per_slice () =
  let live = Harness.live Harness.default_params in
  let w0 = Gc.minor_words () in
  while not (Machine.Live.quiescent live) do
    ignore (Machine.Live.step live)
  done;
  let words = Gc.minor_words () -. w0 in
  let r = Machine.Live.finish live in
  let slices =
    Array.fold_left
      (fun a (c : Machine.core_result) ->
        a + c.Machine.stats.Core_sched.dispatches + c.Machine.stats.Core_sched.scav_dispatches)
      0 r.Machine.per_core
  in
  Alcotest.(check int) "all requests served"
    (Harness.default_params.Harness.requests_per_core * Harness.default_params.Harness.cores)
    r.Machine.completed;
  let per_slice = words /. float_of_int slices in
  if per_slice > 40.0 then
    Alcotest.failf "%.1f minor words per slice over %d slices (bound 40)" per_slice slices

let () =
  Alcotest.run "smp"
    [
      ( "shared-l3",
        [
          Alcotest.test_case "windowed admission" `Quick test_l3_admission;
          Alcotest.test_case "unlimited budget" `Quick test_l3_unlimited;
          Alcotest.test_case "cross-core invalidation" `Quick test_l3_invalidation;
          QCheck_alcotest.to_alcotest ~long:false qcheck_admission_model;
        ] );
      ( "latency-merge",
        [
          Alcotest.test_case "pooled moments and percentiles" `Quick test_latency_merge;
          Alcotest.test_case "identical shards exact" `Quick test_latency_merge_identical;
          Alcotest.test_case "empty and singleton merges" `Quick test_latency_merge_edges;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "key-hash home" `Quick test_dispatch_home;
          Alcotest.test_case "policy choice" `Quick test_dispatch_choose;
        ] );
      ("perfetto", [ Alcotest.test_case "one track per core" `Quick test_perfetto_tracks ]);
      ( "machine",
        [
          Alcotest.test_case "deterministic" `Quick test_machine_determinism;
          Alcotest.test_case "serves all requests" `Quick test_machine_completes;
          Alcotest.test_case "steal correctness" `Quick test_steal_correctness;
          Alcotest.test_case "untraced streams hold only steals" `Quick test_untraced_streams;
          Alcotest.test_case "per-core counters json" `Quick test_counters_json;
          Alcotest.test_case "no-steal runs clean" `Quick test_no_steal_means_none;
          Alcotest.test_case "config validation" `Quick test_machine_validation;
          Alcotest.test_case "node scavengers share lane 0's accumulators" `Quick
            test_node_shared_accumulators;
          Alcotest.test_case "minor words per slice" `Quick test_minor_words_per_slice;
        ] );
      ("core-sched", [ QCheck_alcotest.to_alcotest ~long:false qcheck_stealable ]);
    ]
