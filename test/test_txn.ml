(* lib/txn: the CoroBase-style transaction engine. Unit tests pin the
   group-prefetch instrumentation and latch conflict ordering; the
   QCheck property checks that commutative multi-put schedules are
   order-insensitive. The end-to-end equivalence claim (interleaved ≡
   sequential replay of the committed schedule) lives in the fuzz
   oracle (lib/check, oracle [txn]). *)

open Stallhide
open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_workloads
open Stallhide_txn
module R = Runner

(* the default 8192-key table: big enough that home-slot loads miss,
   which is what makes prefetch coalescing profitable *)
let small = { R.default_params with R.inflight = 8; txns = 24; batch = 4; seed = 42 }

(* --- multi-get group prefetching --- *)

(* The plain variant's transaction loads the batch's home slots as
   adjacent independent loads; the primary pass must coalesce them into
   group prefetches (>= 1 group of >= 2 loads sharing one yield), which
   is exactly CoroBase's multi-get optimization. *)
let test_group_prefetch_coalesced () =
  let wl, _lay =
    Txn_oltp.make ~lanes:small.R.inflight ~txns:small.R.txns ~batch:small.R.batch
      ~keys:small.R.keys ~seed:small.R.seed ()
  in
  let profiled = Pipeline.profile wl in
  let _wl', inst = Pipeline.instrument profiled wl in
  let report = inst.Pipeline.primary in
  Alcotest.(check bool)
    "at least one coalesced group" true
    (report.Stallhide_binopt.Primary_pass.coalesced_groups >= 1);
  Alcotest.(check bool)
    "coalescing shares yields (fewer yields than selected loads)" true
    (report.Stallhide_binopt.Primary_pass.yield_sites
    < List.length report.Stallhide_binopt.Primary_pass.selected)

(* The group-prefetched home slots must actually cover lookups: the
   direct-hit counter is most of the traffic under a well-loaded table,
   and interleaving the prefetches beats paying every stall. *)
let test_group_prefetch_hides_stalls () =
  let seq = R.run R.Seq small in
  let pgo = R.run R.Interleaved_pgo small in
  Alcotest.(check bool)
    "group-prefetch hits recorded" true
    (pgo.R.counters.R.group_prefetch_hits > 0);
  Alcotest.(check int)
    "lookups = txns * batch" (small.R.inflight * small.R.txns * small.R.batch)
    pgo.R.counters.R.lookups;
  Alcotest.(check bool)
    "interleaved+pgo beats sequential" true
    (pgo.R.metrics.Metrics.throughput > seq.R.metrics.Metrics.throughput)

(* --- latch conflict ordering --- *)

(* A tiny key universe forces overlapping batches: conflicting
   transactions must wait (latch_waits > 0) yet all commit exactly
   once, and every latch is released by the end of the run. *)
let test_latch_conflicts () =
  let lanes = 8 and txns = 4 and batch = 4 and keys = 16 in
  let wl, lay =
    Txn_oltp.make ~manual:true ~lanes ~txns ~batch ~keys ~theta:0.95 ~seed:7 ()
  in
  let m = Baselines.run_round_robin wl in
  Alcotest.(check bool) "run completes" true (m.Metrics.cycles > 0);
  let c = R.read_counters wl.Workload.image lay in
  Alcotest.(check int) "every transaction commits exactly once" (lanes * txns) c.R.commits;
  Alcotest.(check bool) "conflicts observed" true (c.R.latch_waits > 0);
  (* all latches released: the latch word of every slot is zero *)
  let addr = ref lay.Txn_oltp.table in
  let all_released = ref true in
  while !addr < lay.Txn_oltp.table_end do
    if Address_space.load wl.Workload.image (!addr + 16) <> 0 then all_released := false;
    addr := !addr + 64
  done;
  Alcotest.(check bool) "every latch released" true !all_released

(* The sorted-order acquisition discipline makes progress even when
   skew funnels nearly every batch onto the same hot keys (keys at the
   validation floor, near-deterministic Zipf). *)
let test_hot_key_progress () =
  let lanes = 6 and txns = 2 and keys = 16 in
  let wl, lay =
    Txn_oltp.make ~manual:true ~lanes ~txns ~batch:4 ~keys ~theta:0.99 ~seed:11 ()
  in
  let (_ : Metrics.t) = Baselines.run_round_robin wl in
  let c = R.read_counters wl.Workload.image lay in
  Alcotest.(check int) "all commit under hot-key contention" (lanes * txns) c.R.commits

(* --- txn.* counters in the obs registry --- *)

let test_registry_counters () =
  let o = R.run R.Seq { small with R.txns = 4 } in
  let reg = Stallhide_obs.Registry.create () in
  R.counters_into reg o;
  Alcotest.(check int) "txn.commits total" o.R.counters.R.commits
    (Stallhide_obs.Registry.total reg "txn.commits");
  Alcotest.(check int) "txn.group_prefetch_hits total" o.R.counters.R.group_prefetch_hits
    (Stallhide_obs.Registry.total reg "txn.group_prefetch_hits")

(* --- input rules: one home, [Txn_oltp.validate] --- *)

(* [Txn_oltp.make] and [Runner.validate] refuse the same knobs with the
   same message, before a table is built; [Runner.validate ~cores] adds
   the SMP leg's core count. *)
let test_validation () =
  let refuses label msg f =
    Alcotest.check_raises label (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  List.iter
    (fun (label, p, msg) ->
      refuses (label ^ " via Txn_oltp.make") msg (fun () ->
          Txn_oltp.make ~lanes:p.R.inflight ~txns:p.R.txns ~batch:p.R.batch ~mix:p.R.mix
            ~keys:p.R.keys ~theta:p.R.theta ~seed:p.R.seed ());
      refuses (label ^ " via Runner.validate") msg (fun () -> R.validate p))
    [
      ( "keys < 4 * batch",
        { small with R.keys = 5; batch = 4 },
        "Txn_oltp: keys must be at least 4 * batch (got keys=5, batch=4)" );
      ("batch = 9", { small with R.batch = 9 }, "Txn_oltp: batch must be in 1..8 (got 9)");
      ("mix = 101", { small with R.mix = 101 }, "Txn_oltp: mix must be in 0..100 (got 101)");
      ( "theta = nan",
        { small with R.theta = Float.nan },
        "Txn_oltp: theta must be finite (got nan)" );
    ];
  refuses "cores = 0" "Txn.Runner: cores must be positive (got 0)" (fun () ->
      R.validate ~cores:0 small);
  R.validate ~cores:1 small

(* --- QCheck: commutative multi-puts are order-insensitive --- *)

(* mix=100 makes every transaction a multi-put of per-key deltas
   ((key & 63) + 1), which commute. Whatever the schedule — sequential
   in lane order, round-robin interleaved, sequential in reverse lane
   order — the final table contents must be identical. *)
let table_words (wl : Workload.t) (lay : Txn_oltp.layout) =
  let n = (lay.Txn_oltp.table_end - lay.Txn_oltp.table) / 8 in
  Array.init n (fun i -> Address_space.load wl.Workload.image (lay.Txn_oltp.table + (8 * i)))

let qcheck_multiput_order_insensitive =
  QCheck.Test.make ~name:"commutative multi-puts are order-insensitive" ~count:25
    QCheck.(triple (int_range 2 6) (int_range 2 4) (int_bound 1000))
    (fun (lanes, batch, seed) ->
      let build ~manual =
        Txn_oltp.make ~manual ~lanes ~txns:2 ~batch ~mix:100 ~keys:32 ~theta:0.9 ~seed ()
      in
      (* arm 1: plain program, lanes sequentially in order *)
      let wl_a, lay_a = build ~manual:false in
      let (_ : Metrics.t) = Baselines.run_sequential wl_a in
      let a = table_words wl_a lay_a in
      (* arm 2: manual program, round-robin interleaved *)
      let wl_b, lay_b = build ~manual:true in
      let (_ : Metrics.t) = Baselines.run_round_robin wl_b in
      let b = table_words wl_b lay_b in
      (* arm 3: plain program, lanes sequentially in reverse order *)
      let wl_c, lay_c = build ~manual:false in
      let ctxs =
        Array.init lanes (fun i ->
            let lane = lanes - 1 - i in
            Workload.context wl_c ~lane ~id:lane ~mode:Context.Primary)
      in
      let r =
        Scheduler.run_sequential
          (Hierarchy.create Memconfig.default)
          wl_c.Workload.image ctxs
      in
      let c = table_words wl_c lay_c in
      r.Scheduler.faults = [] && r.Scheduler.completed = lanes && a = b && a = c)

let () =
  Alcotest.run "txn"
    [
      ( "group-prefetch",
        [
          Alcotest.test_case "multi-get loads coalesce" `Quick test_group_prefetch_coalesced;
          Alcotest.test_case "prefetching hides stalls" `Quick test_group_prefetch_hides_stalls;
        ] );
      ( "latching",
        [
          Alcotest.test_case "conflict ordering" `Quick test_latch_conflicts;
          Alcotest.test_case "hot-key progress" `Quick test_hot_key_progress;
        ] );
      ("registry", [ Alcotest.test_case "txn.* counters" `Quick test_registry_counters ]);
      ("validation", [ Alcotest.test_case "bad knobs refused" `Quick test_validation ]);
      ("schedules", [ QCheck_alcotest.to_alcotest qcheck_multiput_order_insensitive ]);
    ]
