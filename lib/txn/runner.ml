open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_workloads
module Scavenger_pass = Stallhide_analysis.Scavenger_pass
open Stallhide_smp
open Stallhide

type mode = Seq | Interleaved | Interleaved_pgo

let mode_to_string = function
  | Seq -> "seq"
  | Interleaved -> "interleaved"
  | Interleaved_pgo -> "interleaved-pgo"

let mode_of_string = function
  | "seq" -> Some Seq
  | "interleaved" -> Some Interleaved
  | "interleaved-pgo" -> Some Interleaved_pgo
  | _ -> None

type params = {
  inflight : int;  (** K: in-flight transaction coroutines per core *)
  txns : int;
  batch : int;
  mix : int;
  keys : int;
  theta : float;
  seed : int;
}

let default_params =
  { inflight = 8; txns = 96; batch = 4; mix = 0; keys = 8192; theta = 0.8; seed = 42 }

type counters = {
  commits : int;
  aborts : int;
  latch_waits : int;
  group_prefetch_hits : int;
  lookups : int;
}

type outcome = { mode : mode; metrics : Metrics.t; counters : counters }

let read_counters image (lay : Txn_oltp.layout) =
  {
    commits = Address_space.load image lay.Txn_oltp.commit_ctr;
    aborts = Address_space.load image lay.Txn_oltp.stats;
    latch_waits = Address_space.load image (lay.Txn_oltp.stats + 8);
    group_prefetch_hits = lay.Txn_oltp.direct_hits;
    lookups = lay.Txn_oltp.lookups;
  }

let validate ?cores p =
  (match cores with
  | Some c when c <= 0 ->
      invalid_arg (Printf.sprintf "Txn.Runner: cores must be positive (got %d)" c)
  | _ -> ());
  Txn_oltp.validate ~lanes:p.inflight ~txns:p.txns ~batch:p.batch ~mix:p.mix ~keys:p.keys
    ~theta:p.theta

let build ~manual p =
  Txn_oltp.make ~manual ~lanes:p.inflight ~txns:p.txns ~batch:p.batch ~mix:p.mix
    ~keys:p.keys ~theta:p.theta ~seed:p.seed ()

let run ?opts mode p =
  let metrics, image, lay =
    match mode with
    | Seq ->
        let wl, lay = build ~manual:false p in
        (Baselines.run_sequential ~label:"txn/seq" ?opts wl, wl.Workload.image, lay)
    | Interleaved ->
        let wl, lay = build ~manual:true p in
        (Baselines.run_round_robin ~label:"txn/interleaved" ?opts wl, wl.Workload.image, lay)
    | Interleaved_pgo ->
        let wl, lay = build ~manual:false p in
        let m, _inst = Baselines.run_pgo ~label:"txn/interleaved-pgo" ?opts wl in
        (m, wl.Workload.image, lay)
  in
  { mode; metrics; counters = read_counters image lay }

let counters_into reg (o : outcome) =
  let c name v =
    Stallhide_obs.Registry.incr ~by:v (Stallhide_obs.Registry.counter reg ~ctx:(-1) name)
  in
  c "txn.commits" o.counters.commits;
  c "txn.aborts" o.counters.aborts;
  c "txn.latch_waits" o.counters.latch_waits;
  c "txn.group_prefetch_hits" o.counters.group_prefetch_hits

(* --- dual-mode: K transaction primaries over analytics-scan scavengers --- *)

(* Scavenger-instrumented analytics scans sharing the transaction
   image, [count] per core: the batch work that fills transaction stall
   windows under §3.3. The scan's program text is the same for every
   seed, so the pass runs once, on core 0's scan, and its rewrite is
   translation-validated like every other before any core runs it. *)
let scan_scavengers ~image ~cores ~count ~seed =
  let scans =
    Array.init cores (fun c ->
        Array_scan.make ~image ~lanes:(max 1 count) ~block_words:64 ~ops:64 ~seed:(seed + c) ())
  in
  let module V = Stallhide_verify.Verify in
  let target_interval = 200 in
  let orig = scans.(0).Workload.program in
  let prog, orig_of_new, _report =
    Scavenger_pass.run { Scavenger_pass.default_opts with target_interval } orig
  in
  let outcome = V.validate ~orig ~orig_of_new ~target_interval prog in
  if not (V.ok outcome) then raise (V.Rejected outcome);
  Array.map
    (fun scan ->
      List.init count (fun i ->
          let ctx = Context.create ~id:(5000 + i) ~mode:Context.Scavenger prog in
          Context.set_regs ctx scan.Workload.lanes.(i);
          ctx))
    scans

(* --- the lib/smp leg: one transaction per request --- *)

type smp_outcome = {
  smp_mode : mode;
  cores : int;
  cycles : int;
  completed : int;
  txn_throughput : float;  (** committed transactions per kilocycle *)
  summary : Latency.summary;  (** per-transaction sojourn latency *)
  smp_counters : counters;
  scav_dispatches : int;
      (** analytics-scan dispatches into transaction stall windows *)
}

(* Each core gets its own table instance (shared-word mutation is only
   cooperative within a core), [txns] single-transaction lanes submitted
   as requests with staggered arrivals, and scavenger scans to hide
   yields (two per core). A core serves one transaction at a time, so
   [inflight] is read by [validate] only. The program is address-free,
   so the interleaved-pgo leg instruments core 0's twin once and rebinds
   it everywhere. *)
let run_smp ?(cores = 4) mode p =
  validate ~cores p;
  let scavengers_per_core = 2 in
  let manual = mode = Interleaved in
  let reqs_per_core = p.txns in
  let per_core_bytes =
    (2 * p.keys * 64) + (2 * 64)
    + (reqs_per_core * (64 + 192 + 64))
    + (scavengers_per_core * 64 * 64 * 8)
    + (16 * 64)
  in
  let image = Address_space.create ~bytes:(cores * per_core_bytes) in
  let insts =
    Array.init cores (fun c ->
        Txn_oltp.make ~image ~manual ~lanes:reqs_per_core ~txns:1 ~batch:p.batch
          ~mix:p.mix ~keys:p.keys ~theta:p.theta
          ~seed:(p.seed + (31 * c))
          ())
  in
  let program =
    match mode with
    | Seq | Interleaved -> (fst insts.(0)).Workload.program
    | Interleaved_pgo ->
        let wl0 = fst insts.(0) in
        let _, inst = Pipeline.place wl0 in
        wl0.Workload.reset ();
        inst.Pipeline.program
  in
  let requests =
    List.concat
      (List.init cores (fun c ->
           let wl = Workload.with_program (fst insts.(c)) program in
           List.init reqs_per_core (fun l ->
               let rid = (c * reqs_per_core) + l in
               let ctx = Workload.context wl ~lane:l ~id:rid ~mode:Context.Primary in
               Machine.request ~rid ~key:rid ~home:c ~arrival:(l * 200) ctx)))
    |> List.stable_sort (fun (a : Machine.request) b -> compare a.Machine.arrival b.Machine.arrival)
  in
  let scavengers =
    match mode with
    | Seq -> Array.make cores []
    | Interleaved | Interleaved_pgo ->
        scan_scavengers ~image ~cores ~count:scavengers_per_core ~seed:(p.seed + 977)
  in
  let config =
    { Machine.default_config with cores; max_cycles = 200_000_000 }
  in
  let r = Machine.run ~config ~policy:Stallhide_sched.Dispatch.D_fcfs ~mem:image ~requests ~scavengers () in
  let agg =
    Array.fold_left
      (fun acc (_, lay) ->
        let c = read_counters image lay in
        {
          commits = acc.commits + c.commits;
          aborts = acc.aborts + c.aborts;
          latch_waits = acc.latch_waits + c.latch_waits;
          group_prefetch_hits = acc.group_prefetch_hits + c.group_prefetch_hits;
          lookups = acc.lookups + c.lookups;
        })
      { commits = 0; aborts = 0; latch_waits = 0; group_prefetch_hits = 0; lookups = 0 }
      insts
  in
  let scav_dispatches =
    Array.fold_left
      (fun acc (c : Machine.core_result) ->
        acc + c.Machine.stats.Core_sched.scav_dispatches)
      0 r.Machine.per_core
  in
  {
    smp_mode = mode;
    cores;
    cycles = r.Machine.cycles;
    completed = r.Machine.completed;
    txn_throughput =
      (if r.Machine.cycles = 0 then 0.0
       else float_of_int r.Machine.completed /. float_of_int r.Machine.cycles *. 1000.0);
    summary = r.Machine.summary;
    smp_counters = agg;
    scav_dispatches;
  }
