open Stallhide_isa
open Stallhide_cpu
open Stallhide_mem
open Stallhide_runtime
open Stallhide_workloads
open Stallhide_binopt
open Stallhide
open Stallhide_verify
open Stallhide_sched
open Stallhide_smp
open Stallhide_faults

type name = Primary | Scavenger | Smp | Fault | Soundness | Cluster | Txn | Mutant

let all = [ Primary; Scavenger; Smp; Fault; Soundness; Cluster; Txn ]

let to_string = function
  | Primary -> "primary"
  | Scavenger -> "scavenger"
  | Smp -> "smp"
  | Fault -> "fault"
  | Soundness -> "soundness"
  | Cluster -> "cluster"
  | Txn -> "txn"
  | Mutant -> "mutant"

let of_string = function
  | "primary" -> Some Primary
  | "scavenger" -> Some Scavenger
  | "smp" -> Some Smp
  | "fault" -> Some Fault
  | "soundness" -> Some Soundness
  | "cluster" -> Some Cluster
  | "txn" -> Some Txn
  | "mutant" -> Some Mutant
  | _ -> None

type verdict = Pass | Counterexample of string | Invalid of string

let verdict_to_string = function
  | Pass -> "pass"
  | Counterexample m -> "counterexample: " ^ m
  | Invalid m -> "invalid: " ^ m

exception Cex of string
exception Inv of string

let budget = 4_000_000

(* Synthetic estimates: every load looks miss-prone, so the primary
   pass instruments densely (policy permitting) without needing a
   profiling run per fuzz case. Semantics must hold for *any*
   estimates, so constants are as good an adversary as a profile. *)
let estimates =
  {
    Gain_cost.miss_probability = (fun _ -> Some 0.9);
    stall_per_miss = (fun _ -> Some 160.0);
  }

let policy_of_ix = function
  | 0 -> Gain_cost.Always
  | 1 -> Gain_cost.Cost_benefit
  | _ -> Gain_cost.Threshold 0.3

type arm = { state : State.t; cycles : int }

(* A fault in an *instrumented* arm is a counterexample (the rewrite
   introduced a trap); a fault in the uninstrumented reference means
   the case itself is malformed (e.g. a shrink candidate that lost its
   [halt]), which must read as Invalid or the shrinker could "minimize"
   a miscompile into a program that merely runs off the end. *)
let finish ?(fault_is_invalid = false) label (r : Scheduler.result) ~mem ctxs total =
  (match r.Scheduler.faults with
  | m :: _ ->
      let msg = Printf.sprintf "%s: context faulted: %s" label m in
      raise (if fault_is_invalid then Inv msg else Cex msg)
  | [] -> ());
  if r.Scheduler.completed < total then
    raise
      (Inv
         (Printf.sprintf "%s: %d/%d contexts completed within %d cycles" label
            r.Scheduler.completed total budget));
  { state = State.capture ~mem ctxs; cycles = r.Scheduler.cycles }

(* Every arm rebuilds its workload from the cfg — runs mutate the image. *)
let run_seq ?fault_is_invalid label cfg prog =
  let wl = Gen.workload ~prog cfg in
  let ctxs = Workload.contexts ~mode:Context.Primary wl in
  let hier = Hierarchy.create Memconfig.default in
  let r = Scheduler.run_sequential ~max_cycles:budget hier wl.Workload.image ctxs in
  finish ?fault_is_invalid label r ~mem:wl.Workload.image ctxs (Array.length ctxs)

(* The uninstrumented sequential reference of the differential pairs. *)
let reference cfg prog = run_seq ~fault_is_invalid:true "reference" cfg prog

let run_rr label ?(mode = Context.Primary) ?prepare ?extra cfg prog =
  let wl = Gen.workload ~prog cfg in
  let ctxs = Workload.contexts ~mode wl in
  let extras = match extra with Some f -> f wl | None -> [||] in
  let hier = Hierarchy.create Memconfig.default in
  (match prepare with Some f -> f hier | None -> ());
  let r =
    Scheduler.run_round_robin ~max_cycles:budget ~switch:Switch_cost.coroutine hier
      wl.Workload.image
      (Array.append ctxs extras)
  in
  (* capture covers the lanes only: co-runners are timing noise *)
  finish label r ~mem:wl.Workload.image ctxs (Array.length ctxs + Array.length extras)

(* Metamorphic invariant: equal seeds are bit-identical (state *and*
   clock), so every oracle runs its reference arm twice. *)
let deterministic label run =
  let a = run () in
  let b = run () in
  if a.cycles <> b.cycles then
    raise
      (Cex
         (Printf.sprintf "%s: nondeterministic cycles under equal seeds (%d vs %d)" label
            a.cycles b.cycles));
  (match State.diff a.state b.state with
  | Some d ->
      raise (Cex (Printf.sprintf "%s: nondeterministic state under equal seeds: %s" label d))
  | None -> ());
  a

let expect_equal ~ref_arm ~label arm =
  match State.diff ref_arm.state arm.state with
  | Some d -> raise (Cex (Printf.sprintf "%s diverges from reference: %s" label d))
  | None -> ()

let instrument_primary ?scavenger_interval cfg prog =
  let primary =
    { Primary_pass.default_opts with policy = policy_of_ix cfg.Gen.policy_ix }
  in
  try Pipeline.instrument_with ~estimates ~primary ?scavenger_interval prog
  with Verify.Rejected outcome ->
    raise
      (Cex
         (Printf.sprintf "verifier rejected instrumented rewrite (%d errors)"
            (Verify.errors outcome)))

(* --- oracles --- *)

let check_primary cfg prog =
  let ref_arm = deterministic "reference" (fun () -> reference cfg prog) in
  let inst = instrument_primary cfg prog in
  let arm = run_rr "instrumented" cfg inst.Pipeline.program in
  expect_equal ~ref_arm ~label:"primary-instrumented round-robin" arm

let check_scavenger cfg prog =
  let ref_arm = deterministic "reference" (fun () -> reference cfg prog) in
  let module S = Stallhide_analysis.Scavenger_pass in
  let prog', orig_of_new, _report =
    S.run { S.default_opts with target_interval = cfg.Gen.scavenger_interval } prog
  in
  let outcome =
    Verify.validate ~orig:prog ~orig_of_new ~target_interval:cfg.Gen.scavenger_interval
      prog'
  in
  if not (Verify.ok outcome) then
    raise
      (Cex
         (Printf.sprintf "verifier rejected scavenger rewrite (%d errors)"
            (Verify.errors outcome)));
  let arm = run_rr "scavenger" ~mode:Context.Scavenger cfg prog' in
  expect_equal ~ref_arm ~label:"scavenger-instrumented round-robin" arm

(* One SMP arm: the instrumented lanes served as requests. Scavenger
   co-runners (store-free by construction) are seeded into core 0 so
   work stealing has something to move; they are excluded from the
   capture and cannot touch lane state. *)
let smp_arm label cfg prog ~cores =
  let wl = Gen.workload ~prog cfg in
  let policy = if cfg.Gen.policy_ix mod 2 = 0 then Dispatch.D_fcfs else Dispatch.Jbsq in
  let lanes = Array.length wl.Workload.lanes in
  let requests =
    List.init lanes (fun i ->
        let key = (7 * i) + 3 in
        let ctx = Workload.context wl ~lane:i ~id:i ~mode:Context.Primary in
        Machine.request ~rid:i ~key ~home:(Dispatch.home ~shards:cores key)
          ~arrival:(i * 50) ctx)
  in
  let scav_cfg = { cfg with Gen.stores = false; seed = cfg.Gen.seed + 17; ops = 1 } in
  let scav_prog = Gen.program scav_cfg in
  let scavs =
    List.init 2 (fun k ->
        let ctx = Context.create ~id:(1000 + k) ~mode:Context.Scavenger scav_prog in
        Context.set_regs ctx wl.Workload.lanes.(0);
        ctx)
  in
  let scavengers = Array.init cores (fun i -> if i = 0 then scavs else []) in
  let config = { Machine.default_config with cores; max_cycles = budget } in
  let r = Machine.run ~config ~policy ~mem:wl.Workload.image ~requests ~scavengers () in
  if r.Machine.faulted > 0 then
    raise (Cex (Printf.sprintf "%s: %d request(s) faulted" label r.Machine.faulted));
  if r.Machine.completed < lanes then
    raise
      (Inv
         (Printf.sprintf "%s: %d/%d requests completed within %d cycles" label
            r.Machine.completed lanes budget));
  let ctxs = Array.of_list (List.map (fun (rq : Machine.request) -> rq.Machine.ctx) requests) in
  { state = State.capture ~mem:wl.Workload.image ctxs; cycles = r.Machine.cycles }

let check_smp cfg prog =
  (* validity gate: the program must halt cleanly uninstrumented, else
     the case (e.g. a shrink candidate that lost its [halt]) is Invalid *)
  ignore (reference cfg prog);
  let inst = instrument_primary cfg prog in
  let prog' = inst.Pipeline.program in
  let ref_arm =
    deterministic "1-core machine" (fun () -> smp_arm "1-core machine" cfg prog' ~cores:1)
  in
  let arm = smp_arm "N-core machine" cfg prog' ~cores:cfg.Gen.cores in
  expect_equal ~ref_arm
    ~label:(Printf.sprintf "%d-core machine" cfg.Gen.cores)
    arm

let check_fault cfg prog =
  (* validity gate, as in [check_smp] *)
  ignore (reference cfg prog);
  let inst = instrument_primary ~scavenger_interval:cfg.Gen.scavenger_interval cfg prog in
  let prog' = inst.Pipeline.program in
  let clean = deterministic "clean" (fun () -> run_rr "clean" cfg prog') in
  let spike =
    Faults.Spike
      {
        at = 200;
        duration = 2_000 + (500 * (cfg.Gen.seed mod 5));
        l3_mult = 4;
        dram_mult = 8;
      }
  in
  let spiked = run_rr "spiked" ~prepare:(Faults.prepare_hier spike) cfg prog' in
  expect_equal ~ref_arm:clean ~label:"latency-spiked run" spiked;
  if spiked.cycles < clean.cycles then
    raise
      (Cex
         (Printf.sprintf
            "latency spike sped the run up (%d cycles spiked vs %d clean) — timing may \
             only degrade"
            spiked.cycles clean.cycles));
  let rogue_prog = Faults.rogue_program ~bursts:3 ~compute:400 () in
  let rogues _wl =
    Array.init 2 (fun k -> Context.create ~id:(900 + k) ~mode:Context.Scavenger rogue_prog)
  in
  let rogue_arm = run_rr "rogue" ~extra:rogues cfg prog' in
  expect_equal ~ref_arm:clean ~label:"rogue-scavenger run" rogue_arm

(* --- static-analysis soundness vs simulator ground truth --- *)

(* A small validated family of hierarchies, drawn per case, so the
   must/may transfer rules are exercised across line sizes,
   associativities and capacities — not just the default geometry. *)
let mem_samples =
  let lvl size_bytes ways latency = { Memconfig.size_bytes; ways; latency } in
  let d = Memconfig.default in
  [
    d;
    (* tiny low-associativity caches: conflict evictions dominate *)
    { d with Memconfig.l1 = lvl 512 2 2; l2 = lvl 4096 4 9 };
    (* wide lines: more accesses share an abstract key *)
    { d with Memconfig.line_bytes = 128 };
    (* direct-mapped L1: age bound = 0, evict-on-any-other-key *)
    { d with Memconfig.l1 = lvl 1024 1 4 };
    (* slow memory + pricier prefetch issue *)
    { d with Memconfig.dram_latency = 400; prefetch_issue_cost = 3 };
  ]

let sample_mem seed =
  let m = List.nth mem_samples (abs seed mod List.length mem_samples) in
  Memconfig.validate m;
  m

(* The analysis's two hard claims, checked against full-trace per-load
   statistics from the simulator ([Pipeline.ground_truth], where a miss
   is a load served beyond L2):

   - [Always_hit] loads may never record a miss, in the full multi-lane
     sequential run — the claim is path-universal, so any interleaving
     of lanes through one hierarchy must respect it;
   - [Always_miss] loads must miss on {e every} execution, checked on a
     1-lane run: the proof is cold-start first-touch, and with several
     lanes an earlier lane's touch legitimately warms the line for a
     later one. *)
let check_soundness cfg prog =
  (* validity gate, as in [check_smp]: faulting cases are Invalid *)
  ignore (reference cfg prog);
  let mem = sample_mem cfg.Gen.seed in
  let module A = Stallhide_analysis.Analysis in
  let analysis = A.run ~mem prog in
  (* metamorphic: classification is a pure function of (mem, prog) *)
  let again = A.run ~mem prog in
  List.iter2
    (fun (s : A.site) (s' : A.site) ->
      if s.A.cls <> s'.A.cls then
        raise
          (Cex
             (Printf.sprintf "soundness: nondeterministic classification at pc %d (%s vs %s)"
                s.A.pc
                (Stallhide_analysis.Cache_domain.cls_name s.A.cls)
                (Stallhide_analysis.Cache_domain.cls_name s'.A.cls))))
    analysis.A.sites again.A.sites;
  let gt lanes =
    Pipeline.ground_truth ~mem_cfg:mem (Gen.workload ~prog { cfg with Gen.lanes })
  in
  let multi = gt cfg.Gen.lanes in
  List.iter
    (fun (s : A.site) ->
      match s.A.cls with
      | Stallhide_analysis.Cache_domain.Always_hit -> (
          match Hashtbl.find_opt multi s.A.pc with
          | Some (execs, misses, _) when misses > 0 ->
              raise
                (Cex
                   (Printf.sprintf
                      "soundness: Always_hit load at pc %d missed %d of %d execution(s)"
                      s.A.pc misses execs))
          | _ -> ())
      | _ -> ())
    (A.load_sites analysis);
  let single = gt 1 in
  List.iter
    (fun pc ->
      match Hashtbl.find_opt single pc with
      | Some (execs, misses, _) when misses < execs ->
          raise
            (Cex
               (Printf.sprintf
                  "soundness: Always_miss load at pc %d hit %d of %d execution(s) (1-lane)"
                  pc (execs - misses) execs))
      | _ -> ())
    (A.always_miss_pcs analysis)

(* --- cluster: M machines behind the LB vs M independent machines --- *)

module Cl = Stallhide_cluster.Cluster
module Lb = Stallhide_cluster.Lb
module Defense = Stallhide_cluster.Defense
module Netconfig = Stallhide_net.Netconfig

let cluster_req_key i = (7 * i) + 3

(* One cluster arm over the instrumented lanes-as-requests: d-FCFS,
   steal off, consistent hashing and a pristine link, so the fault-free
   dispatch sequence on each machine is exactly the independent
   reference's, and hedge/retry traffic (which lands on *other*
   machines by the distinct-machine rule) cannot perturb it. *)
let cluster_arm label cfg prog' ~machines ~defense =
  let probe = Gen.workload ~prog:prog' cfg in
  let lanes = Array.length probe.Workload.lanes in
  let requests =
    List.init lanes (fun i -> { Cl.rid = i; key = cluster_req_key i; send = i * 50 })
  in
  let images = Hashtbl.create machines in
  let node ~machine ~restart:_ =
    let wl = Gen.workload ~prog:prog' cfg in
    Hashtbl.replace images machine wl.Workload.image;
    {
      Cl.config =
        { Machine.default_config with cores = cfg.Gen.cores; steal = false; max_cycles = budget };
      mem = wl.Workload.image;
      scavengers = Array.make cfg.Gen.cores [];
      make_ctx =
        (fun ~rid ~attempt:_ -> Workload.context wl ~lane:rid ~id:rid ~mode:Context.Primary);
    }
  in
  let config =
    {
      Cl.machines;
      policy = Dispatch.D_fcfs;
      lb = Lb.Consistent_hash;
      net = Netconfig.default;
      defense;
      slo_deadline = budget;
      seed = cfg.Gen.seed;
      faults = [];
      horizon = budget;
    }
  in
  let r = Cl.run config ~node ~requests in
  if r.Cl.lost_acked > 0 then
    raise (Cex (Printf.sprintf "%s: %d acked request(s) with no finished context" label r.Cl.lost_acked));
  if r.Cl.acked < lanes then
    raise
      (Inv
         (Printf.sprintf "%s: %d/%d requests acked within %d cycles" label r.Cl.acked lanes
            budget));
  (r, images)

(* Machine [m]'s view of a cluster run: its final image plus the lane
   contexts of the requests it won. *)
let cluster_state (r, images) m =
  let ctxs =
    Array.to_list r.Cl.requests
    |> List.filter_map (fun (q : Cl.rq) -> if q.Cl.winner = m then q.Cl.winner_ctx else None)
    |> Array.of_list
  in
  State.capture ~mem:(Hashtbl.find images m) ctxs

(* The reference: machine [m] run standalone on the key range the
   consistent-hash ring homes to it. *)
let independent_arm cfg prog' ~machines m =
  let wl = Gen.workload ~prog:prog' cfg in
  let lanes = Array.length wl.Workload.lanes in
  let requests =
    List.init lanes (fun i -> (i, cluster_req_key i))
    |> List.filter (fun (_, key) -> Dispatch.home ~shards:machines key = m)
    |> List.map (fun (i, key) ->
           let ctx = Workload.context wl ~lane:i ~id:i ~mode:Context.Primary in
           Machine.request ~rid:i ~key
             ~home:(Dispatch.home ~shards:cfg.Gen.cores key)
             ~arrival:(i * 50) ctx)
  in
  let config =
    { Machine.default_config with cores = cfg.Gen.cores; steal = false; max_cycles = budget }
  in
  let r =
    Machine.run ~config ~policy:Dispatch.D_fcfs ~mem:wl.Workload.image ~requests
      ~scavengers:(Array.make cfg.Gen.cores []) ()
  in
  if r.Machine.faulted > 0 then
    raise (Cex (Printf.sprintf "independent machine %d: %d request(s) faulted" m r.Machine.faulted));
  if r.Machine.completed < List.length requests then
    raise
      (Inv
         (Printf.sprintf "independent machine %d: %d/%d requests completed within %d cycles" m
            r.Machine.completed (List.length requests) budget));
  State.capture ~mem:wl.Workload.image
    (Array.of_list (List.map (fun (rq : Machine.request) -> rq.Machine.ctx) requests))

let check_cluster cfg prog =
  (* validity gate, as in [check_smp] *)
  ignore (reference cfg prog);
  let inst = instrument_primary cfg prog in
  let prog' = inst.Pipeline.program in
  let machines = 2 + (abs cfg.Gen.seed mod 2) in
  (* metamorphic: same seed, bit-identical cluster (every machine) *)
  let a = cluster_arm "fault-free cluster" cfg prog' ~machines ~defense:None in
  let b = cluster_arm "fault-free cluster (replay)" cfg prog' ~machines ~defense:None in
  if (fst a).Cl.cycles <> (fst b).Cl.cycles then
    raise
      (Cex
         (Printf.sprintf "cluster: nondeterministic cycles under equal seeds (%d vs %d)"
            (fst a).Cl.cycles (fst b).Cl.cycles));
  for m = 0 to machines - 1 do
    match State.diff (cluster_state a m) (cluster_state b m) with
    | Some d ->
        raise (Cex (Printf.sprintf "cluster: nondeterministic state on machine %d: %s" m d))
    | None -> ()
  done;
  (* differential: each machine bit-identical to its standalone twin *)
  for m = 0 to machines - 1 do
    let ref_state = independent_arm cfg prog' ~machines m in
    match State.diff ref_state (cluster_state a m) with
    | Some d ->
        raise
          (Cex
             (Printf.sprintf "cluster machine %d diverges from its independent twin: %s" m d))
    | None -> ()
  done;
  (* metamorphic: retries + immediate hedging under zero faults change
     no payloads and never shrink the makespan *)
  let aggressive =
    {
      Defense.timeout = 3_000;
      max_retries = 2;
      retry_budget_pct = 100;
      backoff = 100;
      hedge_after = 1;
      hedge_max = 1;
      probe_interval = 1_000;
      strike_threshold = 3;
      brownout_depth = 0;
    }
  in
  let h, _ = cluster_arm "hedged cluster" cfg prog' ~machines ~defense:(Some aggressive) in
  (* Hedging may shrink cycle counts — duplicates race the last ack
     down and even warm the shared L3 under the co-resident attempts
     (the fuzzer found both) — so time is not an invariant here. Work
     is: every machine still serves at least its fault-free attempts,
     and the wire carries at least the fault-free messages. *)
  Array.iter2
    (fun (v : Cl.node_view) (vh : Cl.node_view) ->
      if vh.Cl.completed < v.Cl.completed || vh.Cl.nic_rx < v.Cl.nic_rx then
        raise
          (Cex
             (Printf.sprintf
                "hedging under zero faults shed machine %d's work (%d vs %d contexts, %d vs \
                 %d rx) — duplicates may only add work"
                v.Cl.id vh.Cl.completed v.Cl.completed vh.Cl.nic_rx v.Cl.nic_rx)))
    (fst a).Cl.nodes h.Cl.nodes;
  let sent (r : Cl.result) = try List.assoc "net.sent" r.Cl.counters with Not_found -> 0 in
  if sent h < sent (fst a) then
    raise
      (Cex
         (Printf.sprintf "hedging under zero faults removed messages (%d vs %d sent)"
            (sent h) (sent (fst a))));
  Array.iter2
    (fun (q : Cl.rq) (qh : Cl.rq) ->
      match (q.Cl.winner_ctx, qh.Cl.winner_ctx) with
      | Some c, Some ch ->
          if ch.Context.status <> Context.Done then
            raise (Cex (Printf.sprintf "hedged winner of rid %d did not finish" q.Cl.spec.Cl.rid));
          if c.Context.regs <> ch.Context.regs then
            raise
              (Cex
                 (Printf.sprintf
                    "hedging changed the payload of rid %d (winner machine %d vs %d)"
                    q.Cl.spec.Cl.rid q.Cl.winner qh.Cl.winner))
      | _ -> raise (Cex "hedged cluster lost a winner context"))
    (fst a).Cl.requests h.Cl.requests

(* --- txn: interleaved transactions vs a sequential replay of the
   committed schedule --- *)

module Txn_oltp = Stallhide_txn.Txn_oltp

(* The engine's serializability claim: strict per-key latching in
   sorted order (all latches held before any data access, released at
   commit) serializes conflicting transactions in commit order, so
   replaying the lanes sequentially in their committed sequence must
   reproduce the interleaved run's architectural state bit for bit.
   The case's generated program supplies entropy only through [cfg];
   the arms run the engine's own multi-key transaction program. *)
let txn_build (cfg : Gen.cfg) =
  let inflight = 2 + (abs cfg.Gen.lanes mod 4) in
  let batch = 2 + (abs cfg.Gen.ops mod 3) in
  let mix = 50 * (abs cfg.Gen.policy_ix mod 3) in
  let keys = 16 + (8 * cfg.Gen.cores) in
  Txn_oltp.make ~manual:true ~lanes:inflight ~txns:1 ~batch ~mix ~keys ~theta:0.9
    ~seed:cfg.Gen.seed ()

(* The stats line (aborts, latch waits) is the one deliberately
   schedule-dependent region; zero it before capture so the arms
   compare committed state only. *)
let txn_finish label (r : Scheduler.result) wl (lay : Txn_oltp.layout) ctxs =
  (match r.Scheduler.faults with
  | m :: _ -> raise (Cex (Printf.sprintf "%s: context faulted: %s" label m))
  | [] -> ());
  if r.Scheduler.completed < Array.length ctxs then
    raise
      (Inv
         (Printf.sprintf "%s: %d/%d transactions completed within %d cycles" label
            r.Scheduler.completed (Array.length ctxs) budget));
  let image = wl.Workload.image in
  Address_space.store image lay.Txn_oltp.stats 0;
  Address_space.store image (lay.Txn_oltp.stats + 8) 0;
  { state = State.capture ~mem:image ctxs; cycles = r.Scheduler.cycles }

let check_txn cfg prog =
  (* validity gate, as in [check_smp]: the oracle runs its own
     transaction program, but a generated/shrunk case that does not
     halt cleanly must still read as Invalid, not pass *)
  ignore (reference cfg prog);
  let interleaved () =
    let wl, lay = txn_build cfg in
    let ctxs = Workload.contexts ~mode:Context.Primary wl in
    let hier = Hierarchy.create Memconfig.default in
    let r =
      Scheduler.run_round_robin ~max_cycles:budget ~switch:Switch_cost.coroutine hier
        wl.Workload.image ctxs
    in
    (txn_finish "interleaved" r wl lay ctxs, wl, lay)
  in
  (* metamorphic: equal seeds are bit-identical (state and clock) *)
  let a, wl_a, lay_a = interleaved () in
  let b, _, _ = interleaved () in
  if a.cycles <> b.cycles then
    raise
      (Cex
         (Printf.sprintf "txn: nondeterministic cycles under equal seeds (%d vs %d)" a.cycles
            b.cycles));
  (match State.diff a.state b.state with
  | Some d -> raise (Cex (Printf.sprintf "txn: nondeterministic state under equal seeds: %s" d))
  | None -> ());
  (* the committed schedule: one commit sequence number per lane *)
  let lanes = Array.length lay_a.Txn_oltp.record_base in
  let seq_of_lane =
    Array.map (fun base -> Address_space.load wl_a.Workload.image base) lay_a.Txn_oltp.record_base
  in
  let seen = Array.make lanes false in
  Array.iteri
    (fun lane s ->
      if s < 0 || s >= lanes || seen.(s) then
        raise
          (Cex
             (Printf.sprintf "txn: commit sequence is not a permutation (lane %d committed %d)"
                lane s));
      seen.(s) <- true)
    seq_of_lane;
  let order = Array.make lanes 0 in
  Array.iteri (fun lane s -> order.(s) <- lane) seq_of_lane;
  (* differential: sequential replay of that schedule on a fresh image *)
  let wl, lay = txn_build cfg in
  let ctxs =
    Array.map (fun lane -> Workload.context wl ~lane ~id:lane ~mode:Context.Primary) order
  in
  let hier = Hierarchy.create Memconfig.default in
  let r = Scheduler.run_sequential ~max_cycles:budget hier wl.Workload.image ctxs in
  let replay = txn_finish "sequential replay" r wl lay ctxs in
  match State.diff replay.state a.state with
  | Some d ->
      raise
        (Cex
           (Printf.sprintf
              "interleaved transactions diverge from the sequential replay of their \
               committed schedule: %s"
              d))
  | None -> ()

let clobber_loads prog =
  Program.to_items prog
  |> List.concat_map (fun item ->
         match item with
         | Program.Ins (Instr.Load (rd, _, _)) ->
             [ item; Program.Ins (Instr.Mov (rd, Instr.Imm 0)) ]
         | _ -> [ item ])
  |> Program.assemble

let check_mutant cfg prog =
  let ref_arm = reference cfg prog in
  let mutant = clobber_loads prog in
  let arm = run_seq "mutant" cfg mutant in
  expect_equal ~ref_arm ~label:"load-clobbering mutant" arm

let check name cfg prog =
  let f =
    match name with
    | Primary -> check_primary
    | Scavenger -> check_scavenger
    | Smp -> check_smp
    | Fault -> check_fault
    | Soundness -> check_soundness
    | Cluster -> check_cluster
    | Txn -> check_txn
    | Mutant -> check_mutant
  in
  match f cfg prog with
  | () -> Pass
  | exception Cex m -> Counterexample m
  | exception Inv m -> Invalid m
  | exception Program.Error m -> Invalid ("assembly failed: " ^ m)

let check_case name (c : Gen.case) = check name c.Gen.cfg c.Gen.program
