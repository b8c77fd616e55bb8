open Stallhide_mem
open Stallhide_runtime
open Stallhide_net
open Stallhide_cluster
module Faults = Stallhide_faults.Faults
module CH = Harness

let mem = Memconfig.default

(* --- Netconfig: cost model and validation --- *)

let test_netconfig_costs () =
  let n = Netconfig.default in
  Netconfig.validate n;
  Alcotest.(check bool) "small request is lean" true (Netconfig.lean n ~bytes:n.Netconfig.small_bytes);
  Alcotest.(check bool) "large request is not" false
    (Netconfig.lean n ~bytes:(n.Netconfig.small_bytes + 1));
  (* DMA cost scales with payload and is cheaper with cache injection *)
  let small = Netconfig.dma_cost n mem ~bytes:64 in
  let large = Netconfig.dma_cost n mem ~bytes:4096 in
  Alcotest.(check bool) "dma cost grows with payload" true (large > small);
  let dram = Netconfig.dma_cost { n with Netconfig.cache_inject = false } mem ~bytes:4096 in
  Alcotest.(check bool) "cache injection beats DRAM landing" true (large < dram);
  (* the lean fast path undercuts the dispatch queue *)
  let lean_rx = Netconfig.rx_cost n mem ~bytes:n.Netconfig.small_bytes in
  let slow_rx = Netconfig.rx_cost n mem ~bytes:(16 * n.Netconfig.small_bytes) in
  Alcotest.(check bool) "fast path cheaper than dispatch path" true (lean_rx < slow_rx);
  Alcotest.(check bool) "round trip covers both directions" true
    (Netconfig.rtt n mem
    >= Netconfig.rx_cost n mem ~bytes:n.Netconfig.req_bytes
       + Netconfig.tx_cost n mem ~bytes:n.Netconfig.resp_bytes)

let test_netconfig_validation () =
  let n = Netconfig.default in
  Alcotest.check_raises "fast path must undercut dispatch"
    (Invalid_argument "Netconfig: fast path must not cost more than the dispatch queue")
    (fun () ->
      Netconfig.validate { n with Netconfig.fast_path_cost = n.Netconfig.dispatch_cost + 1 })

(* --- Nic: finite rx ring --- *)

let test_nic_ring () =
  let nic = Nic.create ~depth:2 in
  Alcotest.(check bool) "admit under depth" true (Nic.admit nic ~backlog:0 ~lean:true);
  Alcotest.(check bool) "admit at depth-1" true (Nic.admit nic ~backlog:1 ~lean:false);
  Alcotest.(check bool) "full ring drops" false (Nic.admit nic ~backlog:2 ~lean:true);
  Alcotest.(check int) "rx counts admissions only" 2 (Nic.rx nic);
  Alcotest.(check int) "lean admissions counted" 1 (Nic.fast nic);
  Alcotest.(check int) "overflow counted" 1 (Nic.overflow nic);
  Nic.sent nic;
  Alcotest.(check int) "tx counted" 1 (Nic.tx nic);
  (* depth <= 0 is unbounded *)
  let open_nic = Nic.create ~depth:0 in
  Alcotest.(check bool) "unbounded ring admits any backlog" true
    (Nic.admit open_nic ~backlog:1_000_000 ~lean:false)

(* --- Link: pricing, loss, reorder, determinism --- *)

let test_link_pristine () =
  let l = Link.create ~seed:3 () in
  for i = 0 to 9 do
    Alcotest.(check (option int))
      "pristine link delivers at now+cost"
      (Some ((100 * i) + 40))
      (Link.transit l ~now:(100 * i) ~cost:40)
  done;
  Alcotest.(check int) "all sends counted" 10 (Link.sent l);
  Alcotest.(check int) "nothing dropped" 0 (Link.dropped l);
  Alcotest.(check int) "nothing reordered" 0 (Link.reordered l)

let test_link_loss_and_reorder () =
  let lossy = Link.create ~loss:0.9 ~seed:3 () in
  let fates = List.init 100 (fun _ -> Link.transit lossy ~now:0 ~cost:40) in
  let delivered = List.length (List.filter Option.is_some fates) in
  Alcotest.(check bool) "a 90% link drops" true (Link.dropped lossy > 0);
  Alcotest.(check int) "every send is dropped or delivered" 100
    (delivered + Link.dropped lossy);
  (* a reordered packet pays a full extra cost, late enough that a
     back-to-back successor overtakes it *)
  let swap = Link.create ~reorder:0.9 ~seed:3 () in
  let fates = List.init 50 (fun _ -> Link.transit swap ~now:0 ~cost:40) in
  let late = List.filter (fun f -> f = Some 80) fates in
  Alcotest.(check bool) "on time or one full cost late" true
    (List.for_all (fun f -> f = Some 40 || f = Some 80) fates);
  Alcotest.(check int) "reorders counted" (List.length late) (Link.reordered swap);
  Alcotest.(check bool) "some packets were reordered" true (Link.reordered swap > 0)

let test_link_determinism () =
  let sequence seed =
    let l = Link.create ~loss:0.3 ~reorder:0.2 ~jitter:25 ~seed () in
    List.init 50 (fun i -> Link.transit l ~now:(i * 10) ~cost:40)
  in
  Alcotest.(check bool) "same seed, same fate" true (sequence 7 = sequence 7);
  Alcotest.(check bool) "different seed diverges somewhere" true (sequence 7 <> sequence 8)

let test_link_rejects_nan () =
  Alcotest.check_raises "NaN loss" (Invalid_argument "Link: loss must be in [0,1)") (fun () ->
      ignore (Link.create ~loss:Float.nan ~seed:3 ()));
  Alcotest.check_raises "NaN reorder" (Invalid_argument "Link: reorder must be in [0,1)")
    (fun () -> ignore (Link.create ~reorder:Float.nan ~seed:3 ()))

(* --- Defense: knob validation, backoff, retry budget --- *)

let test_defense_validation () =
  Defense.validate Defense.default;
  Alcotest.check_raises "timeout must be positive"
    (Invalid_argument "Defense: timeout must be positive")
    (fun () -> Defense.validate { Defense.default with Defense.timeout = 0 })

let test_backoff_jitter () =
  let d = { Defense.default with Defense.backoff = 200 } in
  let delay = Defense.backoff_delay d ~seed:9 in
  (* pure function of (seed, rid, attempt): replay-stable *)
  Alcotest.(check int) "deterministic under a fixed seed" (delay ~rid:4 ~attempt:1)
    (delay ~rid:4 ~attempt:1);
  (* exponential base with uniform jitter of the same magnitude *)
  List.iter
    (fun attempt ->
      let base = 200 lsl attempt in
      let v = delay ~rid:4 ~attempt in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d delay in [base, 2*base)" attempt)
        true
        (v >= base && v < 2 * base))
    [ 0; 1; 2; 3 ];
  (* decorrelated across requests: not every rid draws the same jitter *)
  let draws = List.init 16 (fun rid -> delay ~rid ~attempt:1) in
  Alcotest.(check bool) "jitter varies across rids" true
    (List.exists (fun v -> v <> List.hd draws) draws)

let test_retry_budget () =
  let d = { Defense.default with Defense.max_retries = 2; retry_budget_pct = 20 } in
  Alcotest.(check int) "20% of 100" 20 (Defense.retry_budget d ~offered:100);
  Alcotest.(check int) "rounds down but never to zero" 1 (Defense.retry_budget d ~offered:3);
  Alcotest.(check int) "no retries, no budget" 0
    (Defense.retry_budget { d with Defense.max_retries = 0 } ~offered:100)

(* --- Lb: placement, strikes, quarantine, re-admission --- *)

let no_backlog _ = 0

let test_lb_quarantine_cycle () =
  let lb = Lb.create Lb.Least_loaded ~machines:3 ~seed:1 in
  Alcotest.(check bool) "starts healthy" true (Lb.healthy lb 1);
  Alcotest.(check bool) "first strike is not quarantine" false (Lb.strike lb 1 ~threshold:3);
  (* a success clears the consecutive-strike count *)
  Lb.clear_strikes lb 1;
  Alcotest.(check bool) "cleared strikes restart the count" false (Lb.strike lb 1 ~threshold:2);
  Alcotest.(check bool) "threshold strike quarantines" true (Lb.strike lb 1 ~threshold:2);
  Alcotest.(check bool) "quarantined is unhealthy" false (Lb.healthy lb 1);
  Alcotest.(check bool) "health is observable" true (Lb.health lb 1 = Lb.Quarantined);
  (* no new traffic while quarantined *)
  for key = 0 to 31 do
    match Lb.choose lb ~key ~backlog:no_backlog ~exclude:[] with
    | Some m -> Alcotest.(check bool) "never the quarantined machine" true (m <> 1)
    | None -> Alcotest.fail "two healthy machines remained"
  done;
  (* probe success re-admits *)
  Alcotest.(check bool) "readmit reports the transition" true (Lb.readmit lb 1);
  Alcotest.(check bool) "healthy again" true (Lb.healthy lb 1);
  Alcotest.(check bool) "re-readmit is a no-op" false (Lb.readmit lb 1);
  Alcotest.(check int) "one quarantine" 1 (Lb.quarantines lb);
  Alcotest.(check int) "one readmission" 1 (Lb.readmissions lb)

let test_lb_exclusion () =
  let lb = Lb.create Lb.P2c ~machines:3 ~seed:5 in
  (match Lb.choose lb ~key:7 ~backlog:no_backlog ~exclude:[ 0; 1 ] with
  | Some m -> Alcotest.(check int) "only the untried machine remains" 2 m
  | None -> Alcotest.fail "machine 2 was eligible");
  Alcotest.(check (option int))
    "every machine tried: no placement" None
    (Lb.choose lb ~key:7 ~backlog:no_backlog ~exclude:[ 0; 1; 2 ])

let test_lb_determinism () =
  let picks seed =
    let lb = Lb.create Lb.P2c ~machines:8 ~seed in
    List.init 64 (fun key -> Lb.choose lb ~key ~backlog:no_backlog ~exclude:[])
  in
  Alcotest.(check bool) "same seed, same placement" true (picks 3 = picks 3);
  let lb = Lb.create Lb.Consistent_hash ~machines:8 ~seed:3 in
  let first = Lb.choose lb ~key:42 ~backlog:no_backlog ~exclude:[] in
  Alcotest.(check bool) "consistent hashing is stable per key" true
    (first <> None && first = Lb.choose lb ~key:42 ~backlog:no_backlog ~exclude:[])

(* --- Net fault specs: `inject -i name:k=v` round-trips --- *)

let test_net_fault_specs () =
  let faults =
    [
      Faults.Crash { machine = 0; at = 50; percent = true; down = 8000 };
      Faults.Slownode { machine = 1; mult = 6 };
      Faults.Netloss { p = 0.05; reorder = 0.01 };
      Faults.Nicdrop { depth = 4 };
    ]
  in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Faults.name f ^ " is a net fault")
        true (Faults.is_net f);
      Alcotest.(check bool)
        (Faults.name f ^ " listed in net_fault_names")
        true
        (List.mem (Faults.name f) Faults.net_fault_names);
      Alcotest.(check bool)
        (Faults.describe f ^ " round-trips")
        true
        (Faults.parse_spec (Faults.describe f) = f))
    faults;
  (* a literal spec as a user would type it *)
  Alcotest.(check bool) "crash:m=2,at=1000,down=500 parses" true
    (Faults.parse_spec "crash:m=2,at=1000,down=500"
    = Faults.Crash { machine = 2; at = 1000; percent = false; down = 500 })

(* --- Latency.split: censored SLO accounting --- *)

let test_censored_split () =
  let answered = List.init 95 (fun i -> i + 1) in
  let s = Latency.split ~censor:5_000 ~dropped:5 answered in
  Alcotest.(check int) "offered = answered + dropped" 100 s.Latency.offered;
  Alcotest.(check int) "goodput sees only answers" 95 s.Latency.goodput.Latency.count;
  Alcotest.(check int) "full sees the offered load" 100 s.Latency.full.Latency.count;
  (* censored drops pin the full p99 to the censor point — shedding
     cannot flatter the tail *)
  Alcotest.(check int) "full p99 is the censor" 5_000 s.Latency.full.Latency.p99;
  Alcotest.(check bool) "goodput p99 stays honest" true (s.Latency.goodput.Latency.p99 < 100);
  Alcotest.(check (float 1e-9)) "violation rate" 0.05 (Latency.violation_rate s);
  let clean = Latency.split ~censor:5_000 ~dropped:0 answered in
  Alcotest.(check int) "no drops: full = goodput" clean.Latency.goodput.Latency.p99
    clean.Latency.full.Latency.p99

(* --- Cluster end-to-end: defenses under a deterministic DES --- *)

(* a small, fast cluster: 3 machines x 2 cores, light scavenger batch,
   no PGO (placement mechanics are what these tests exercise) *)
let small_params =
  {
    CH.default_params with
    CH.machines = 3;
    cores = 2;
    pgo = false;
    requests = 48;
    interarrival = 1500;
    seed = 11;
  }

let counter r k = try List.assoc k r.CH.result.Cluster.counters with Not_found -> 0

(* The cluster config [Cluster.Harness.run] builds from its params. *)
let cluster_config (p : CH.params) =
  {
    Cluster.machines = p.CH.machines;
    policy = p.CH.policy;
    lb = p.CH.lb;
    net = p.CH.net;
    defense = p.CH.defense;
    slo_deadline = p.CH.slo_deadline;
    seed = p.CH.seed;
    faults = p.CH.faults;
    horizon = p.CH.horizon;
  }

(* Every entry refuses bad input before it runs anything: the harness's
   own rules, then [Cluster.validate]'s, which [Cluster.run] checks
   before it builds a node. *)
let test_harness_validation () =
  let refuses label msg f =
    Alcotest.check_raises label (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let with_faults faults = { small_params with CH.faults } in
  refuses "machines = 0" "Cluster: machines must be positive (got 0)" (fun () ->
      CH.run { small_params with CH.machines = 0 });
  refuses "cores = 0" "Cluster.Harness: cores must be positive (got 0)" (fun () ->
      CH.run { small_params with CH.cores = 0 });
  refuses "requests = 0" "Cluster.Harness: requests must be positive (got 0)" (fun () ->
      CH.run { small_params with CH.requests = 0 });
  refuses "interarrival < 0" "Cluster.Harness: interarrival must be >= 0 (got -1)" (fun () ->
      CH.run { small_params with CH.interarrival = -1 });
  refuses "skew = nan" "Cluster.Harness: skew must be finite (got nan)" (fun () ->
      CH.run { small_params with CH.skew = Float.nan });
  refuses "single-machine fault"
    "Cluster: drift is a single-machine fault; a cluster takes crash | slownode | netloss | \
     nicdrop" (fun () -> CH.run (with_faults [ Faults.Drift { shrink = 128 } ]));
  (* a crash or slow node one past the last machine, through each entry *)
  let m = small_params.CH.machines in
  List.iter
    (fun f ->
      let name = Faults.name f in
      let msg = Printf.sprintf "Cluster: %s machine %d out of range (machines=%d)" name m m in
      refuses (name ^ " via Cluster.Harness.run") msg (fun () -> CH.run (with_faults [ f ]));
      refuses (name ^ " via fault_rows") msg (fun () -> CH.fault_rows small_params [ f ]);
      refuses (name ^ " via Cluster.run") msg (fun () ->
          Cluster.run
            (cluster_config (with_faults [ f ]))
            ~node:(fun ~machine:_ ~restart:_ -> Alcotest.fail "a node was built")
            ~requests:[]))
    [
      Faults.Crash { machine = m; at = 50; percent = true; down = 0 };
      Faults.Slownode { machine = m; mult = 6 };
    ]

(* [Cluster.validate] checks the net, and a defense's timeout against
   the SLO deadline: both entries refuse a bad one before a node is
   built. *)
let test_config_validation () =
  let refuses label msg p =
    Alcotest.check_raises (label ^ " via Cluster.Harness.run") (Invalid_argument msg) (fun () ->
        ignore (CH.run p));
    Alcotest.check_raises (label ^ " via Cluster.run") (Invalid_argument msg) (fun () ->
        ignore
          (Cluster.run (cluster_config p)
             ~node:(fun ~machine:_ ~restart:_ -> Alcotest.fail "a node was built")
             ~requests:[]))
  in
  let net = small_params.CH.net in
  refuses "fast path above dispatch"
    "Netconfig: fast path must not cost more than the dispatch queue"
    {
      small_params with
      CH.net = { net with Netconfig.fast_path_cost = net.Netconfig.dispatch_cost + 1 };
    };
  refuses "zero wire latency" "Netconfig: wire_latency must be positive"
    { small_params with CH.net = { net with Netconfig.wire_latency = 0 } };
  let slo = small_params.CH.slo_deadline in
  refuses "timeout above the SLO deadline"
    (Printf.sprintf "Cluster: defense timeout %d exceeds slo_deadline %d" (slo + 1) slo)
    { small_params with CH.defense = Some { Defense.default with Defense.timeout = slo + 1 } }

let test_replay_determinism () =
  let defense, slo = CH.calibrate small_params in
  let p =
    {
      small_params with
      CH.defense = Some defense;
      slo_deadline = slo;
      faults = [ Faults.Crash { machine = 0; at = 40; percent = true; down = 0 } ];
    }
  in
  let a = CH.run p and b = CH.run p in
  Alcotest.(check int) "same makespan" a.CH.result.Cluster.cycles b.CH.result.Cluster.cycles;
  Alcotest.(check int) "same acks" a.CH.result.Cluster.acked b.CH.result.Cluster.acked;
  Alcotest.(check bool) "every counter identical" true
    (a.CH.result.Cluster.counters = b.CH.result.Cluster.counters)

let test_retry_budget_exhaustion () =
  let defense, slo = CH.calibrate small_params in
  (* heavy symmetric loss, retries as the only defense *)
  let arm pct =
    CH.run
      {
        small_params with
        CH.defense =
          Some
            {
              defense with
              Defense.max_retries = 3;
              retry_budget_pct = pct;
              hedge_after = 0;
              brownout_depth = 0;
            };
        slo_deadline = slo;
        faults = [ Faults.Netloss { p = 0.4; reorder = 0.0 } ];
      }
  in
  let starved = arm 10 and funded = arm 100 in
  let cap =
    Defense.retry_budget
      { Defense.default with Defense.max_retries = 3; retry_budget_pct = 10 }
      ~offered:small_params.CH.requests
  in
  let starved_retries = counter starved "client.retries" in
  Alcotest.(check bool) "the budget is consumed" true (starved_retries > 0);
  Alcotest.(check bool)
    (Printf.sprintf "cluster-wide retries capped at %d" cap)
    true (starved_retries <= cap);
  Alcotest.(check bool) "a full budget retries more" true
    (counter funded "client.retries" > starved_retries);
  Alcotest.(check bool) "and recovers more requests" true
    (funded.CH.result.Cluster.acked >= starved.CH.result.Cluster.acked)

let test_hedge_cancel_on_first_response () =
  let defense, slo = CH.calibrate small_params in
  (* hedge every request immediately; no faults, so both attempts run *)
  let r =
    CH.run
      {
        small_params with
        CH.defense =
          Some
            {
              defense with
              Defense.hedge_after = 1;
              hedge_max = 1;
              max_retries = 0;
              brownout_depth = 0;
            };
        slo_deadline = slo;
      }
  in
  let res = r.CH.result in
  Alcotest.(check int) "every request acked exactly once" small_params.CH.requests
    res.Cluster.acked;
  Alcotest.(check int) "no acked request lost" 0 res.Cluster.lost_acked;
  let hedges = counter r "client.hedges" in
  Alcotest.(check int) "every request hedged" small_params.CH.requests hedges;
  (* first response wins; the loser's response is discarded, not
     double-acked (losers still in flight when the last request
     resolves drain with the run and are never counted) *)
  let wins = counter r "client.hedge_wins" and losses = counter r "client.hedge_losses" in
  Alcotest.(check bool) "some hedges beat the primary" true (wins > 0);
  Alcotest.(check bool) "losing responses are discarded" true (losses > 0);
  Alcotest.(check bool) "at most one discarded response per hedged pair" true
    (wins <= hedges && losses <= hedges);
  Array.iter
    (fun (rq : Cluster.rq) ->
      Alcotest.(check bool) "acked" true (rq.Cluster.outcome = Cluster.Acked);
      Alcotest.(check int) "primary + one hedge" 2 (List.length rq.Cluster.attempts);
      (* the winning attempt is the one on the winner's machine *)
      let winner, loser =
        match rq.Cluster.attempts with
        | [ a; b ] when a.Cluster.a_machine = rq.Cluster.winner -> (a, b)
        | [ a; b ] -> (b, a)
        | _ -> Alcotest.fail "attempt count"
      in
      Alcotest.(check int) "a winning attempt ran on the winner" rq.Cluster.winner
        winner.Cluster.a_machine;
      Alcotest.(check bool) "attempts target distinct machines" true
        (winner.Cluster.a_machine <> loser.Cluster.a_machine))
    res.Cluster.requests

let test_quarantine_probe_readmission () =
  (* transient crash: attempt timeouts strike machine 0 into
     quarantine, health probes re-admit it once the replacement replica
     is up. Hedging is off so timeouts are the only failure signal. *)
  let base = CH.run small_params in
  let p99 = max 1 base.CH.result.Cluster.split.Latency.goodput.Latency.p99 in
  let defense =
    {
      Defense.timeout = p99;
      max_retries = 3;
      retry_budget_pct = 100;
      backoff = 200;
      hedge_after = 0;
      hedge_max = 1;
      probe_interval = max 1 (p99 / 8);
      strike_threshold = 1;
      brownout_depth = 0;
    }
  in
  let r =
    CH.run
      {
        small_params with
        CH.defense = Some defense;
        slo_deadline = 16 * p99;
        faults = [ Faults.Crash { machine = 0; at = 30; percent = true; down = p99 / 2 } ];
      }
  in
  let res = r.CH.result in
  Alcotest.(check int) "one crash" 1 (counter r "faults.crashes");
  Alcotest.(check int) "one recovery" 1 (counter r "faults.recoveries");
  Alcotest.(check int) "replacement replica built" 1 res.Cluster.nodes.(0).Cluster.restarts;
  Alcotest.(check bool) "timeout strikes quarantined the node" true
    (counter r "lb.quarantines" >= 1);
  Alcotest.(check bool) "probes ran" true (counter r "lb.probes" >= 1);
  Alcotest.(check bool) "a probe re-admitted it" true (counter r "lb.readmissions" >= 1);
  Alcotest.(check int) "every request eventually acked" small_params.CH.requests
    res.Cluster.acked;
  Alcotest.(check int) "failover lost no acked request" 0 res.Cluster.lost_acked

(* --- Replica images and the horizon --- *)

(* Incarnations share one generated image until they write it: running
   the first to completion (its scavengers write lane 0's accumulators)
   must leave the second's image as the first read before it ran. *)
let test_incarnation_isolation () =
  let p = { CH.default_params with CH.requests = 64 } in
  let node = CH.node_factory p in
  let first = node ~machine:0 ~restart:0 and second = node ~machine:1 ~restart:0 in
  let image (impl : Cluster.node_impl) =
    let m = impl.Cluster.mem in
    Array.init ((Address_space.used_bytes m + 7) / 8) (fun w -> Address_space.load m (8 * w))
  in
  let before = image first in
  let module M = Stallhide_smp.Machine in
  let requests =
    List.map
      (fun (q : Cluster.spec) ->
        M.request ~rid:q.Cluster.rid ~key:q.Cluster.key
          ~home:(Stallhide_sched.Dispatch.home ~shards:p.CH.cores q.Cluster.key)
          ~arrival:q.Cluster.send
          (first.Cluster.make_ctx ~rid:q.Cluster.rid ~attempt:0))
      (CH.trace p)
  in
  let r =
    M.run ~config:first.Cluster.config ~policy:p.CH.policy ~mem:first.Cluster.mem ~requests
      ~scavengers:first.Cluster.scavengers ()
  in
  Alcotest.(check int) "the first ran to completion" p.CH.requests r.M.completed;
  Alcotest.(check bool) "its scavengers wrote its image" true (image first <> before);
  Alcotest.(check (array int)) "the second still reads the generated image" before (image second);
  Alcotest.(check bool) "distinct images" true (first.Cluster.mem != second.Cluster.mem)

(* A run the horizon cuts off reports the requests it left pending as
   truncated, not unanswered, and drops them in the latency split. *)
let test_horizon_truncates () =
  let cut = CH.run { small_params with CH.machines = 1; horizon = 20_000 } in
  let r = cut.CH.result in
  Alcotest.(check bool) "requests cut off" true (r.Cluster.truncated > 0);
  Alcotest.(check int) "none unanswered" 0 r.Cluster.unanswered;
  Alcotest.(check int) "outcomes" r.Cluster.truncated
    (Array.fold_left
       (fun n (q : Cluster.rq) -> if q.Cluster.outcome = Cluster.Truncated then n + 1 else n)
       0 r.Cluster.requests);
  Alcotest.(check int) "counter" r.Cluster.truncated (counter cut "client.truncated");
  Alcotest.(check int) "dropped in the split"
    (r.Cluster.expired + r.Cluster.shed + r.Cluster.truncated)
    r.Cluster.split.Latency.dropped;
  Alcotest.(check int) "a default-size run is not truncated" 0
    (CH.run small_params).CH.result.Cluster.truncated

(* --- Tracing parity: streams on or off, the same cluster --- *)

(* [Cluster.Harness.run] from its public parts, with every node's
   [Machine.config.trace] forced to [trace] *)
let run_traced ~trace (p : CH.params) =
  let kv_program, scav_program, _, _ = Stallhide_smp.Harness.instrument_twins (CH.smp_params p) in
  let factory = CH.node_factory ~kv_program ~scav_program p in
  let node ~machine ~restart =
    let impl = factory ~machine ~restart in
    { impl with Cluster.config = { impl.Cluster.config with Stallhide_smp.Machine.trace } }
  in
  Cluster.run (cluster_config p) ~node ~requests:(CH.trace p)

let check_trace_parity (p : CH.params) =
  let module M = Stallhide_smp.Machine in
  let on = run_traced ~trace:true p and off = run_traced ~trace:false p in
  let same label eq = Alcotest.(check bool) label true eq in
  Alcotest.(check int) "cycles" on.Cluster.cycles off.Cluster.cycles;
  same "outcome counts"
    ((on.Cluster.acked, on.Cluster.expired, on.Cluster.shed, on.Cluster.unanswered,
      on.Cluster.truncated, on.Cluster.lost_acked)
    = (off.Cluster.acked, off.Cluster.expired, off.Cluster.shed, off.Cluster.unanswered,
       off.Cluster.truncated, off.Cluster.lost_acked));
  same "latency split" (on.Cluster.split = off.Cluster.split);
  same "counters" (on.Cluster.counters = off.Cluster.counters);
  Array.iteri
    (fun i (a : Cluster.node_view) ->
      let b = off.Cluster.nodes.(i) in
      let node label = Printf.sprintf "node %d %s" i label in
      same (node "completed, cycles")
        ((a.Cluster.completed, a.Cluster.cycles, a.Cluster.restarts)
        = (b.Cluster.completed, b.Cluster.cycles, b.Cluster.restarts));
      same (node "nic counts")
        ((a.Cluster.nic_rx, a.Cluster.nic_fast, a.Cluster.nic_overflow, a.Cluster.nic_tx)
        = (b.Cluster.nic_rx, b.Cluster.nic_fast, b.Cluster.nic_overflow, b.Cluster.nic_tx));
      match (a.Cluster.result, b.Cluster.result) with
      | None, None -> ()
      | Some ra, Some rb ->
          Array.iteri
            (fun c (ca : M.core_result) ->
              let cb = rb.M.per_core.(c) in
              let core label = node (Printf.sprintf "core %d %s" c label) in
              Alcotest.(check int) (core "cycles") ca.M.cycles cb.M.cycles;
              same (core "scheduler stats") (ca.M.stats = cb.M.stats);
              same (core "memory stats") (ca.M.mem = cb.M.mem);
              Alcotest.(check (list int)) (core "sojourns") ca.M.sojourns cb.M.sojourns)
            ra.M.per_core
      | _ -> Alcotest.fail (node "crashed in one arm only"))
    on.Cluster.nodes;
  on

let test_trace_parity_default () =
  let r = check_trace_parity CH.default_params in
  Alcotest.(check int) "all acked" CH.default_params.CH.requests r.Cluster.acked

let test_trace_parity_crash_mix () =
  let defense, slo = CH.calibrate CH.default_params in
  let p =
    {
      CH.default_params with
      CH.defense = Some defense;
      slo_deadline = slo;
      faults =
        [
          Faults.Crash { machine = 0; at = 40; percent = true; down = 20_000 };
          Faults.Slownode { machine = 1; mult = 6 };
        ];
    }
  in
  let r = check_trace_parity p in
  let count k = List.assoc k r.Cluster.counters in
  Alcotest.(check int) "a crash" 1 (count "faults.crashes");
  Alcotest.(check int) "and a rebuild" 1 (count "faults.recoveries");
  Alcotest.(check int) "failover lost no acked request" 0 r.Cluster.lost_acked

let () =
  Alcotest.run "cluster"
    [
      ( "netconfig",
        [
          Alcotest.test_case "cost model" `Quick test_netconfig_costs;
          Alcotest.test_case "validation" `Quick test_netconfig_validation;
        ] );
      ("nic", [ Alcotest.test_case "finite rx ring" `Quick test_nic_ring ]);
      ( "link",
        [
          Alcotest.test_case "pristine pricing" `Quick test_link_pristine;
          Alcotest.test_case "loss and reorder" `Quick test_link_loss_and_reorder;
          Alcotest.test_case "seeded determinism" `Quick test_link_determinism;
          Alcotest.test_case "NaN knobs refused" `Quick test_link_rejects_nan;
        ] );
      ( "defense",
        [
          Alcotest.test_case "validation" `Quick test_defense_validation;
          Alcotest.test_case "backoff jitter determinism" `Quick test_backoff_jitter;
          Alcotest.test_case "retry budget" `Quick test_retry_budget;
        ] );
      ( "lb",
        [
          Alcotest.test_case "quarantine cycle" `Quick test_lb_quarantine_cycle;
          Alcotest.test_case "exclusion" `Quick test_lb_exclusion;
          Alcotest.test_case "seeded determinism" `Quick test_lb_determinism;
        ] );
      ("faults", [ Alcotest.test_case "net fault specs" `Quick test_net_fault_specs ]);
      ("latency", [ Alcotest.test_case "censored split" `Quick test_censored_split ]);
      ( "cluster",
        [
          Alcotest.test_case "harness validation" `Quick test_harness_validation;
          Alcotest.test_case "net and timeout validation" `Quick test_config_validation;
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
          Alcotest.test_case "retry-budget exhaustion" `Quick test_retry_budget_exhaustion;
          Alcotest.test_case "hedge cancel on first response" `Quick
            test_hedge_cancel_on_first_response;
          Alcotest.test_case "quarantine, probe, re-admission" `Quick
            test_quarantine_probe_readmission;
          Alcotest.test_case "incarnations fork one image" `Quick test_incarnation_isolation;
          Alcotest.test_case "horizon stop is truncation" `Quick test_horizon_truncates;
          Alcotest.test_case "tracing parity, default params" `Quick test_trace_parity_default;
          Alcotest.test_case "tracing parity, defended crash + slow node" `Quick
            test_trace_parity_crash_mix;
        ] );
    ]
