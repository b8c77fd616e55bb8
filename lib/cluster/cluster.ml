open Stallhide_cpu
open Stallhide_mem
open Stallhide_runtime
open Stallhide_sched
open Stallhide_smp
open Stallhide_net
module Faults = Stallhide_faults.Faults
module Json = Stallhide_util.Json

(* --- event heap: (time, seq) min-heap; seq breaks ties FIFO --- *)

module Heap = struct
  type 'a t = { mutable a : (int * int * 'a) array; mutable len : int; mutable seq : int }

  let create () = { a = [||]; len = 0; seq = 0 }

  let less (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2)

  let push h time v =
    let e = (time, h.seq, v) in
    h.seq <- h.seq + 1;
    if h.len = Array.length h.a then begin
      let cap = max 64 (2 * h.len) in
      let a' = Array.make cap e in
      Array.blit h.a 0 a' 0 h.len;
      h.a <- a'
    end;
    h.a.(h.len) <- e;
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && less h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let peek_time h = if h.len = 0 then None else (fun (t, _, _) -> Some t) h.a.(0)

  let pop h =
    if h.len = 0 then invalid_arg "Heap.pop: empty";
    let (t, _, v) = h.a.(0) in
    h.len <- h.len - 1;
    h.a.(0) <- h.a.(h.len);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && less h.a.(l) h.a.(!smallest) then smallest := l;
      if r < h.len && less h.a.(r) h.a.(!smallest) then smallest := r;
      if !smallest = !i then continue_ := false
      else begin
        let tmp = h.a.(!smallest) in
        h.a.(!smallest) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !smallest
      end
    done;
    (t, v)
end

(* --- requests --- *)

type spec = { rid : int; key : int; send : int }

type attempt_kind = First | Retry | Hedge

type attempt = {
  a_ix : int;
  a_machine : int;
  a_kind : attempt_kind;
  a_sent : int;
  mutable a_ctx : Context.t option;
  mutable a_done : bool;
  mutable a_timed : bool;
}

type outcome = Pending | Acked | Expired | Shed | Unanswered | Truncated

type rq = {
  spec : spec;
  mutable attempts : attempt list;  (* in dispatch (a_ix) order *)
  mutable tried : int list;
  mutable retries : int;
  mutable hedges : int;
  mutable done_at : int;
  mutable winner : int;
  mutable winner_ctx : Context.t option;
  mutable outcome : outcome;
}

(* --- nodes --- *)

type node_impl = {
  config : Machine.config;
  mem : Address_space.t;
  scavengers : Context.t list array;
  make_ctx : rid:int -> attempt:int -> Context.t;
}

type node = {
  nid : int;
  mutable impl : node_impl;
  mutable live : Machine.Live.t option;
  nic : Nic.t;
  mutable crashed : bool;
  mutable restarts : int;
  mutable snapshots : Machine.result list;  (* crashed incarnations, newest first *)
  inflight : (int, int * int) Hashtbl.t;  (* ctx id -> (rid, attempt ix) *)
}

type node_view = {
  id : int;
  crashed : bool;
  restarts : int;
  completed : int;  (* across incarnations *)
  cycles : int;  (* max incarnation clock *)
  nic_rx : int;
  nic_fast : int;
  nic_overflow : int;
  nic_tx : int;
  result : Machine.result option;  (* final incarnation, None while crashed *)
}

type config = {
  machines : int;
  policy : Dispatch.policy;
  lb : Lb.policy;
  net : Netconfig.t;
  defense : Defense.t option;
  slo_deadline : int;
  seed : int;
  faults : Faults.fault list;
  horizon : int;
}

type result = {
  cycles : int;
  offered : int;
  acked : int;
  expired : int;
  shed : int;
  unanswered : int;
  truncated : int;
  lost_acked : int;
  split : Latency.split;
  requests : rq array;
  nodes : node_view array;
  brownout_engaged : int;
  counters : (string * int) list;
}

type ev =
  | Send of int
  | Deliver of { rid : int; aix : int; m : int }
  | Respond of { rid : int; aix : int; m : int }
  | Timeout of { rid : int; aix : int }
  | RetryAt of int
  | HedgeFire of int
  | ExpireAt of int
  | Probe of int
  | ProbeReply of { m : int; ok : bool }
  | CrashAt of { m : int; down : int }
  | RecoverAt of int

let validate c =
  let fail fmt = Printf.ksprintf invalid_arg ("Cluster: " ^^ fmt) in
  if c.machines <= 0 then fail "machines must be positive (got %d)" c.machines;
  if c.slo_deadline <= 0 then fail "slo_deadline must be positive (got %d)" c.slo_deadline;
  List.iter
    (fun f ->
      if not (Faults.is_net f) then
        fail "%s is a single-machine fault; a cluster takes %s" (Faults.name f)
          (String.concat " | " Faults.net_fault_names);
      match f with
      | Faults.Crash { machine; _ } | Faults.Slownode { machine; _ }
        when machine < 0 || machine >= c.machines ->
          fail "%s machine %d out of range (machines=%d)" (Faults.name f) machine c.machines
      | _ -> ())
    c.faults;
  Netconfig.validate c.net;
  Option.iter
    (fun (d : Defense.t) ->
      Defense.validate d;
      if d.timeout > c.slo_deadline then
        fail "defense timeout %d exceeds slo_deadline %d" d.timeout c.slo_deadline)
    c.defense

let run c ~node:make_impl ~requests =
  validate c;
  let reqs = Array.of_list requests in
  Array.iteri
    (fun i (s : spec) ->
      if i > 0 && s.send < reqs.(i - 1).send then
        invalid_arg "Cluster.run: requests must be sorted by send time")
    reqs;
  let plan = Faults.no_faults ~seed:c.seed in
  let sub salt = Faults.sub_seed plan ~salt in
  (* net-fault knobs *)
  let loss, reorder =
    List.fold_left
      (fun acc f -> match f with Faults.Netloss { p; reorder } -> (p, reorder) | _ -> acc)
      (0.0, 0.0) c.faults
  in
  let rx_depth =
    List.fold_left
      (fun acc f -> match f with Faults.Nicdrop { depth } -> min acc depth | _ -> acc)
      c.net.Netconfig.rx_depth c.faults
  in
  let slow_mult m =
    List.fold_left
      (fun acc f ->
        match f with Faults.Slownode { machine; mult } when machine = m -> max acc mult | _ -> acc)
      1 c.faults
  in
  let last_send = Array.fold_left (fun acc (s : spec) -> max acc s.send) 0 reqs in
  let link = Link.create ~loss ~reorder ~seed:(sub 11) () in
  let lb = Lb.create c.lb ~machines:c.machines ~seed:(sub 12) in
  let heap = Heap.create () in
  let rq_of = Hashtbl.create (Array.length reqs) in
  let rqs =
    Array.map
      (fun (s : spec) ->
        if Hashtbl.mem rq_of s.rid then invalid_arg "Cluster.run: duplicate rid";
        let r =
          {
            spec = s;
            attempts = [];
            tried = [];
            retries = 0;
            hedges = 0;
            done_at = -1;
            winner = -1;
            winner_ctx = None;
            outcome = Pending;
          }
        in
        Hashtbl.replace rq_of s.rid r;
        r)
      reqs
  in
  (* counters *)
  let acked = ref 0 and expired = ref 0 and shed = ref 0 in
  let retries = ref 0 and hedges = ref 0 and hedge_wins = ref 0 and hedge_losses = ref 0 in
  let hedges_suppressed = ref 0 and late_responses = ref 0 in
  let req_lost = ref 0 and resp_lost = ref 0 and dead_deliveries = ref 0 in
  let crashes = ref 0 and recoveries = ref 0 and probes = ref 0 in
  let brownout_engaged = ref 0 and brownout_shed = ref 0 in
  let lost_acked = ref 0 in
  let unresolved = ref (Array.length rqs) in
  let brownout = ref false in
  let est_sojourn = ref 0 in
  let retry_tokens =
    ref
      (match c.defense with
      | Some d -> Defense.retry_budget d ~offered:(Array.length reqs)
      | None -> 0)
  in
  (* nodes *)
  let wrap_slow m (cfg : Machine.config) =
    let mult = slow_mult m in
    if mult = 1 then cfg
    else
      {
        cfg with
        Machine.prepare_core =
          (fun core hier ->
            cfg.Machine.prepare_core core hier;
            Hierarchy.inject_spike hier ~from_cycle:0 ~until_cycle:max_int ~l3_mult:mult
              ~dram_mult:mult);
      }
  in
  let nodes =
    Array.init c.machines (fun m ->
        let impl = make_impl ~machine:m ~restart:0 in
        {
          nid = m;
          impl = { impl with config = wrap_slow m impl.config };
          live = None;
          nic = Nic.create ~depth:rx_depth;
          crashed = false;
          restarts = 0;
          snapshots = [];
          inflight = Hashtbl.create 64;
        })
  in
  let resolve (r : rq) o =
    r.outcome <- o;
    decr unresolved
  in
  let create_live (nd : node) =
    let live =
      Machine.Live.create ~config:nd.impl.config ~policy:c.policy ~mem:nd.impl.mem
        ~scavengers:nd.impl.scavengers ()
    in
    if !brownout then Machine.Live.set_scavengers_enabled live false;
    Machine.Live.set_on_complete live (fun (req : Machine.request) ~core:_ ~now ->
        match Hashtbl.find_opt nd.inflight req.Machine.ctx.Context.id with
        | None -> ()
        | Some (rid, aix) ->
            Hashtbl.remove nd.inflight req.Machine.ctx.Context.id;
            Nic.sent nd.nic;
            let cost =
              Netconfig.tx_cost c.net nd.impl.config.Machine.memcfg
                ~bytes:c.net.Netconfig.resp_bytes
            in
            (match Link.transit link ~now ~cost with
            | None -> incr resp_lost
            | Some at -> Heap.push heap at (Respond { rid; aix; m = nd.nid })));
    live
  in
  Array.iter (fun nd -> nd.live <- Some (create_live nd)) nodes;
  (* Each machine's next-action time, [max_int] when it has none or is
     down. It depends only on that machine's own state, which only a
     step, a delivery, a crash or a rebuild changes, so the entry is
     refreshed at exactly those four points instead of re-polling
     every machine per loop iteration. *)
  let next_at = Array.make c.machines max_int in
  let refresh m =
    next_at.(m) <-
      (match nodes.(m).live with
      | Some l when not nodes.(m).crashed -> (
          match Machine.Live.next_action l with Some t -> t | None -> max_int)
      | _ -> max_int)
  in
  Array.iteri (fun m _ -> refresh m) nodes;
  let backlog_of m =
    match nodes.(m).live with Some l when not nodes.(m).crashed -> Machine.Live.backlog l | _ -> 0
  in
  let set_brownout on =
    if on <> !brownout then begin
      brownout := on;
      if on then incr brownout_engaged;
      Array.iter
        (fun nd ->
          match nd.live with
          | Some l -> Machine.Live.set_scavengers_enabled l (not on)
          | None -> ())
        nodes
    end
  in
  let eval_brownout () =
    match c.defense with
    | Some d when d.Defense.brownout_depth > 0 ->
        let sum = ref 0 and n = ref 0 in
        Array.iter
          (fun (nd : node) ->
            if not nd.crashed then begin
              sum := !sum + backlog_of nd.nid;
              incr n
            end)
          nodes;
        let mean = if !n = 0 then 0 else !sum / !n in
        if !brownout then begin
          if mean * 2 <= d.Defense.brownout_depth then set_brownout false
        end
        else if mean > d.Defense.brownout_depth then set_brownout true
    | _ -> ()
  in
  let attempt_of (r : rq) aix = List.nth r.attempts aix in
  (* dispatch one attempt; false when no eligible machine *)
  let dispatch (r : rq) kind ~now =
    match Lb.choose lb ~key:r.spec.key ~backlog:backlog_of ~exclude:r.tried with
    | None -> false
    | Some m ->
        let deadline_shed =
          (* brownout: shed a request that cannot meet its deadline
             instead of queueing it to certain death *)
          !brownout && kind <> Hedge
          && now + !est_sojourn > r.spec.send + c.slo_deadline
        in
        if deadline_shed then begin
          resolve r Shed;
          incr shed;
          incr brownout_shed;
          true
        end
        else begin
          let aix = List.length r.attempts in
          let att =
            { a_ix = aix; a_machine = m; a_kind = kind; a_sent = now; a_ctx = None;
              a_done = false; a_timed = false }
          in
          r.attempts <- r.attempts @ [ att ];
          r.tried <- m :: r.tried;
          let cost =
            Netconfig.rx_cost c.net nodes.(m).impl.config.Machine.memcfg
              ~bytes:c.net.Netconfig.req_bytes
          in
          (match Link.transit link ~now ~cost with
          | None -> incr req_lost
          | Some at -> Heap.push heap at (Deliver { rid = r.spec.rid; aix; m }));
          (match c.defense with
          | Some d -> Heap.push heap (now + d.Defense.timeout) (Timeout { rid = r.spec.rid; aix })
          | None -> ());
          true
        end
  in
  (* arm the trace *)
  Array.iter (fun (s : spec) -> Heap.push heap s.send (Send s.rid)) reqs;
  List.iter
    (fun f ->
      match f with
      | Faults.Crash { machine; at; percent; down } ->
          let at_cycles = if percent then at * last_send / 100 else at in
          Heap.push heap at_cycles (CrashAt { m = machine; down })
      | _ -> ())
    c.faults;
  (match c.defense with
  | Some d ->
      Array.iteri
        (fun m _ -> Heap.push heap (d.Defense.probe_interval + m) (Probe m))
        nodes
  | None -> ());
  let probe_rtt =
    Netconfig.rtt c.net nodes.(0).impl.config.Machine.memcfg
  in
  (* --- event handlers --- *)
  let handle now = function
    | Send rid ->
        let r = Hashtbl.find rq_of rid in
        (match c.defense with
        | Some _ -> Heap.push heap (r.spec.send + c.slo_deadline + 1) (ExpireAt rid)
        | None -> ());
        ignore (dispatch r First ~now);
        (match (c.defense, r.outcome) with
        | Some d, Pending when d.Defense.hedge_after > 0 && d.Defense.hedge_max > 0 ->
            Heap.push heap (now + d.Defense.hedge_after) (HedgeFire rid)
        | _ -> ())
    | Deliver { rid; aix; m } -> (
        let r = Hashtbl.find rq_of rid in
        let att = attempt_of r aix in
        let nd = nodes.(m) in
        match nd.live with
        | None -> incr dead_deliveries
        | Some _ when nd.crashed -> incr dead_deliveries
        | Some live ->
            let lean = Netconfig.lean c.net ~bytes:c.net.Netconfig.req_bytes in
            if Nic.admit nd.nic ~backlog:(Machine.Live.backlog live) ~lean then begin
              let ctx = nd.impl.make_ctx ~rid ~attempt:aix in
              att.a_ctx <- Some ctx;
              Hashtbl.replace nd.inflight ctx.Context.id (rid, aix);
              let home =
                Dispatch.home ~shards:nd.impl.config.Machine.cores r.spec.key
              in
              Machine.Live.submit live
                (Machine.request ~rid ~key:r.spec.key ~home ~arrival:now ctx);
              refresh m;
              eval_brownout ()
            end)
    | Respond { rid; aix; m } -> (
        let r = Hashtbl.find rq_of rid in
        let att = attempt_of r aix in
        att.a_done <- true;
        Lb.clear_strikes lb m;
        match r.outcome with
        | Pending ->
            r.done_at <- now;
            r.winner <- m;
            r.winner_ctx <- att.a_ctx;
            resolve r Acked;
            incr acked;
            est_sojourn := !est_sojourn + (((now - r.spec.send) - !est_sojourn) / 8);
            if att.a_kind = Hedge then incr hedge_wins;
            eval_brownout ()
        | Acked -> incr hedge_losses
        | Expired | Shed | Unanswered | Truncated -> incr late_responses)
    | Timeout { rid; aix } -> (
        let r = Hashtbl.find rq_of rid in
        let att = attempt_of r aix in
        if r.outcome = Pending && (not att.a_done) && not att.a_timed then begin
          att.a_timed <- true;
          match c.defense with
          | None -> ()
          | Some d ->
              ignore (Lb.strike lb att.a_machine ~threshold:d.Defense.strike_threshold);
              if
                r.retries < d.Defense.max_retries
                && !retry_tokens > 0
                && now < r.spec.send + c.slo_deadline
              then begin
                decr retry_tokens;
                r.retries <- r.retries + 1;
                incr retries;
                let delay =
                  Defense.backoff_delay d ~seed:(sub 13) ~rid ~attempt:r.retries
                in
                Heap.push heap (now + delay) (RetryAt rid)
              end
        end)
    | RetryAt rid ->
        let r = Hashtbl.find rq_of rid in
        if r.outcome = Pending && now <= r.spec.send + c.slo_deadline then
          ignore (dispatch r Retry ~now)
    | HedgeFire rid -> (
        let r = Hashtbl.find rq_of rid in
        match c.defense with
        | Some d when r.outcome = Pending && now <= r.spec.send + c.slo_deadline ->
            if !brownout then incr hedges_suppressed
            else if r.hedges < d.Defense.hedge_max then begin
              if dispatch r Hedge ~now then begin
                r.hedges <- r.hedges + 1;
                incr hedges
              end;
              if r.hedges < d.Defense.hedge_max then
                Heap.push heap (now + d.Defense.hedge_after) (HedgeFire rid)
            end
        | _ -> ())
    | ExpireAt rid ->
        let r = Hashtbl.find rq_of rid in
        if r.outcome = Pending then begin
          resolve r Expired;
          incr expired
        end
    | Probe m ->
        if !unresolved > 0 then begin
          incr probes;
          let ok = not nodes.(m).crashed in
          Heap.push heap (now + probe_rtt) (ProbeReply { m; ok });
          (match c.defense with
          | Some d -> Heap.push heap (now + d.Defense.probe_interval) (Probe m)
          | None -> ())
        end
    | ProbeReply { m; ok } -> (
        match c.defense with
        | None -> ()
        | Some d ->
            if ok then ignore (Lb.readmit lb m)
            else ignore (Lb.strike lb m ~threshold:d.Defense.strike_threshold))
    | CrashAt { m; down } ->
        let nd = nodes.(m) in
        if not nd.crashed then begin
          incr crashes;
          nd.crashed <- true;
          (match nd.live with
          | Some l -> nd.snapshots <- Machine.Live.finish l :: nd.snapshots
          | None -> ());
          nd.live <- None;
          refresh m;
          Hashtbl.reset nd.inflight;
          if down > 0 then Heap.push heap (now + down) (RecoverAt m)
        end
    | RecoverAt m ->
        let nd = nodes.(m) in
        if nd.crashed then begin
          incr recoveries;
          nd.restarts <- nd.restarts + 1;
          let impl = make_impl ~machine:m ~restart:nd.restarts in
          nd.impl <- { impl with config = wrap_slow m impl.config };
          nd.crashed <- false;
          nd.live <- Some (create_live nd);
          refresh m
        end
  in
  (* --- main loop: interleave machine stepping with event delivery,
     always acting at the globally smallest time --- *)
  let finished = ref false and at_horizon = ref false in
  let horizon_stop () =
    finished := true;
    at_horizon := true
  in
  let last_event_time = ref 0 in
  let step m =
    ignore (Machine.Live.step (Option.get nodes.(m).live));
    refresh m
  in
  while (not !finished) && !unresolved > 0 do
    let t_ev = Heap.peek_time heap in
    (* lowest next-action time, lowest id on ties *)
    let best = ref (-1) and best_t = ref max_int in
    for m = 0 to c.machines - 1 do
      if next_at.(m) < !best_t then begin
        best := m;
        best_t := next_at.(m)
      end
    done;
    match (t_ev, !best) with
    | None, -1 -> finished := true
    | Some t, -1 ->
        if t > c.horizon then horizon_stop ()
        else begin
          let t, ev = Heap.pop heap in
          last_event_time := max !last_event_time t;
          handle t ev
        end
    | None, m -> if !best_t > c.horizon then horizon_stop () else step m
    | Some t, m ->
        if min t !best_t > c.horizon then horizon_stop ()
        else if t <= !best_t then begin
          let t, ev = Heap.pop heap in
          last_event_time := max !last_event_time t;
          handle t ev
        end
        else step m
  done;
  (* Drain surviving replicas to quiescence so [cycles] is the makespan
     of all admitted work — scavenger batches, losing hedge attempts —
     and not just the last ack. The per-node completion counters after
     this drain are what the cluster oracle's work-conservation
     invariant compares. *)
  Array.iter
    (fun (nd : node) ->
      match nd.live with
      | Some l when not nd.crashed ->
          let more = ref true in
          while !more do
            match Machine.Live.next_action l with
            | Some t when t <= c.horizon -> ignore (Machine.Live.step l)
            | _ -> more := false
          done
      | _ -> ())
    nodes;
  (* Requests still pending were never answered. If the run stopped at
     the horizon with work left, they were cut off, not lost. *)
  let unanswered = ref 0 and truncated = ref 0 in
  Array.iter
    (fun r ->
      if r.outcome = Pending then
        if !at_horizon then begin
          r.outcome <- Truncated;
          incr truncated
        end
        else begin
          r.outcome <- Unanswered;
          incr unanswered
        end)
    rqs;
  (* the acked-payload invariant: every acked response corresponds to a
     context that actually ran to completion *)
  Array.iter
    (fun r ->
      if r.outcome = Acked then
        match r.winner_ctx with
        | Some ctx when ctx.Context.status = Context.Done -> ()
        | _ -> incr lost_acked)
    rqs;
  let views =
    Array.map
      (fun nd ->
        let final = match nd.live with Some l -> Some (Machine.Live.finish l) | None -> None in
        let incarnations =
          (match final with Some r -> [ r ] | None -> []) @ nd.snapshots
        in
        {
          id = nd.nid;
          crashed = nd.crashed;
          restarts = nd.restarts;
          completed =
            List.fold_left (fun acc (r : Machine.result) -> acc + r.Machine.completed) 0
              incarnations;
          cycles =
            List.fold_left (fun acc (r : Machine.result) -> max acc r.Machine.cycles) 0
              incarnations;
          nic_rx = Nic.rx nd.nic;
          nic_fast = Nic.fast nd.nic;
          nic_overflow = Nic.overflow nd.nic;
          nic_tx = Nic.tx nd.nic;
          result = final;
        })
      nodes
  in
  let cycles =
    Array.fold_left (fun acc (v : node_view) -> max acc v.cycles) !last_event_time views
  in
  let answered =
    Array.to_list rqs
    |> List.filter_map (fun r ->
           if r.outcome = Acked then Some (r.done_at - r.spec.send) else None)
  in
  let dropped = !expired + !shed + !unanswered + !truncated in
  let split = Latency.split ~censor:c.slo_deadline ~dropped answered in
  {
    cycles;
    offered = Array.length rqs;
    acked = !acked;
    expired = !expired;
    shed = !shed;
    unanswered = !unanswered;
    truncated = !truncated;
    lost_acked = !lost_acked;
    split;
    requests = rqs;
    nodes = views;
    brownout_engaged = !brownout_engaged;
    counters =
      [
        ("client.acked", !acked);
        ("client.expired", !expired);
        ("client.shed", !shed);
        ("client.unanswered", !unanswered);
        ("client.truncated", !truncated);
        ("client.retries", !retries);
        ("client.hedges", !hedges);
        ("client.hedge_wins", !hedge_wins);
        ("client.hedge_losses", !hedge_losses);
        ("client.hedges_suppressed", !hedges_suppressed);
        ("client.late_responses", !late_responses);
        ("lb.quarantines", Lb.quarantines lb);
        ("lb.readmissions", Lb.readmissions lb);
        ("lb.probes", !probes);
        ("net.sent", Link.sent link);
        ("net.req_lost", !req_lost);
        ("net.resp_lost", !resp_lost);
        ("net.link_dropped", Link.dropped link);
        ("net.reordered", Link.reordered link);
        ("net.dead_deliveries", !dead_deliveries);
        ("nic.overflow",
         Array.fold_left (fun acc (v : node_view) -> acc + v.nic_overflow) 0 views);
        ("faults.crashes", !crashes);
        ("faults.recoveries", !recoveries);
        ("brownout.engaged", !brownout_engaged);
        ("brownout.shed", !brownout_shed);
        ("lost_acked", !lost_acked);
      ];
  }

let to_json r =
  Json.Obj
    [
      ("cycles", Json.Int r.cycles);
      ("offered", Json.Int r.offered);
      ("acked", Json.Int r.acked);
      ("expired", Json.Int r.expired);
      ("shed", Json.Int r.shed);
      ("unanswered", Json.Int r.unanswered);
      ("truncated", Json.Int r.truncated);
      ("lost_acked", Json.Int r.lost_acked);
      ("brownout_engaged", Json.Int r.brownout_engaged);
      ("split", Latency.split_to_json r.split);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
      ( "nodes",
        Json.List
          (Array.to_list
             (Array.map
                (fun v ->
                  Json.Obj
                    [
                      ("id", Json.Int v.id);
                      ("crashed", Json.Bool v.crashed);
                      ("restarts", Json.Int v.restarts);
                      ("completed", Json.Int v.completed);
                      ("cycles", Json.Int v.cycles);
                      ("nic_rx", Json.Int v.nic_rx);
                      ("nic_fast", Json.Int v.nic_fast);
                      ("nic_overflow", Json.Int v.nic_overflow);
                      ("nic_tx", Json.Int v.nic_tx);
                    ])
                r.nodes)) );
    ]
