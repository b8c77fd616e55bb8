open Stallhide_isa
open Stallhide_cpu
open Stallhide_mem

type config = {
  engine : Engine.config;
  switch : Switch_cost.t;
  steal_budget : int;
  steal_cost : int;
}

let default_config =
  {
    engine = Engine.default_config;
    switch = Switch_cost.coroutine;
    steal_budget = 1;
    steal_cost = 24;
  }

type watchdog = { bound : int; strikes : int; backoff : int; quarantine_after : int }

let default_watchdog = { bound = 512; strikes = 2; backoff = 2048; quarantine_after = 2 }

type stats = {
  mutable dispatches : int;
  mutable scav_dispatches : int;
  mutable switches : int;
  mutable switch_cycles : int;
  mutable steals : int;
  mutable donated : int;
  mutable escalations : int;
  mutable completions : int;
  mutable fault_count : int;
  mutable watchdog_strikes : int;
  mutable watchdog_demotions : int;
  mutable watchdog_quarantined : int;
}

(* A pool entry: the scavenger and the watchdog's verdicts on it, kept
   together so they move as one when [donate] takes an entry out. *)
type slot = {
  ctx : Context.t;
  mutable overruns : int;  (* strikes since its last demotion *)
  mutable demotions : int;
  mutable benched_until : int;  (* 0 when admitted; [max_int] once quarantined *)
}

type t = {
  cfg : config;
  hier : Hierarchy.t;
  mem : Address_space.t;
  obs : Stallhide_obs.Stream.t option;
  clock : int ref;
  queue : Context.t Queue.t;
  mutable current : Context.t option;
  mutable pool : slot array;
  mutable cold : int;  (* pool entries that are ready and never started *)
  mutable rr : int;
  rotate : bool;
  mutable watchdog : watchdog option;
  mutable steal_source : (unit -> Context.t option) option;
  mutable on_complete : (Context.t -> now:int -> unit) option;
  mutable faults : string list;
  mutable scav_enabled : bool;
  stats : stats;
}

let create ?(config = default_config) ?obs ?(rotate = false) hier mem =
  {
    cfg = config;
    hier;
    mem;
    obs;
    clock = ref 0;
    queue = Queue.create ();
    current = None;
    pool = [||];
    cold = 0;
    rr = 0;
    rotate;
    watchdog = None;
    steal_source = None;
    on_complete = None;
    faults = [];
    scav_enabled = true;
    stats =
      {
        dispatches = 0;
        scav_dispatches = 0;
        switches = 0;
        switch_cycles = 0;
        steals = 0;
        donated = 0;
        escalations = 0;
        completions = 0;
        fault_count = 0;
        watchdog_strikes = 0;
        watchdog_demotions = 0;
        watchdog_quarantined = 0;
      };
  }

let config t = t.cfg

let clock t = !(t.clock)

let advance_clock t cycle = if cycle > !(t.clock) then t.clock := cycle

let stats t = t.stats

let hierarchy t = t.hier

let faults t = List.rev t.faults

let submit t ctx =
  ctx.Context.mode <- Context.Primary;
  Queue.push ctx t.queue

let queue_depth t = Queue.length t.queue + match t.current with Some _ -> 1 | None -> 0

let is_cold s = Context.is_ready s && s.Context.started_at < 0

let add_scavenger t ctx =
  ctx.Context.mode <- Context.Scavenger;
  if is_cold ctx then t.cold <- t.cold + 1;
  t.pool <- Array.append t.pool [| { ctx; overruns = 0; demotions = 0; benched_until = 0 } |]

let stealable t = t.cold

let donate t =
  let n = Array.length t.pool in
  let rec find i =
    if i = n then None else if is_cold t.pool.(i).ctx then Some i else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let s = t.pool.(i) in
      t.pool <- Array.init (n - 1) (fun k -> if k < i then t.pool.(k) else t.pool.(k + 1));
      if t.rr > i then t.rr <- t.rr - 1;
      t.cold <- t.cold - 1;
      t.stats.donated <- t.stats.donated + 1;
      Some s.ctx

let set_steal_source t f = t.steal_source <- Some f

let set_on_complete t f = t.on_complete <- Some f

let set_scavengers_enabled t enabled = t.scav_enabled <- enabled

let set_watchdog t w = t.watchdog <- Some w

type outcome = Worked | Idle

let charge t ~from_ctx ~at_pc cost =
  t.stats.switches <- t.stats.switches + 1;
  t.stats.switch_cycles <- t.stats.switch_cycles + cost;
  (match t.cfg.engine.Engine.probe with Some p -> Probe.switch p ~pc:at_pc ~cost | None -> ());
  (* Build the event under the match: building it first would
     allocate the record on every switch even with no observer
     attached, and switches dominate the hot scheduling path. *)
  (match t.obs with
  | Some s ->
      Stallhide_obs.Stream.record s
        (Stallhide_obs.Event.Context_switch
           { from_ctx; to_ctx = -1; at_pc; cost; cycle = !(t.clock) })
  | None -> ());
  t.clock := !(t.clock) + cost

(* Pull a scavenger from another core through the steal source,
   paying the steal toll; the cycles are spent inside the stall being
   hidden, so they land in switch accounting. *)
let try_steal t =
  match t.steal_source with
  | None -> false
  | Some f -> (
      match f () with
      | None -> false
      | Some s ->
          t.stats.steals <- t.stats.steals + 1;
          t.stats.switch_cycles <- t.stats.switch_cycles + t.cfg.steal_cost;
          t.clock := !(t.clock) + t.cfg.steal_cost;
          add_scavenger t s;
          true)

let verdict t s action =
  match t.obs with
  | Some o ->
      Stallhide_obs.Stream.record o
        (Stallhide_obs.Event.Watchdog { ctx = s.ctx.Context.id; action; cycle = !(t.clock) })
  | None -> ()

(* The watchdog's admission test: a benched scavenger sits out until
   [benched_until], then is readmitted. Nothing is benched while the
   watchdog is unarmed, so the first comparison settles it. *)
let admitted t s =
  s.benched_until = 0
  || (s.benched_until <= !(t.clock)
     && begin
          s.benched_until <- 0;
          verdict t s Stallhide_obs.Event.Readmit;
          true
        end)

(* Judge a dispatch that filled a primary's stall. *)
let judge t w s ~elapsed =
  if elapsed > w.bound then begin
    t.stats.watchdog_strikes <- t.stats.watchdog_strikes + 1;
    verdict t s Stallhide_obs.Event.Strike;
    s.overruns <- s.overruns + 1;
    if s.overruns >= w.strikes then begin
      s.overruns <- 0;
      let nth = s.demotions in
      s.demotions <- nth + 1;
      if s.demotions >= w.quarantine_after then begin
        s.benched_until <- max_int;
        t.stats.watchdog_quarantined <- t.stats.watchdog_quarantined + 1;
        verdict t s Stallhide_obs.Event.Quarantine
      end
      else begin
        s.benched_until <- !(t.clock) + (w.backoff lsl min nth 20);
        t.stats.watchdog_demotions <- t.stats.watchdog_demotions + 1;
        verdict t s Stallhide_obs.Event.Demote
      end
    end
  end

(* First ready, admitted scavenger at or after the cursor. Depth-first
   (the default) leaves the cursor on it, so the same scavenger resumes
   until it halts, escalates or faults and later pool entries stay
   cold, and therefore stealable, as long as possible; [rotate] moves
   the cursor past it. Returns its pool index, or -1. *)
let rec next_from t n k =
  if k = n then -1
  else
    let j = (t.rr + k) mod n in
    let s = t.pool.(j) in
    if Context.is_ready s.ctx && admitted t s then begin
      t.rr <- (if t.rotate then (j + 1) mod n else j);
      j
    end
    else next_from t n (k + 1)

let next_scavenger t = next_from t (Array.length t.pool) 0

(* The current scavenger is done with (halted, escalated, faulted):
   move the cursor past it. *)
let retire_scavenger t j = t.rr <- (j + 1) mod max 1 (Array.length t.pool)

let run_slice t ~deadline ctx =
  Scheduler.traced ?obs:t.obs t.cfg.engine t.hier t.mem ~clock:t.clock ~deadline ctx

(* A scavenger slice, keeping [cold] current: a cold scavenger's first
   slice normally starts it, unless the deadline stops it first. *)
let run_scavenger t ~deadline s =
  t.stats.scav_dispatches <- t.stats.scav_dispatches + 1;
  if s.Context.started_at >= 0 then run_slice t ~deadline s
  else begin
    let r = run_slice t ~deadline s in
    if not (is_cold s) then t.cold <- t.cold - 1;
    r
  end

(* Fill the current primary's stall: scavenger slices until a timely
   scavenger-phase yield, escalating past ones that hit their own
   misses; steal (at most [steals] more times) when the local pool runs
   dry. An armed watchdog judges these slices and no others. Top-level
   recursion: [hide] runs after every primary yield. *)
let rec hide_loop t ~deadline steals budget =
  if budget = 0 || !(t.clock) >= deadline then ()
  else
    let j = next_scavenger t in
    if j < 0 then begin
      if steals > 0 && try_steal t then hide_loop t ~deadline (steals - 1) budget
    end
    else begin
      let slot = t.pool.(j) in
      let s = slot.ctx in
      let start = !(t.clock) in
      let stop = run_scavenger t ~deadline s in
      (match t.watchdog with Some w -> judge t w slot ~elapsed:(!(t.clock) - start) | None -> ());
      match stop with
      | Engine.Yielded (Instr.Scavenger, pc) ->
          charge t ~from_ctx:s.Context.id ~at_pc:pc
            (Switch_cost.at_site t.cfg.switch s.Context.program pc)
      | Engine.Yielded (Instr.Primary, pc) ->
          t.stats.escalations <- t.stats.escalations + 1;
          (* Build the event under the match, as [charge] does: no
             record when nothing listens. *)
          (match t.obs with
          | Some o ->
              Stallhide_obs.Stream.record o
                (Stallhide_obs.Event.Scavenger_escalation
                   { ctx = s.Context.id; pc; cycle = !(t.clock) })
          | None -> ());
          charge t ~from_ctx:s.Context.id ~at_pc:pc
            (Switch_cost.at_site t.cfg.switch s.Context.program pc);
          retire_scavenger t j;
          hide_loop t ~deadline steals (budget - 1)
      | Engine.Halted ->
          charge t ~from_ctx:s.Context.id ~at_pc:(-1) t.cfg.switch.Switch_cost.base;
          retire_scavenger t j;
          hide_loop t ~deadline steals (budget - 1)
      | Engine.Out_of_budget -> ()
      | Engine.Fault m ->
          t.faults <- m :: t.faults;
          t.stats.fault_count <- t.stats.fault_count + 1;
          retire_scavenger t j;
          hide_loop t ~deadline steals (budget - 1)
    end

let hide t ~deadline =
  if t.scav_enabled then
    hide_loop t ~deadline t.cfg.steal_budget (2 * max 1 (Array.length t.pool))

let quiescent t = t.current = None && Queue.is_empty t.queue

let step t ~deadline =
  if !(t.clock) >= deadline then Idle
  else begin
    (match t.current with
    | None -> (
        match Queue.take_opt t.queue with Some c -> t.current <- Some c | None -> ())
    | Some _ -> ());
    match t.current with
    | Some p -> (
        t.stats.dispatches <- t.stats.dispatches + 1;
        match run_slice t ~deadline p with
        | Engine.Yielded (_, pc) ->
            charge t ~from_ctx:p.Context.id ~at_pc:pc
              (Switch_cost.at_site t.cfg.switch p.Context.program pc);
            hide t ~deadline;
            Worked
        | Engine.Halted ->
            t.stats.completions <- t.stats.completions + 1;
            (match t.on_complete with Some f -> f p ~now:!(t.clock) | None -> ());
            t.current <- None;
            Worked
        | Engine.Out_of_budget ->
            (* deadline hit mid-request: resume on the next step *)
            Worked
        | Engine.Fault m ->
            t.faults <- m :: t.faults;
            t.stats.fault_count <- t.stats.fault_count + 1;
            t.current <- None;
            Worked)
    | None when not t.scav_enabled -> Idle
    | None -> (
        (* Batch-only period: burn down scavengers depth-first. *)
        let j = next_scavenger t in
        if j < 0 then if try_steal t then Worked else Idle
        else begin
          let s = t.pool.(j).ctx in
          match run_scavenger t ~deadline s with
          | Engine.Yielded (_, pc) ->
              charge t ~from_ctx:s.Context.id ~at_pc:pc
                (Switch_cost.at_site t.cfg.switch s.Context.program pc);
              Worked
          | Engine.Halted | Engine.Out_of_budget ->
              retire_scavenger t j;
              Worked
          | Engine.Fault m ->
              t.faults <- m :: t.faults;
              t.stats.fault_count <- t.stats.fault_count + 1;
              retire_scavenger t j;
              Worked
        end)
  end
