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
}

type t = {
  cfg : config;
  hier : Hierarchy.t;
  mem : Address_space.t;
  obs : Stallhide_obs.Stream.t option;
  clock : int ref;
  queue : Context.t Queue.t;
  mutable current : Context.t option;
  mutable pool : Context.t array;
  mutable rr : int;
  mutable steal_source : (unit -> Context.t option) option;
  mutable on_complete : (Context.t -> now:int -> unit) option;
  mutable faults : string list;
  mutable scav_enabled : bool;
  stats : stats;
}

let create ?(config = default_config) ?obs hier mem =
  {
    cfg = config;
    hier;
    mem;
    obs;
    clock = ref 0;
    queue = Queue.create ();
    current = None;
    pool = [||];
    rr = 0;
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

let add_scavenger t ctx =
  ctx.Context.mode <- Context.Scavenger;
  t.pool <- Array.append t.pool [| ctx |]

let stealable t =
  Array.fold_left
    (fun acc s -> if Context.is_ready s && s.Context.started_at < 0 then acc + 1 else acc)
    0 t.pool

let donate t =
  let n = Array.length t.pool in
  let rec find i =
    if i = n then None
    else
      let s = t.pool.(i) in
      if Context.is_ready s && s.Context.started_at < 0 then Some i else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let s = t.pool.(i) in
      t.pool <- Array.init (n - 1) (fun k -> if k < i then t.pool.(k) else t.pool.(k + 1));
      if t.rr > i then t.rr <- t.rr - 1;
      t.stats.donated <- t.stats.donated + 1;
      Some s

let set_steal_source t f = t.steal_source <- Some f

let set_on_complete t f = t.on_complete <- Some f

let set_scavengers_enabled t enabled = t.scav_enabled <- enabled

type outcome = Worked | Idle

let emit t event =
  match t.obs with Some s -> Stallhide_obs.Stream.record s event | None -> ()

let charge t ~from_ctx ~at_pc cost =
  t.stats.switches <- t.stats.switches + 1;
  t.stats.switch_cycles <- t.stats.switch_cycles + cost;
  (* Build the event under the match: [emit t (Context_switch {...})]
     would allocate the record on every switch even with no observer
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

(* First ready scavenger at or after the cursor, without advancing it:
   scavengers are served depth-first (the same one resumes until it
   halts or escalates), so later pool entries stay cold — and therefore
   stealable — as long as possible. *)
let next_scavenger t =
  let n = Array.length t.pool in
  let rec loop k =
    if k = n then None
    else
      let j = (t.rr + k) mod n in
      if Context.is_ready t.pool.(j) then begin
        t.rr <- j;
        Some j
      end
      else loop (k + 1)
  in
  if n = 0 then None else loop 0

(* The current scavenger is done with (halted, escalated, faulted):
   move the cursor past it. *)
let retire_scavenger t j = t.rr <- (j + 1) mod max 1 (Array.length t.pool)

let run_slice t ~deadline ctx =
  Scheduler.traced ?obs:t.obs t.cfg.engine t.hier t.mem ~clock:t.clock ~deadline ctx

(* Fill the current primary's stall: scavenger slices until a timely
   scavenger-phase yield, escalating past ones that hit their own
   misses; steal when the local pool runs dry. *)
let hide t ~deadline =
  let steals_left = ref t.cfg.steal_budget in
  let rec go budget =
    if budget = 0 || !(t.clock) >= deadline then ()
    else
      match next_scavenger t with
      | None -> if !steals_left > 0 && try_steal t then begin decr steals_left; go budget end
      | Some j -> (
          let s = t.pool.(j) in
          t.stats.scav_dispatches <- t.stats.scav_dispatches + 1;
          match run_slice t ~deadline s with
          | Engine.Yielded (Instr.Scavenger, pc) ->
              charge t ~from_ctx:s.Context.id ~at_pc:pc
                (Switch_cost.at_site t.cfg.switch s.Context.program pc)
          | Engine.Yielded (Instr.Primary, pc) ->
              t.stats.escalations <- t.stats.escalations + 1;
              emit t
                (Stallhide_obs.Event.Scavenger_escalation
                   { ctx = s.Context.id; pc; cycle = !(t.clock) });
              charge t ~from_ctx:s.Context.id ~at_pc:pc
                (Switch_cost.at_site t.cfg.switch s.Context.program pc);
              retire_scavenger t j;
              go (budget - 1)
          | Engine.Halted ->
              charge t ~from_ctx:s.Context.id ~at_pc:(-1) t.cfg.switch.Switch_cost.base;
              retire_scavenger t j;
              go (budget - 1)
          | Engine.Out_of_budget -> ()
          | Engine.Fault m ->
              t.faults <- m :: t.faults;
              t.stats.fault_count <- t.stats.fault_count + 1;
              retire_scavenger t j;
              go (budget - 1))
  in
  if t.scav_enabled then go (2 * max 1 (Array.length t.pool))

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
        match next_scavenger t with
        | Some j -> (
            let s = t.pool.(j) in
            t.stats.scav_dispatches <- t.stats.scav_dispatches + 1;
            match run_slice t ~deadline s with
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
                Worked)
        | None -> if try_steal t then Worked else Idle)
  end
