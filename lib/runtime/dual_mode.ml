open Stallhide_isa
open Stallhide_cpu

type watchdog = { bound : int; strikes : int; backoff : int; quarantine_after : int }

let default_watchdog = { bound = 512; strikes = 2; backoff = 2048; quarantine_after = 2 }

type config = {
  engine : Engine.config;
  switch : Switch_cost.t;
  drain : bool;
  watchdog : watchdog option;
}

let default_config =
  {
    engine = Engine.default_config;
    switch = Switch_cost.coroutine;
    drain = true;
    watchdog = None;
  }

type result = {
  sched : Scheduler.result;
  primary_done_at : int;
  scavenger_switches : int;
  watchdog_strikes : int;
  watchdog_demotions : int;
  watchdog_quarantined : int;
}

let run ?(config = default_config) ?(max_cycles = max_int) ?obs hier mem ~primary ~scavengers =
  primary.Context.mode <- Context.Primary;
  Array.iter (fun s -> s.Context.mode <- Context.Scavenger) scavengers;
  let n = Array.length scavengers in
  let clock = ref 0 in
  let switches = ref 0 in
  let switch_cycles = ref 0 in
  let scav_switches = ref 0 in
  let faults = ref [] in
  let primary_done_at = ref (-1) in
  let emit event = match obs with Some s -> Stallhide_obs.Stream.record s event | None -> () in
  let charge ~from_ctx ~at_pc cost =
    incr switches;
    switch_cycles := !switch_cycles + cost;
    emit
      (Stallhide_obs.Event.Context_switch
         { from_ctx; to_ctx = -1; at_pc; cost; cycle = !clock });
    clock := !clock + cost
  in
  (* Watchdog bookkeeping (all no-ops when [config.watchdog = None]):
     a scavenger dispatch that runs past [bound] cycles earns a strike;
     [strikes] strikes demote the context for [backoff] cycles (doubling
     per demotion); the [quarantine_after]-th demotion is permanent. *)
  let wd_strikes = ref 0 in
  let wd_demotions = ref 0 in
  let wd_quarantined = ref 0 in
  let strikes_of = Array.make (max n 1) 0 in
  let demotions_of = Array.make (max n 1) 0 in
  let banned_until = Array.make (max n 1) 0 in
  let quarantined = Array.make (max n 1) false in
  let wd_emit ctx action = emit (Stallhide_obs.Event.Watchdog { ctx; action; cycle = !clock }) in
  let admissible j =
    match config.watchdog with
    | None -> true
    | Some _ ->
        if quarantined.(j) then false
        else if banned_until.(j) > !clock then false
        else begin
          if banned_until.(j) > 0 then begin
            (* backoff expired: let it back in *)
            banned_until.(j) <- 0;
            wd_emit scavengers.(j).Context.id Stallhide_obs.Event.Readmit
          end;
          true
        end
  in
  let watchdog_check j ~elapsed =
    match config.watchdog with
    | None -> ()
    | Some w ->
        if elapsed > w.bound then begin
          let ctx = scavengers.(j).Context.id in
          incr wd_strikes;
          wd_emit ctx Stallhide_obs.Event.Strike;
          strikes_of.(j) <- strikes_of.(j) + 1;
          if strikes_of.(j) >= w.strikes then begin
            strikes_of.(j) <- 0;
            let nth = demotions_of.(j) in
            demotions_of.(j) <- nth + 1;
            if demotions_of.(j) >= w.quarantine_after then begin
              quarantined.(j) <- true;
              incr wd_quarantined;
              wd_emit ctx Stallhide_obs.Event.Quarantine
            end
            else begin
              banned_until.(j) <- !clock + (w.backoff lsl min nth 20);
              incr wd_demotions;
              wd_emit ctx Stallhide_obs.Event.Demote
            end
          end
        end
  in
  let rr = ref 0 in
  (* Next ready, admissible scavenger in rotation; -1 when the pool is
     dry (or everything left is benched/quarantined). *)
  let next_scavenger () =
    let rec loop k =
      if k = n then -1
      else
        let j = (!rr + k) mod n in
        if Context.is_ready scavengers.(j) && admissible j then begin
          rr := (j + 1) mod n;
          j
        end
        else loop (k + 1)
    in
    loop 0
  in
  (* Fill the primary's stall: run scavengers until one reaches a
     scavenger-phase yield (timely return) or the pool is exhausted. *)
  let rec hide budget_guard =
    if budget_guard = 0 || !clock >= max_cycles then ()
    else
      match next_scavenger () with
      | -1 -> ()
      | j -> (
          incr scav_switches;
          let s = scavengers.(j) in
          let dispatched_at = !clock in
          let outcome =
            Scheduler.traced ?obs config.engine hier mem ~clock ~deadline:max_cycles s
          in
          watchdog_check j ~elapsed:(!clock - dispatched_at);
          match outcome with
          | Engine.Yielded (Instr.Scavenger, pc) ->
              charge ~from_ctx:s.Context.id ~at_pc:pc
                (Switch_cost.at_site config.switch s.Context.program pc)
          | Engine.Yielded (Instr.Primary, pc) ->
              (* Scavenger hit its own miss: hand the core to the next one. *)
              emit
                (Stallhide_obs.Event.Scavenger_escalation
                   { ctx = s.Context.id; pc; cycle = !clock });
              charge ~from_ctx:s.Context.id ~at_pc:pc
                (Switch_cost.at_site config.switch s.Context.program pc);
              hide (budget_guard - 1)
          | Engine.Halted ->
              charge ~from_ctx:s.Context.id ~at_pc:(-1) config.switch.Switch_cost.base;
              hide (budget_guard - 1)
          | Engine.Out_of_budget -> ()
          | Engine.Fault m ->
              faults := m :: !faults;
              hide (budget_guard - 1))
  in
  let rec primary_loop () =
    if !clock < max_cycles then
      match
        Scheduler.traced ?obs config.engine hier mem ~clock ~deadline:max_cycles primary
      with
      | Engine.Yielded (_, pc) ->
          charge ~from_ctx:primary.Context.id ~at_pc:pc
            (Switch_cost.at_site config.switch primary.Context.program pc);
          hide (2 * n);
          primary_loop ()
      | Engine.Halted -> primary_done_at := !clock
      | Engine.Out_of_budget -> ()
      | Engine.Fault m -> faults := m :: !faults
  in
  primary_loop ();
  if config.drain then begin
    (* Round-robin the remaining scavengers among themselves. *)
    let continue = ref true in
    while !continue && !clock < max_cycles do
      match next_scavenger () with
      | -1 -> continue := false
      | j -> (
          let s = scavengers.(j) in
          match
            Scheduler.traced ?obs config.engine hier mem ~clock ~deadline:max_cycles s
          with
          | Engine.Yielded (_, pc) ->
              incr scav_switches;
              charge ~from_ctx:s.Context.id ~at_pc:pc
                (Switch_cost.at_site config.switch s.Context.program pc)
          | Engine.Halted -> ()
          | Engine.Out_of_budget -> continue := false
          | Engine.Fault m -> faults := m :: !faults)
    done
  end;
  let all = Array.append [| primary |] scavengers in
  let stall = Array.fold_left (fun acc c -> acc + c.Context.stall_cycles) 0 all in
  let instructions = Array.fold_left (fun acc c -> acc + c.Context.instructions) 0 all in
  let completed =
    Array.fold_left
      (fun acc c -> match c.Context.status with Context.Done -> acc + 1 | _ -> acc)
      0 all
  in
  {
    sched =
      {
        Scheduler.cycles = !clock;
        stall;
        switch_cycles = !switch_cycles;
        switches = !switches;
        instructions;
        completed;
        faults = List.rev !faults;
      };
    primary_done_at = !primary_done_at;
    scavenger_switches = !scav_switches;
    watchdog_strikes = !wd_strikes;
    watchdog_demotions = !wd_demotions;
    watchdog_quarantined = !wd_quarantined;
  }
