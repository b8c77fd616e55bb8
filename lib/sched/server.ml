open Stallhide_isa
open Stallhide_cpu
open Stallhide_runtime

type policy = Run_to_completion | Side_integration | Event_aware

let policy_name = function
  | Run_to_completion -> "run-to-completion"
  | Side_integration -> "side-integration"
  | Event_aware -> "event-aware"

type protection = {
  deadline : int;
  max_retries : int;
  retry_backoff : int;
  max_queue : int;
  seed : int;
}

let default_protection =
  { deadline = 4096; max_retries = 2; retry_backoff = 1024; max_queue = 64; seed = 0 }

type config = {
  policy : policy;
  max_active : int;
  protection : protection option;
}

let default_config =
  {
    policy = Side_integration;
    max_active = 16;
    protection = None;
  }

type result = {
  cycles : int;
  idle : int;
  switches : int;
  switch_cycles : int;
  stall : int;
  completed : int;
  faulted : int;
  shed : int;
  timed_out : int;
  retried : int;
  expired : int;
  latency_sojourns : int list;
  batch_sojourns : int list;
}

let efficiency r =
  if r.cycles = 0 then 1.0
  else
    float_of_int (r.cycles - r.idle - r.switch_cycles - r.stall) /. float_of_int r.cycles

let run ?(config = default_config) hier mem tasks =
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Task.arrival <= b.Task.arrival && sorted rest
    | [ _ ] | [] -> true
  in
  if not (sorted tasks) then invalid_arg "Server.run: tasks must be sorted by arrival";
  (match config.protection with
  | Some p ->
      if p.deadline <= 0 then invalid_arg "Server.run: protection.deadline must be positive";
      if p.max_retries < 0 then invalid_arg "Server.run: protection.max_retries must be >= 0";
      if p.retry_backoff <= 0 then
        invalid_arg "Server.run: protection.retry_backoff must be positive";
      if p.max_queue <= 0 then invalid_arg "Server.run: protection.max_queue must be positive"
  | None -> ());
  let clock = ref 0 in
  let idle = ref 0 in
  let switches = ref 0 in
  let switch_cycles = ref 0 in
  let pending = ref tasks in
  let rq : Task.t Queue.t = Queue.create () in
  let active : Task.t Stallhide_util.Vec.t = Stallhide_util.Vec.create () in
  let completed = ref 0 in
  let faulted = ref 0 in
  let done_tasks = ref [] in
  (* Overload-protection state (all idle when [config.protection = None]):
     shed arrivals when the ready queue is deep, time out queued requests
     past their deadline, re-enqueue them after a jittered exponential
     backoff up to [max_retries], then expire them. Started tasks always
     run to completion — a coroutine cannot be restarted mid-flight, and
     abandoning work already paid for is the overload anti-pattern. *)
  let shed = ref 0 in
  let timed_out = ref 0 in
  let retried = ref 0 in
  let expired = ref 0 in
  let prot_rand =
    match config.protection with
    | Some p -> Random.State.make [| p.seed; 0x5e12e1 |]
    | None -> Random.State.make [| 0 |]
  in
  let retries_tbl : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let window_start : (int, int) Hashtbl.t = Hashtbl.create 32 in
  (* (eligible_at, task) pairs awaiting retry, kept sorted by time *)
  let delayed : (int * Task.t) list ref = ref [] in
  let deadline_start (t : Task.t) =
    match Hashtbl.find_opt window_start t.Task.id with Some c -> c | None -> t.Task.arrival
  in
  let absorb () =
    let enqueue (t : Task.t) =
      match config.protection with
      | Some p when Queue.length rq >= p.max_queue ->
          (* queue-depth admission control: drop at the door *)
          incr shed
      | _ -> Queue.add t rq
    in
    let rec go () =
      match !pending with
      | t :: rest when t.Task.arrival <= !clock ->
          pending := rest;
          enqueue t;
          go ()
      | _ -> ()
    in
    go ();
    let rec release () =
      match !delayed with
      | (at, t) :: rest when at <= !clock ->
          delayed := rest;
          enqueue t;
          release ()
      | _ -> ()
    in
    release ()
  in
  (* Deadline check on a queue pop: a queued request older than its
     deadline window is not worth starting (its client has given up) —
     retry it later or expire it. *)
  let rec pop_live () =
    match Queue.take_opt rq with
    | None -> None
    | Some t -> (
        match config.protection with
        | Some p when !clock > deadline_start t + p.deadline -> begin
            incr timed_out;
            let r = match Hashtbl.find_opt retries_tbl t.Task.id with Some r -> r | None -> 0 in
            if r < p.max_retries then begin
              Hashtbl.replace retries_tbl t.Task.id (r + 1);
              let backoff = p.retry_backoff lsl r in
              let jitter = Random.State.int prot_rand backoff in
              let at = !clock + backoff + jitter in
              Hashtbl.replace window_start t.Task.id at;
              delayed :=
                List.merge
                  (fun (a, _) (b, _) -> compare a b)
                  !delayed [ (at, t) ];
              incr retried
            end
            else incr expired;
            pop_live ()
          end
        | _ -> Some t)
  in
  let set_mode (t : Task.t) =
    t.Task.ctx.Context.mode <-
      (match (config.policy, t.Task.class_) with
      | Event_aware, Task.Batch -> Context.Scavenger
      | (Event_aware | Side_integration | Run_to_completion), _ -> Context.Primary)
  in
  let admit () =
    absorb ();
    (* The event-aware scheduler also admits by class: a queued
       latency task must not wait behind batch arrivals (stable within
       each class). *)
    if config.policy = Event_aware then begin
      let queued = List.of_seq (Queue.to_seq rq) in
      let lat, batch = List.partition (fun (t : Task.t) -> t.Task.class_ = Task.Latency) queued in
      Queue.clear rq;
      List.iter (fun t -> Queue.add t rq) (lat @ batch)
    end;
    let cap = match config.policy with Run_to_completion -> 1 | _ -> config.max_active in
    let rec go () =
      if Stallhide_util.Vec.length active < cap then
        match pop_live () with
        | Some t ->
            set_mode t;
            Stallhide_util.Vec.push active t;
            go ()
        | None -> ()
    in
    go ()
  in
  let remove_inactive () =
    let live = Stallhide_util.Vec.create () in
    Stallhide_util.Vec.iter
      (fun (t : Task.t) ->
        match t.Task.ctx.Context.status with
        | Context.Ready -> Stallhide_util.Vec.push live t
        | Context.Done ->
            t.Task.finished_at <- !clock;
            incr completed;
            done_tasks := t :: !done_tasks
        | Context.Faulted _ ->
            t.Task.finished_at <- !clock;
            incr faulted;
            done_tasks := t :: !done_tasks)
      active;
    Stallhide_util.Vec.clear active;
    Stallhide_util.Vec.iter (Stallhide_util.Vec.push active) live
  in
  let charge (t : Task.t) pc =
    incr switches;
    let c = Switch_cost.at_site Switch_cost.coroutine t.Task.ctx.Context.program pc in
    switch_cycles := !switch_cycles + c;
    clock := !clock + c
  in
  let charge_base () =
    incr switches;
    switch_cycles := !switch_cycles + Switch_cost.coroutine.Switch_cost.base;
    clock := !clock + Switch_cost.coroutine.Switch_cost.base
  in
  let dispatch (t : Task.t) =
    if t.Task.started_at < 0 then t.Task.started_at <- !clock;
    Engine.run Engine.default_config hier mem ~clock t.Task.ctx
  in
  (* Event-aware: batch tasks fill a latency task's stall until one of
     them reaches a scavenger-phase yield. *)
  let rr = ref 0 in
  let batch_at k =
    let n = Stallhide_util.Vec.length active in
    let rec find j count =
      if count = n then None
      else
        let t = Stallhide_util.Vec.get active (j mod n) in
        if t.Task.class_ = Task.Batch && Context.is_ready t.Task.ctx then Some (j mod n)
        else find (j + 1) (count + 1)
    in
    find k 0
  in
  let rec hide guard =
    if guard > 0 then
      match batch_at !rr with
      | None -> ()
      | Some j -> (
          rr := j + 1;
          let t = Stallhide_util.Vec.get active j in
          match dispatch t with
          | Engine.Yielded (Instr.Scavenger, pc) -> charge t pc
          | Engine.Yielded (Instr.Primary, pc) ->
              charge t pc;
              hide (guard - 1)
          | Engine.Halted | Engine.Fault _ ->
              charge_base ();
              hide (guard - 1)
          | Engine.Out_of_budget -> ())
  in
  let oldest_latency () =
    let best = ref None in
    Stallhide_util.Vec.iter
      (fun (t : Task.t) ->
        if t.Task.class_ = Task.Latency && Context.is_ready t.Task.ctx then
          match !best with
          | Some (b : Task.t) when b.Task.arrival <= t.Task.arrival -> ()
          | _ -> best := Some t)
      active;
    !best
  in
  (* Main loop: one dispatch decision per iteration. *)
  let continue = ref true in
  while
    !continue
    && (Stallhide_util.Vec.length active > 0
       || (not (Queue.is_empty rq))
       || !pending <> [] || !delayed <> [])
  do
    admit ();
    if Stallhide_util.Vec.length active = 0 then begin
      (* nothing runnable: jump to the next arrival or retry release *)
      let next_pending = match !pending with t :: _ -> Some t.Task.arrival | [] -> None in
      let next_delayed = match !delayed with (at, _) :: _ -> Some at | [] -> None in
      match (next_pending, next_delayed) with
      | None, None -> continue := false
      | Some a, None | None, Some a ->
          idle := !idle + (a - !clock);
          clock := a
      | Some a, Some b ->
          let a = min a b in
          idle := !idle + (a - !clock);
          clock := a
    end
    else begin
      (match config.policy with
      | Run_to_completion ->
          let t = Stallhide_util.Vec.get active 0 in
          let rec go () =
            match dispatch t with
            | Engine.Yielded _ -> go ()  (* scheduler is event-agnostic: resume free *)
            | Engine.Halted | Engine.Fault _ | Engine.Out_of_budget -> ()
          in
          go ()
      | Side_integration -> (
          let n = Stallhide_util.Vec.length active in
          let j = !rr mod n in
          rr := j + 1;
          let t = Stallhide_util.Vec.get active j in
          match dispatch t with
          | Engine.Yielded (_, pc) -> if n > 1 || not (Queue.is_empty rq) then charge t pc
          | Engine.Halted | Engine.Fault _ | Engine.Out_of_budget -> ())
      | Event_aware -> (
          match oldest_latency () with
          | Some t -> (
              match dispatch t with
              | Engine.Yielded (_, pc) ->
                  charge t pc;
                  hide (2 * Stallhide_util.Vec.length active)
              | Engine.Halted | Engine.Fault _ | Engine.Out_of_budget -> ())
          | None -> (
              (* batch-only periods behave like symmetric interleaving *)
              match batch_at !rr with
              | None -> ()
              | Some j -> (
                  rr := j + 1;
                  let t = Stallhide_util.Vec.get active j in
                  match dispatch t with
                  | Engine.Yielded (_, pc) -> charge t pc
                  | Engine.Halted | Engine.Fault _ | Engine.Out_of_budget -> ()))));
      remove_inactive ()
    end
  done;
  let stall =
    List.fold_left (fun acc (t : Task.t) -> acc + t.Task.ctx.Context.stall_cycles)
      (Stallhide_util.Vec.to_list active
      |> List.fold_left (fun acc (t : Task.t) -> acc + t.Task.ctx.Context.stall_cycles) 0)
      !done_tasks
  in
  let sojourns cls =
    List.filter_map
      (fun (t : Task.t) -> if t.Task.class_ = cls then Task.sojourn t else None)
      !done_tasks
    |> List.rev
  in
  {
    cycles = !clock;
    idle = !idle;
    switches = !switches;
    switch_cycles = !switch_cycles;
    stall;
    completed = !completed;
    faulted = !faulted;
    shed = !shed;
    timed_out = !timed_out;
    retried = !retried;
    expired = !expired;
    latency_sojourns = sojourns Task.Latency;
    batch_sojourns = sojourns Task.Batch;
  }
