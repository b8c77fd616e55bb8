open Stallhide_util
open Stallhide_cpu
open Stallhide_mem
open Stallhide_runtime
open Stallhide_sched

type sync = Interleaved

type config = {
  cores : int;
  memcfg : Memconfig.t;
  l3_window : int;
  l3_budget : int;
  core : Core_sched.config;
  steal : bool;
  max_cycles : int;
  prepare_core : int -> Hierarchy.t -> unit;
  sync : sync;
  trace : bool;
}

let default_config =
  {
    cores = 4;
    memcfg = Memconfig.default;
    l3_window = 32;
    l3_budget = 16;
    core = Core_sched.default_config;
    steal = true;
    max_cycles = max_int;
    prepare_core = (fun _ _ -> ());
    sync = Interleaved;
    trace = false;
  }

type request = {
  rid : int;
  key : int;
  home : int;
  arrival : int;
  ctx : Context.t;
  mutable served_by : int;
  mutable finished_at : int;
}

let request ~rid ~key ~home ~arrival ctx =
  { rid; key; home; arrival; ctx; served_by = -1; finished_at = -1 }

type core_result = {
  core_id : int;
  cycles : int;
  stats : Core_sched.stats;
  mem : Mem_stats.t;
  stream : Stallhide_obs.Stream.t;
  sojourns : int list;
  faults : string list;
}

type result = {
  cycles : int;
  completed : int;
  faulted : int;
  per_core : core_result array;
  requests : request array;
  steals : int;
  donations : int;
  l3 : Shared_l3.stats;
  summary : Latency.summary;
}

module Live = struct
  type t = {
    config : config;
    policy : Dispatch.policy;
    n : int;
    shared : Shared_l3.t;
    streams : Stallhide_obs.Stream.t array;
    scheds : Core_sched.t array;
    sojourns : int Vec.t array;
    by_ctx : (int, request) Hashtbl.t;
    depths : int array;  (* scratch for dispatch decisions *)
    pending : request Queue.t;
    submitted : request Vec.t;
    mutable last_arrival : int;
    mutable on_complete : (request -> core:int -> now:int -> unit) option;
  }

  let create ?(config = default_config) ~policy ~mem ~scavengers () =
    let n = config.cores in
    if n <= 0 then invalid_arg (Printf.sprintf "Machine: cores must be positive (got %d)" n);
    if Array.length scavengers <> n then
      invalid_arg
        (Printf.sprintf "Machine: scavengers must have one list per core (got %d for %d cores)"
           (Array.length scavengers) n);
    let shared =
      Shared_l3.create ~window:config.l3_window ~budget:config.l3_budget config.memcfg
    in
    let streams = Array.init n (fun _ -> Stallhide_obs.Stream.create ()) in
    let scheds =
      Array.init n (fun i ->
          let hier = Hierarchy.create_core config.memcfg ~shared in
          config.prepare_core i hier;
          (* [trace = false] keeps the engine exactly as given and
             drops the per-slice dispatch stream; [trace = true] gives
             the core a probe of its own feeding its stream. *)
          let engine =
            if not config.trace then config.core.Core_sched.engine
            else begin
              let probe = Probe.create () in
              Stallhide_obs.Stream.attach streams.(i) probe;
              { config.core.Core_sched.engine with Engine.probe = Some probe }
            end
          in
          let obs = if config.trace then Some streams.(i) else None in
          Core_sched.create ~config:{ config.core with Core_sched.engine } ?obs hier mem)
    in
    Array.iteri (fun i scavs -> List.iter (Core_sched.add_scavenger scheds.(i)) scavs) scavengers;
    if config.steal then
      Array.iteri
        (fun i thief ->
          Core_sched.set_steal_source thief (fun () ->
              (* victim: the most-loaded other core, by cold-stealable count *)
              let best = ref (-1) in
              let best_n = ref 0 in
              for j = 0 to n - 1 do
                if j <> i then begin
                  let s = Core_sched.stealable scheds.(j) in
                  if s > !best_n then begin
                    best := j;
                    best_n := s
                  end
                end
              done;
              if !best < 0 then None
              else
                match Core_sched.donate scheds.(!best) with
                | Some ctx as stolen ->
                    Stallhide_obs.Stream.record streams.(i)
                      (Stallhide_obs.Event.Steal
                         {
                           ctx = ctx.Context.id;
                           from_core = !best;
                           to_core = i;
                           cycle = Core_sched.clock thief;
                         });
                    stolen
                | None -> None))
        scheds;
    let t =
      {
        config;
        policy;
        n;
        shared;
        streams;
        scheds;
        sojourns = Array.init n (fun _ -> Vec.create ());
        by_ctx = Hashtbl.create 64;
        depths = Array.make n 0;
        pending = Queue.create ();
        submitted = Vec.create ();
        last_arrival = min_int;
        on_complete = None;
      }
    in
    Array.iteri
      (fun i sched ->
        Core_sched.set_on_complete sched (fun ctx ~now ->
            match Hashtbl.find_opt t.by_ctx ctx.Context.id with
            | Some r ->
                r.finished_at <- now;
                if config.trace then
                  Stallhide_obs.Stream.record streams.(i)
                    (Stallhide_obs.Event.Span_close
                       { ctx = ctx.Context.id; name = "request"; cycle = now });
                Vec.push t.sojourns.(i) (now - r.arrival);
                (match t.on_complete with Some f -> f r ~core:i ~now | None -> ())
            | None -> ()))
      scheds;
    t

  let set_on_complete t f = t.on_complete <- Some f

  let set_scavengers_enabled t enabled =
    Array.iter (fun s -> Core_sched.set_scavengers_enabled s enabled) t.scheds

  let submit t r =
    if r.home < 0 || r.home >= t.n then
      invalid_arg
        (Printf.sprintf "Machine: request %d's home %d out of range (cores=%d)" r.rid r.home t.n);
    if r.arrival < t.last_arrival then
      invalid_arg
        (Printf.sprintf
           "Machine: requests must be submitted in arrival order (request %d arrives at %d, \
            before the previous submission's %d)"
           r.rid r.arrival t.last_arrival);
    t.last_arrival <- r.arrival;
    Hashtbl.replace t.by_ctx r.ctx.Context.id r;
    Queue.push r t.pending;
    Vec.push t.submitted r

  let core_clock t i = Core_sched.clock t.scheds.(i)

  let argmin t =
    let best = ref 0 in
    for i = 1 to t.n - 1 do
      if core_clock t i < core_clock t !best then best := i
    done;
    !best

  let clock t = core_clock t (argmin t)

  (* Release every arrival due by [now], each steered over the live
     queue depths. Only a traced machine opens the request's span. *)
  let release_upto t now =
    while (not (Queue.is_empty t.pending)) && (Queue.peek t.pending).arrival <= now do
      let r = Queue.pop t.pending in
      for i = 0 to t.n - 1 do
        t.depths.(i) <- Core_sched.queue_depth t.scheds.(i)
      done;
      let target = Dispatch.choose t.policy ~home:r.home ~depths:t.depths in
      r.served_by <- target;
      if t.config.trace then
        Stallhide_obs.Stream.record t.streams.(target)
          (Stallhide_obs.Event.Span_open
             { ctx = r.ctx.Context.id; name = "request"; cycle = r.arrival });
      Core_sched.submit t.scheds.(target) r.ctx
    done

  let rec quiescent_from scheds i =
    i = Array.length scheds || (Core_sched.quiescent scheds.(i) && quiescent_from scheds (i + 1))

  let all_quiescent t = quiescent_from t.scheds 0

  let quiescent t = Queue.is_empty t.pending && all_quiescent t

  let backlog t =
    Queue.length t.pending
    + Array.fold_left (fun acc s -> acc + Core_sched.queue_depth s) 0 t.scheds

  let next_action t =
    if not (all_quiescent t) then Some (clock t)
    else
      match Queue.peek_opt t.pending with
      | Some r -> Some (max r.arrival (clock t))
      | None -> None

  let step t =
    let c = argmin t in
    release_upto t (core_clock t c);
    match Core_sched.step t.scheds.(c) ~deadline:t.config.max_cycles with
    | Core_sched.Worked -> Core_sched.Worked
    | Core_sched.Idle ->
        if not (Queue.is_empty t.pending) then begin
          Core_sched.advance_clock t.scheds.(c) (Queue.peek t.pending).arrival;
          Core_sched.Worked
        end
        else begin
          (* leapfrog past the slowest non-quiescent core so the
             argmin rotation keeps making progress *)
          let any = ref false in
          let target = ref (core_clock t c + 1) in
          Array.iteri
            (fun j s ->
              if j <> c && not (Core_sched.quiescent s) then begin
                any := true;
                target := max !target (Core_sched.clock s + 1)
              end)
            t.scheds;
          if !any then begin
            Core_sched.advance_clock t.scheds.(c) !target;
            Core_sched.Worked
          end
          else Core_sched.Idle
        end

  let finish t =
    let reqs = Vec.to_array t.submitted in
    let per_core =
      Array.init t.n (fun i ->
          {
            core_id = i;
            cycles = core_clock t i;
            stats = Core_sched.stats t.scheds.(i);
            mem = Hierarchy.stats (Core_sched.hierarchy t.scheds.(i));
            stream = t.streams.(i);
            sojourns = Vec.to_list t.sojourns.(i);
            faults = Core_sched.faults t.scheds.(i);
          })
    in
    let completed =
      Array.fold_left (fun acc r -> if r.finished_at >= 0 then acc + 1 else acc) 0 reqs
    in
    let faulted =
      Array.fold_left
        (fun acc r ->
          match r.ctx.Context.status with Context.Faulted _ -> acc + 1 | _ -> acc)
        0 reqs
    in
    {
      cycles = Array.fold_left (fun acc (c : core_result) -> max acc c.cycles) 0 per_core;
      completed;
      faulted;
      per_core;
      requests = reqs;
      steals =
        Array.fold_left (fun acc (c : core_result) -> acc + c.stats.Core_sched.steals) 0 per_core;
      donations =
        Array.fold_left (fun acc (c : core_result) -> acc + c.stats.Core_sched.donated) 0 per_core;
      l3 = Shared_l3.stats t.shared;
      summary =
        Latency.merge
          (Array.to_list
             (Array.map (fun (c : core_result) -> Latency.summary c.sojourns) per_core));
    }
end

let run ?(config = default_config) ~policy ~mem ~requests ~scavengers () =
  let live = Live.create ~config ~policy ~mem ~scavengers () in
  List.iter (Live.submit live) requests;
  let running = ref true in
  while !running do
    if Live.clock live >= config.max_cycles then running := false
    else if Live.quiescent live then running := false
    else ignore (Live.step live)
  done;
  Live.finish live

let throughput r =
  if r.cycles = 0 then 0.0
  else 1000.0 *. float_of_int r.completed /. float_of_int r.cycles

(* One core's counters, names in ascending order: the order the
   aggregate and every core's row print in. *)
let core_counters (c : core_result) =
  let s = c.stats and m = c.mem in
  [
    ("completions", s.Core_sched.completions);
    ("cycles", c.cycles);
    ("demand_accesses", m.Mem_stats.demand_accesses);
    ("dispatches", s.Core_sched.dispatches);
    ("donated", s.Core_sched.donated);
    ("dram_accesses", m.Mem_stats.dram_accesses);
    ("escalations", s.Core_sched.escalations);
    ("faults", s.Core_sched.fault_count);
    ("l1_hits", m.Mem_stats.l1_hits);
    ("l2_hits", m.Mem_stats.l2_hits);
    ("l3_hits", m.Mem_stats.l3_hits);
    ("prefetches", m.Mem_stats.prefetches);
    ("scav_dispatches", s.Core_sched.scav_dispatches);
    ("steals", s.Core_sched.steals);
    ("switch_cycles", s.Core_sched.switch_cycles);
    ("switches", s.Core_sched.switches);
  ]

let ints kvs = List.map (fun (k, v) -> (k, Json.Int v)) kvs

let core_json c = Json.Obj (("core", Json.Int c.core_id) :: ints (core_counters c))

let counters_json r =
  let aggregate =
    match Array.to_list (Array.map core_counters r.per_core) with
    | [] -> []
    | first :: rest -> List.fold_left (List.map2 (fun (k, a) (_, b) -> (k, a + b))) first rest
  in
  Json.Obj [ ("aggregate", Json.Obj (ints aggregate)) ]
