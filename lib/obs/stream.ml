open Stallhide_util
open Stallhide_mem
open Stallhide_cpu

type t = {
  buf : Event.t Vec.t;
  capacity : int;
  mutable dropped : int;
  registry : Registry.t;
}

let create ?(capacity = 1 lsl 18) () =
  { buf = Vec.create (); capacity; dropped = 0; registry = Registry.create () }

let count t event =
  let r = t.registry in
  match event with
  | Event.Yield { ctx; fired; _ } ->
      Registry.incr (Registry.counter r ~ctx (if fired then "yield.fired" else "yield.skipped"))
  | Event.Cache_access { ctx; level; stall; queue; _ } ->
      Registry.incr (Registry.counter r ~ctx ("load." ^ Hierarchy.level_name level));
      if stall > 0 then Registry.observe (Registry.histogram r ~ctx "load.stall") stall;
      if queue > 0 then Registry.incr ~by:queue (Registry.counter r ~ctx "load.queue_cycles")
  | Event.Stall { ctx; cycles; _ } ->
      Registry.incr ~by:cycles (Registry.counter r ~ctx "stall.cycles")
  | Event.Frontend_stall { ctx; cycles; _ } ->
      Registry.incr ~by:cycles (Registry.counter r ~ctx "frontend_stall.cycles")
  | Event.Op_retired { ctx; _ } -> Registry.incr (Registry.counter r ~ctx "ops")
  | Event.Context_switch { from_ctx; cost; _ } ->
      Registry.incr (Registry.counter r ~ctx:from_ctx "switch.count");
      Registry.observe (Registry.histogram r ~ctx:from_ctx "switch.cost") cost
  | Event.Scavenger_escalation { ctx; _ } ->
      Registry.incr (Registry.counter r ~ctx "scavenger.escalations")
  | Event.Watchdog { ctx; action; _ } ->
      let name =
        match action with
        | Event.Strike -> "watchdog.strikes"
        | Event.Demote -> "watchdog.demotions"
        | Event.Quarantine -> "watchdog.quarantines"
        | Event.Readmit -> "watchdog.readmissions"
      in
      Registry.incr (Registry.counter r ~ctx name)
  | Event.Dispatch { ctx; start; stop } ->
      Registry.observe (Registry.histogram r ~ctx "dispatch.cycles") (stop - start)
  | Event.Span_open { ctx; _ } -> Registry.incr (Registry.counter r ~ctx "span.opened")
  | Event.Span_close { ctx; _ } -> Registry.incr (Registry.counter r ~ctx "span.closed")
  | Event.Steal { ctx; _ } -> Registry.incr (Registry.counter r ~ctx "steal.migrations")

let record t event =
  count t event;
  if Vec.length t.buf < t.capacity then Vec.push t.buf event else t.dropped <- t.dropped + 1

let events t = Vec.to_list t.buf

let iter f t = Vec.iter f t.buf

let length t = Vec.length t.buf

let dropped t = t.dropped

let reset t =
  Vec.clear t.buf;
  t.dropped <- 0;
  Registry.reset t.registry

let registry t = t.registry

let hooks t =
  {
    Events.nop with
    Events.on_load =
      (fun (info : Events.load_info) ->
        record t
          (Event.Cache_access
             {
               ctx = info.Events.ctx;
               pc = info.Events.pc;
               addr = info.Events.addr;
               level = info.Events.level;
               stall = info.Events.stall;
               queue = info.Events.queue;
               cycle = info.Events.cycle;
             }));
    on_stall = (fun ~ctx ~pc ~cycles ~cycle -> record t (Event.Stall { ctx; pc; cycles; cycle }));
    on_frontend_stall =
      (fun ~ctx ~pc ~cycles ~cycle -> record t (Event.Frontend_stall { ctx; pc; cycles; cycle }));
    on_opmark = (fun ~ctx ~pc ~cycle -> record t (Event.Op_retired { ctx; pc; cycle }));
    on_yield =
      (fun ~ctx ~pc ~kind ~fired ~cycle -> record t (Event.Yield { ctx; pc; kind; fired; cycle }));
  }

let fold_tbl t select =
  let tbl = Hashtbl.create 64 in
  iter
    (fun e ->
      match select e with
      | Some (key, v) ->
          Hashtbl.replace tbl key (v + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      | None -> ())
    t;
  tbl

let stall_by_pc ?(map = fun pc -> pc) t =
  fold_tbl t (function
    | Event.Stall { pc; cycles; _ } -> Some (map pc, cycles)
    | _ -> None)

let yields_by_pc t =
  let tbl = Hashtbl.create 32 in
  iter
    (fun e ->
      match e with
      | Event.Yield { pc; fired; _ } ->
          let f, s = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl pc) in
          Hashtbl.replace tbl pc (if fired then (f + 1, s) else (f, s + 1))
      | _ -> ())
    t;
  tbl

let switch_cycles_by_pc t =
  fold_tbl t (function
    | Event.Context_switch { at_pc; cost; _ } when at_pc >= 0 -> Some (at_pc, cost)
    | _ -> None)

let spans t =
  List.filter_map
    (function Event.Dispatch { ctx; start; stop } -> Some (ctx, start, stop) | _ -> None)
    (events t)

let timeline ?(width = 72) t =
  let spans = spans t in
  if spans = [] then ""
  else begin
    let t_end = List.fold_left (fun acc (_, _, stop) -> max acc stop) 0 spans in
    let ids = List.sort_uniq compare (List.map (fun (ctx, _, _) -> ctx) spans) in
    let scale = max 1 ((t_end + width - 1) / width) in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "timeline: %d cycles, %d cycles/col\n" t_end scale);
    List.iter
      (fun id ->
        let row = Bytes.make width '.' in
        List.iter
          (fun (ctx, start, stop) ->
            if ctx = id then
              for col = start / scale to min (width - 1) ((stop - 1) / scale) do
                Bytes.set row col '#'
              done)
          spans;
        Buffer.add_string buf (Printf.sprintf "ctx %3d  %s\n" id (Bytes.to_string row)))
      ids;
    if t.dropped > 0 then Buffer.add_string buf (Printf.sprintf "(+%d dropped)\n" t.dropped);
    Buffer.contents buf
  end
