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

(* A [Cache_access]'s counter name, built once per serving level. *)
let load_counter =
  let name l = "load." ^ Hierarchy.level_name l in
  let l1 = name Hierarchy.L1 and l2 = name L2 and l3 = name L3 and dram = name Dram in
  function Hierarchy.L1 -> l1 | L2 -> l2 | L3 -> l3 | Dram -> dram

let count r event =
  match event with
  | Event.Yield { ctx; fired; _ } ->
      Registry.incr (Registry.counter r ~ctx (if fired then "yield.fired" else "yield.skipped"))
  | Event.Cache_access { ctx; level; stall; queue; _ } ->
      Registry.incr (Registry.counter r ~ctx (load_counter level));
      if stall > 0 then Registry.observe (Registry.histogram r "load.stall") stall;
      if queue > 0 then Registry.incr ~by:queue (Registry.counter r ~ctx "load.queue_cycles")
  | Event.Stall { ctx; cycles; _ } ->
      Registry.incr ~by:cycles (Registry.counter r ~ctx "stall.cycles")
  | Event.Frontend_stall { ctx; cycles; _ } ->
      Registry.incr ~by:cycles (Registry.counter r ~ctx "frontend_stall.cycles")
  | Event.Op_retired { ctx; _ } -> Registry.incr (Registry.counter r ~ctx "ops")
  | Event.Context_switch { from_ctx; cost; _ } ->
      Registry.incr (Registry.counter r ~ctx:from_ctx "switch.count");
      Registry.observe (Registry.histogram r "switch.cost") cost
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
  | Event.Dispatch { start; stop; _ } ->
      Registry.observe (Registry.histogram r "dispatch.cycles") (stop - start)
  | Event.Span_open { ctx; _ } -> Registry.incr (Registry.counter r ~ctx "span.opened")
  | Event.Span_close { ctx; _ } -> Registry.incr (Registry.counter r ~ctx "span.closed")
  | Event.Steal { ctx; _ } -> Registry.incr (Registry.counter r ~ctx "steal.migrations")

let record t event =
  count t.registry event;
  if Vec.length t.buf < t.capacity then Vec.push t.buf event else t.dropped <- t.dropped + 1

let events t = Vec.to_list t.buf

let iter f t = Vec.iter f t.buf

let length t = Vec.length t.buf

let dropped t = t.dropped

let registry t = t.registry

let attach t probe =
  Probe.trace probe
    {
      Probe.load =
        (fun ~ctx ~pc ~addr ~level ~stall ~queue ~cycle ->
          record t
            (Event.Cache_access
               { ctx; pc; addr; level = Hierarchy.level_of_code level; stall; queue; cycle }));
      stall =
        (fun ~ctx ~pc ~stall ~cycle -> record t (Event.Stall { ctx; pc; cycles = stall; cycle }));
      frontend =
        (fun ~ctx ~pc ~stall ~cycle ->
          record t (Event.Frontend_stall { ctx; pc; cycles = stall; cycle }));
      yield =
        (fun ~ctx ~pc ~kind ~fired ~cycle ->
          record t (Event.Yield { ctx; pc; kind; fired; cycle }));
      opmark = (fun ~ctx ~pc ~cycle -> record t (Event.Op_retired { ctx; pc; cycle }));
    }

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
