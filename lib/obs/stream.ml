open Stallhide_util
open Stallhide_mem
open Stallhide_cpu

type t = {
  buf : Event.t Vec.t;
  capacity : int;
  mutable dropped : int;
  registry : Registry.t;
  (* Per-pc tallies of every event, dropped or not, indexed by pc and
     grown on demand: what attribution reads. *)
  mutable stall_at : int array;  (* [Stall] cycles *)
  mutable fired_at : int array;  (* fired [Yield]s *)
  mutable skipped_at : int array;  (* [Yield]s that fell through *)
  mutable switch_at : int array;  (* [Context_switch] cost charged at a yield site *)
}

let create ?(capacity = 1 lsl 18) () =
  {
    buf = Vec.create ();
    capacity;
    dropped = 0;
    registry = Registry.create ();
    stall_at = [||];
    fired_at = [||];
    skipped_at = [||];
    switch_at = [||];
  }

(* [a] with [n] added at [pc], grown (at least doubled) to fit. *)
let bump a pc n =
  let a =
    if pc < Array.length a then a
    else begin
      let b = Array.make (max (pc + 1) (2 * Array.length a)) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    end
  in
  a.(pc) <- a.(pc) + n;
  a

(* A [Cache_access]'s counter name, built once per serving level. *)
let load_counter =
  let name l = "load." ^ Hierarchy.level_name l in
  let l1 = name Hierarchy.L1 and l2 = name L2 and l3 = name L3 and dram = name Dram in
  function Hierarchy.L1 -> l1 | L2 -> l2 | L3 -> l3 | Dram -> dram

let count t event =
  let r = t.registry in
  match event with
  | Event.Yield { ctx; pc; fired; _ } ->
      if pc >= 0 then
        if fired then t.fired_at <- bump t.fired_at pc 1
        else t.skipped_at <- bump t.skipped_at pc 1;
      Registry.incr (Registry.counter r ~ctx (if fired then "yield.fired" else "yield.skipped"))
  | Event.Cache_access { ctx; level; stall; queue; _ } ->
      Registry.incr (Registry.counter r ~ctx (load_counter level));
      if stall > 0 then Registry.observe (Registry.histogram r "load.stall") stall;
      if queue > 0 then Registry.incr ~by:queue (Registry.counter r ~ctx "load.queue_cycles")
  | Event.Stall { ctx; pc; cycles; _ } ->
      if pc >= 0 then t.stall_at <- bump t.stall_at pc cycles;
      Registry.incr ~by:cycles (Registry.counter r ~ctx "stall.cycles")
  | Event.Frontend_stall { ctx; cycles; _ } ->
      Registry.incr ~by:cycles (Registry.counter r ~ctx "frontend_stall.cycles")
  | Event.Op_retired { ctx; _ } -> Registry.incr (Registry.counter r ~ctx "ops")
  | Event.Context_switch { from_ctx; at_pc; cost; _ } ->
      if at_pc >= 0 then t.switch_at <- bump t.switch_at at_pc cost;
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
  count t event;
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

(* The non-zero entries of a tally, summed per [map pc]. *)
let table ?(map = fun pc -> pc) a =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun pc v ->
      if v <> 0 then begin
        let key = map pc in
        Hashtbl.replace tbl key (v + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      end)
    a;
  tbl

let stall_by_pc ?map t = table ?map t.stall_at

let yields_by_pc t =
  let tbl = Hashtbl.create 32 in
  let at a pc = if pc < Array.length a then a.(pc) else 0 in
  for pc = 0 to max (Array.length t.fired_at) (Array.length t.skipped_at) - 1 do
    let f = at t.fired_at pc and s = at t.skipped_at pc in
    if f + s > 0 then Hashtbl.replace tbl pc (f, s)
  done;
  tbl

let switch_cycles_by_pc t = table t.switch_at

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
