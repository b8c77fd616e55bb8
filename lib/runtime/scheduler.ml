open Stallhide_cpu

type result = {
  cycles : int;
  stall : int;
  switch_cycles : int;
  switches : int;
  instructions : int;
  completed : int;
  faults : string list;
}

let busy r = r.cycles - r.stall - r.switch_cycles

let efficiency r =
  if r.cycles = 0 then 1.0 else float_of_int (busy r) /. float_of_int r.cycles

let collect (ctxs : Context.t array) ~clock ~switches ~switch_cycles ~faults =
  let stall = Array.fold_left (fun acc c -> acc + c.Context.stall_cycles) 0 ctxs in
  let instructions = Array.fold_left (fun acc c -> acc + c.Context.instructions) 0 ctxs in
  let completed =
    Array.fold_left
      (fun acc c -> match c.Context.status with Context.Done -> acc + 1 | _ -> acc)
      0 ctxs
  in
  { cycles = clock; stall; switch_cycles; switches; instructions; completed; faults }

let emit obs event =
  match obs with Some s -> Stallhide_obs.Stream.record s event | None -> ()

let traced ?obs engine hier mem ~clock ~deadline (ctx : Context.t) =
  let before = !clock in
  let r = Engine.run engine hier mem ~clock ~deadline ctx in
  (* Allocate the Dispatch record only when someone is listening:
     [traced] runs once per slice on the hot path. *)
  (match obs with
  | Some s when !clock > before ->
      Stallhide_obs.Stream.record s
        (Stallhide_obs.Event.Dispatch { ctx = ctx.Context.id; start = before; stop = !clock })
  | _ -> ());
  r

let run_sequential ?(engine = Engine.default_config) ?(max_cycles = max_int) ?obs hier mem ctxs =
  let clock = ref 0 in
  let faults = ref [] in
  Array.iter
    (fun ctx ->
      let rec go () =
        match traced ?obs engine hier mem ~clock ~deadline:max_cycles ctx with
        | Engine.Yielded _ -> go ()  (* nothing to switch to: resume free *)
        | Engine.Halted | Engine.Out_of_budget -> ()
        | Engine.Fault m -> faults := m :: !faults
      in
      go ())
    ctxs;
  collect ctxs ~clock:!clock ~switches:0 ~switch_cycles:0 ~faults:(List.rev !faults)

let run_round_robin ?(engine = Engine.default_config) ?(max_cycles = max_int) ?obs ~switch
    hier mem ctxs =
  let n = Array.length ctxs in
  if n = 0 then invalid_arg "Scheduler.run_round_robin: no contexts";
  let clock = ref 0 in
  let switches = ref 0 in
  let switch_cycles = ref 0 in
  let faults = ref [] in
  (* First runnable context after [i] (exclusive), wrapping; -1 if none. *)
  let next_after i =
    let rec loop k =
      if k > n then -1
      else
        let j = (i + k) mod n in
        if Context.is_ready ctxs.(j) then j else loop (k + 1)
    in
    loop 1
  in
  let charge ~from_ctx ~to_ctx ~at_pc cost =
    incr switches;
    switch_cycles := !switch_cycles + cost;
    emit obs (Stallhide_obs.Event.Context_switch { from_ctx; to_ctx; at_pc; cost; cycle = !clock });
    clock := !clock + cost
  in
  let cur = ref (if Context.is_ready ctxs.(0) then 0 else next_after 0) in
  while !cur >= 0 && !clock < max_cycles do
    let ctx = ctxs.(!cur) in
    (match traced ?obs engine hier mem ~clock ~deadline:max_cycles ctx with
    | Engine.Yielded (_, pc) ->
        let nxt = next_after !cur in
        if nxt >= 0 && nxt <> !cur then begin
          charge ~from_ctx:ctx.Context.id ~to_ctx:ctxs.(nxt).Context.id ~at_pc:pc
            (Switch_cost.at_site switch ctx.Context.program pc);
          cur := nxt
        end
        (* else: alone in the batch, resume for free *)
    | Engine.Halted ->
        let nxt = next_after !cur in
        if nxt >= 0 then
          charge ~from_ctx:ctx.Context.id ~to_ctx:ctxs.(nxt).Context.id ~at_pc:(-1)
            switch.Switch_cost.base;
        cur := nxt
    | Engine.Out_of_budget -> cur := -1
    | Engine.Fault m ->
        faults := m :: !faults;
        let nxt = next_after !cur in
        cur := nxt);
    if !cur >= 0 && not (Context.is_ready ctxs.(!cur)) then cur := next_after !cur
  done;
  collect ctxs ~clock:!clock ~switches:!switches ~switch_cycles:!switch_cycles
    ~faults:(List.rev !faults)
