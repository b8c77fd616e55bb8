
type result = { cycles : int; busy : int; idle : int; instructions : int; faults : string list }

let run ?(engine = Engine.default_config) hier mem (ctxs : Context.t array) ~max_cycles =
  let n = Array.length ctxs in
  if n = 0 then invalid_arg "Smt.run: no contexts";
  let clock = ref 0 in
  let wake = Array.make n 0 in
  let busy = ref 0 in
  let idle = ref 0 in
  let faults = ref [] in
  let rr = ref 0 in
  let runnable i = Context.is_ready ctxs.(i) in
  let issuable i = runnable i && wake.(i) <= !clock in
  (* Next issuable context in round-robin order, or -1. *)
  let pick () =
    let rec loop k = if k = n then -1 else if issuable ((!rr + k) mod n) then (!rr + k) mod n else loop (k + 1) in
    loop 0
  in
  let any_runnable () =
    let rec loop i = i < n && (runnable i || loop (i + 1)) in
    loop 0
  in
  let min_wake () =
    let m = ref max_int in
    for i = 0 to n - 1 do
      if runnable i && wake.(i) < !m then m := wake.(i)
    done;
    !m
  in
  let continue = ref true in
  while !continue && !clock < max_cycles && any_runnable () do
    match pick () with
    | -1 ->
        let w = min_wake () in
        if w = max_int || w <= !clock then continue := false
        else begin
          idle := !idle + (w - !clock);
          clock := w
        end
    | i -> (
        let before = !clock in
        (* every load that would stall blocks its context instead *)
        let r = Engine.step engine hier mem ~clock ctxs.(i) in
        busy := !busy + (!clock - before);
        rr := (i + 1) mod n;
        match r with
        | Engine.Blocked_until w -> wake.(i) <- w
        | Engine.Stop (Engine.Fault m) -> faults := m :: !faults
        | Engine.Stop (Engine.Halted | Engine.Yielded _ | Engine.Out_of_budget)
        | Engine.Normal ->
            ())
  done;
  let instructions = Array.fold_left (fun acc c -> acc + c.Context.instructions) 0 ctxs in
  { cycles = !clock; busy = !busy; idle = !idle; instructions; faults = List.rev !faults }
