open Stallhide_util
module Event = Stallhide_obs.Event
module Machine = Stallhide_smp.Machine

type breakdown = {
  rid : int;
  latency : int;
  queueing : int;
  compute : int;
  stall : int;
  contention : int;
  switch : int;
  offcore : int;
}

let breakdown ~events (r : Machine.request) =
  if r.finished_at < 0 then None
  else begin
    let id = r.ctx.Stallhide_cpu.Context.id in
    let first_dispatch = ref max_int in
    let oncore = ref 0 in
    let stall = ref 0 in
    let contention = ref 0 in
    let switch = ref 0 in
    List.iter
      (fun e ->
        match e with
        | Event.Dispatch { ctx; start; stop } when ctx = id ->
            if start < !first_dispatch then first_dispatch := start;
            oncore := !oncore + (stop - start)
        | Event.Stall { ctx; cycles; _ } when ctx = id -> stall := !stall + cycles
        | Event.Cache_access { ctx; queue; _ } when ctx = id ->
            contention := !contention + queue
        | Event.Context_switch { from_ctx; cost; _ } when from_ctx = id ->
            switch := !switch + cost
        | _ -> ())
      events;
    (* a finished request with no dispatch slice ran untraced or had its
       events dropped: there is nothing to decompose *)
    if !first_dispatch = max_int then None
    else begin
      let latency = r.finished_at - r.arrival in
      let queueing = max 0 (min latency (!first_dispatch - r.arrival)) in
      let stall = !stall in
      let switch = !switch in
      let compute = max 0 (!oncore - stall - switch) in
      let offcore = max 0 (latency - queueing - compute - stall - switch) in
      Some
        {
          rid = r.rid;
          latency;
          queueing;
          compute;
          stall;
          contention = min !contention stall;
          switch;
          offcore;
        }
    end
  end

type totals = {
  n : int;
  latency : int;
  queueing : int;
  compute : int;
  stall : int;
  contention : int;
  switch : int;
  offcore : int;
}

let totals bs =
  List.fold_left
    (fun acc (b : breakdown) ->
      {
        n = acc.n + 1;
        latency = acc.latency + b.latency;
        queueing = acc.queueing + b.queueing;
        compute = acc.compute + b.compute;
        stall = acc.stall + b.stall;
        contention = acc.contention + b.contention;
        switch = acc.switch + b.switch;
        offcore = acc.offcore + b.offcore;
      })
    { n = 0; latency = 0; queueing = 0; compute = 0; stall = 0; contention = 0; switch = 0; offcore = 0 }
    bs

let tail ~frac bs =
  match bs with
  | [] -> []
  | _ ->
      let sorted =
        List.stable_sort
          (fun (a : breakdown) (b : breakdown) -> compare (b.latency, a.rid) (a.latency, b.rid))
          bs
      in
      let n = List.length sorted in
      let keep = max 1 (int_of_float (Float.round (frac *. float_of_int n))) in
      List.filteri (fun i _ -> i < keep) sorted

let pct part whole = if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let pp_totals fmt t =
  Format.fprintf fmt
    "%d request%s, %d total cycles:@.  queueing %d (%.1f%%)  compute %d (%.1f%%)  stall %d \
     (%.1f%%, of which %d contention)  switch %d (%.1f%%)  offcore %d (%.1f%%)"
    t.n
    (if t.n = 1 then "" else "s")
    t.latency t.queueing (pct t.queueing t.latency) t.compute (pct t.compute t.latency) t.stall
    (pct t.stall t.latency) t.contention t.switch (pct t.switch t.latency) t.offcore
    (pct t.offcore t.latency)

let to_json t =
  Json.Obj
    [
      ("requests", Json.Int t.n);
      ("latency", Json.Int t.latency);
      ("queueing", Json.Int t.queueing);
      ("compute", Json.Int t.compute);
      ("stall", Json.Int t.stall);
      ("contention", Json.Int t.contention);
      ("switch", Json.Int t.switch);
      ("offcore", Json.Int t.offcore);
    ]
