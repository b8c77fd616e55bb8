open Stallhide_util

let buckets = 48

type counter = { mutable v : int }

type histogram = {
  mutable count : int;
  mutable sum : int;
  mutable max : int;
  slots : int array;  (** [buckets] log2 slots *)
}

type t = {
  counters : (string * int, counter) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; histograms = Hashtbl.create 32 }

let counter t ~ctx name =
  match Hashtbl.find_opt t.counters (name, ctx) with
  | Some c -> c
  | None ->
      let c = { v = 0 } in
      Hashtbl.add t.counters (name, ctx) c;
      c

let incr ?(by = 1) c = c.v <- c.v + by

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h = { count = 0; sum = 0; max = min_int; slots = Array.make buckets 0 } in
      Hashtbl.add t.histograms name h;
      h

(* slot 0 holds v <= 0; slot i holds 2^(i-1) <= v < 2^i *)
let slot_of v =
  if v <= 0 then 0
  else begin
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    min (buckets - 1) (bits 0 v)
  end

let slot_upper i = if i = 0 then 0 else (1 lsl i) - 1

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v > h.max then h.max <- v;
  let s = h.slots in
  let i = slot_of v in
  s.(i) <- s.(i) + 1

let total t name =
  Hashtbl.fold (fun (n, _) c acc -> if String.equal n name then acc + c.v else acc) t.counters 0

let by_ctx t name =
  Hashtbl.fold
    (fun (n, ctx) c acc -> if String.equal n name then (ctx, c.v) :: acc else acc)
    t.counters []
  |> List.sort compare

let hist_max h = if h.count = 0 then 0 else h.max

let hist_quantile h q =
  if h.count = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int h.count)) in
    let rank = Stdlib.max 1 (Stdlib.min h.count rank) in
    let rec walk i seen =
      if i >= buckets then slot_upper (buckets - 1)
      else
        let seen = seen + h.slots.(i) in
        if seen >= rank then slot_upper i else walk (i + 1) seen
    in
    walk 0 0
  end

(* Counter names and histograms, each sorted by name. *)
let series t =
  let counters = Hashtbl.fold (fun (n, _) _ acc -> n :: acc) t.counters [] in
  let hists = Hashtbl.fold (fun n h acc -> (n, h) :: acc) t.histograms [] in
  (List.sort_uniq compare counters, List.sort (fun (a, _) (b, _) -> compare a b) hists)

(* the highest non-empty slot, 0 when every slot is empty *)
let last_slot h =
  let rec go i = if i < 0 then 0 else if h.slots.(i) > 0 then i else go (i - 1) in
  go (buckets - 1)

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots and dashes
   become underscores; "a.b" and "a_b" therefore collide — acceptable
   for our fixed vocabulary. *)
let prom_name name =
  "stallhide_"
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name

let to_prometheus t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf fmt in
  let counter_names, hists = series t in
  List.iter
    (fun name ->
      let m = prom_name name in
      line "# TYPE %s counter\n" m;
      List.iter (fun (ctx, v) -> line "%s{ctx=\"%d\"} %d\n" m ctx v) (by_ctx t name))
    counter_names;
  List.iter
    (fun (name, h) ->
      let m = prom_name name in
      line "# TYPE %s histogram\n" m;
      let cum = ref 0 in
      for i = 0 to last_slot h do
        cum := !cum + h.slots.(i);
        line "%s_bucket{le=\"%d\"} %d\n" m (slot_upper i) !cum
      done;
      line "%s_bucket{le=\"+Inf\"} %d\n" m h.count;
      line "%s_sum %d\n" m h.sum;
      line "%s_count %d\n" m h.count)
    hists;
  Buffer.contents buf

let to_json t =
  let counter_names, hists = series t in
  let counter name =
    let by_ctx = List.map (fun (ctx, v) -> (string_of_int ctx, Json.Int v)) (by_ctx t name) in
    (name, Json.Obj [ ("total", Json.Int (total t name)); ("by_ctx", Json.Obj by_ctx) ])
  in
  let bucket h i = Json.Obj [ ("le", Json.Int (slot_upper i)); ("count", Json.Int h.slots.(i)) ] in
  let histogram (name, h) =
    ( name,
      Json.Obj
        [
          ("count", Json.Int h.count);
          ("sum", Json.Int h.sum);
          ("max", Json.Int (hist_max h));
          ("p50", Json.Int (hist_quantile h 0.5));
          ("p99", Json.Int (hist_quantile h 0.99));
          ("buckets", Json.List (List.init (last_slot h + 1) (bucket h)));
        ] )
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map counter counter_names));
      ("histograms", Json.Obj (List.map histogram hists));
    ]
