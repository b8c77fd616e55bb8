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
  histograms : (string * int, histogram) Hashtbl.t;
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

let fresh_hist () = { count = 0; sum = 0; max = min_int; slots = Array.make buckets 0 }

let histogram t ~ctx name =
  match Hashtbl.find_opt t.histograms (name, ctx) with
  | Some h -> h
  | None ->
      let h = fresh_hist () in
      Hashtbl.add t.histograms (name, ctx) h;
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

let merged t name =
  let acc = ref None in
  Hashtbl.iter
    (fun (n, _) h ->
      if String.equal n name then begin
        let m = match !acc with Some m -> m | None ->
          let m = fresh_hist () in
          acc := Some m;
          m
        in
        m.count <- m.count + h.count;
        m.sum <- m.sum + h.sum;
        if h.max > m.max then m.max <- h.max;
        Array.iteri (fun i v -> m.slots.(i) <- m.slots.(i) + v) h.slots
      end)
    t.histograms;
  !acc

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

let names t =
  let tbl = Hashtbl.create 32 in
  Hashtbl.iter (fun (n, _) _ -> Hashtbl.replace tbl n ()) t.counters;
  Hashtbl.iter (fun (n, _) _ -> Hashtbl.replace tbl n ()) t.histograms;
  Hashtbl.fold (fun n () acc -> n :: acc) tbl [] |> List.sort compare

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
  let counter_names, hist_names =
    let has tbl name = Hashtbl.fold (fun (n, _) _ acc -> acc || String.equal n name) tbl false in
    List.partition (fun n -> has t.counters n) (names t)
  in
  List.iter
    (fun name ->
      let m = prom_name name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" m);
      List.iter
        (fun (ctx, v) -> Buffer.add_string buf (Printf.sprintf "%s{ctx=\"%d\"} %d\n" m ctx v))
        (by_ctx t name))
    counter_names;
  List.iter
    (fun name ->
      match merged t name with
      | None -> ()
      | Some h ->
          let m = prom_name name in
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" m);
          let last =
            let rec go i = if i < 0 then 0 else if h.slots.(i) > 0 then i else go (i - 1) in
            go (buckets - 1)
          in
          let cum = ref 0 in
          for i = 0 to last do
            cum := !cum + h.slots.(i);
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" m (slot_upper i) !cum)
          done;
          Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m h.count);
          Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" m h.sum);
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" m h.count))
    hist_names;
  Buffer.contents buf

let to_json t =
  let counter_names, hist_names =
    let has tbl name = Hashtbl.fold (fun (n, _) _ acc -> acc || String.equal n name) tbl false in
    List.partition (fun n -> has t.counters n) (names t)
  in
  let counters =
    List.map
      (fun name ->
        ( name,
          Json.Obj
            [
              ("total", Json.Int (total t name));
              ( "by_ctx",
                Json.Obj
                  (List.map (fun (ctx, v) -> (string_of_int ctx, Json.Int v)) (by_ctx t name)) );
            ] ))
      counter_names
  in
  let histograms =
    List.filter_map
      (fun name ->
        match merged t name with
        | None -> None
        | Some h ->
            let last =
              let rec go i = if i < 0 then 0 else if h.slots.(i) > 0 then i else go (i - 1) in
              go (buckets - 1)
            in
            Some
              ( name,
                Json.Obj
                  [
                    ("count", Json.Int h.count);
                    ("sum", Json.Int h.sum);
                    ("max", Json.Int (hist_max h));
                    ("p50", Json.Int (hist_quantile h 0.5));
                    ("p99", Json.Int (hist_quantile h 0.99));
                    ( "buckets",
                      Json.List
                        (List.init (last + 1) (fun i ->
                             Json.Obj
                               [
                                 ("le", Json.Int (slot_upper i));
                                 ("count", Json.Int h.slots.(i));
                               ])) );
                  ] ))
      hist_names
  in
  Json.Obj [ ("counters", Json.Obj counters); ("histograms", Json.Obj histograms) ]
