(* Host-time spans recorded from the benchmark's own code, around calls
   into each layer's public functions.

   A span has a name (its layer), start and end in host nanoseconds, a
   parent span, and a request id (-1 when the span serves no single
   request). Spans nest strictly — the benchmark is single-threaded —
   so a layer's self time (its duration minus the part its children
   cover) is accumulated exactly as each span closes. Every closed span
   feeds the per-layer totals; the first [capacity] are also kept in
   memory and written out at exit. Recording allocates nothing, so it
   can wrap each machine step. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let capacity = 20_000

let max_depth = 64

let max_names = 64

(* interned layer names *)
let names = Array.make max_names ""

let n_names = ref 0

let find name =
  let rec go i = if i >= !n_names then None else if names.(i) = name then Some i else go (i + 1) in
  go 0

let id name =
  match find name with
  | Some i -> i
  | None ->
      if !n_names >= max_names then invalid_arg "Span.id: too many layer names";
      names.(!n_names) <- name;
      incr n_names;
      !n_names - 1

(* per-layer aggregates since the last [reset_totals] *)
let self_ns = Array.make max_names 0

let total_ns = Array.make max_names 0

let count = Array.make max_names 0

(* kept spans *)
let s_name = Array.make capacity 0

let s_start = Array.make capacity 0

let s_stop = Array.make capacity 0

let s_parent = Array.make capacity (-1)

let s_rid = Array.make capacity (-1)

let kept = ref 0

let dropped = ref 0

(* the stack of open spans *)
let o_name = Array.make max_depth 0

let o_start = Array.make max_depth 0

let o_child = Array.make max_depth 0

let o_slot = Array.make max_depth (-1)

let o_rid = Array.make max_depth (-1)

let depth = ref 0

let enabled = ref false

(* [enter name rid] opens a span of the interned layer [name]. *)
let enter name rid =
  if !enabled then begin
    let d = !depth in
    if d >= max_depth then invalid_arg "Span.enter: nesting too deep";
    o_name.(d) <- name;
    o_child.(d) <- 0;
    o_rid.(d) <- rid;
    (* reserve the slot now so children can name it as their parent *)
    if !kept < capacity then begin
      o_slot.(d) <- !kept;
      incr kept
    end
    else begin
      o_slot.(d) <- -1;
      incr dropped
    end;
    depth := d + 1;
    o_start.(d) <- now_ns ()
  end

(* Duration of the span closed last, in nanoseconds. *)
let last_ns = ref 0

(* [leave rid] closes the innermost span; a [rid >= 0] names the request
   it turned out to serve (a machine step learns that only when the
   request completes). *)
let leave rid =
  if !enabled then begin
    let t = now_ns () in
    let d = !depth - 1 in
    if d < 0 then invalid_arg "Span.leave: no open span";
    depth := d;
    let name = o_name.(d) in
    let dur = t - o_start.(d) in
    last_ns := dur;
    self_ns.(name) <- self_ns.(name) + dur - o_child.(d);
    total_ns.(name) <- total_ns.(name) + dur;
    count.(name) <- count.(name) + 1;
    if d > 0 then o_child.(d - 1) <- o_child.(d - 1) + dur;
    let slot = o_slot.(d) in
    if slot >= 0 then begin
      s_name.(slot) <- name;
      s_start.(slot) <- o_start.(d);
      s_stop.(slot) <- t;
      s_parent.(slot) <- (if d > 0 then o_slot.(d - 1) else -1);
      s_rid.(slot) <- (if rid >= 0 then rid else o_rid.(d))
    end
  end

let with_ ?(rid = -1) name f =
  if not !enabled then f ()
  else begin
    enter (id name) rid;
    match f () with
    | v ->
        leave (-1);
        v
    | exception e ->
        leave (-1);
        raise e
  end

let reset_totals () =
  Array.fill self_ns 0 max_names 0;
  Array.fill total_ns 0 max_names 0;
  Array.fill count 0 max_names 0

let lookup arr name = match find name with Some i -> arr.(i) | None -> 0

let self_s name = float_of_int (lookup self_ns name) *. 1e-9

let total_s name = float_of_int (lookup total_ns name) *. 1e-9

let calls name = lookup count name

(* Self seconds of every layer whose name starts with [prefix]. *)
let self_s_prefix prefix =
  let n = String.length prefix in
  let acc = ref 0 in
  for i = 0 to !n_names - 1 do
    let s = names.(i) in
    if String.length s >= n && String.sub s 0 n = prefix then acc := !acc + self_ns.(i)
  done;
  float_of_int !acc *. 1e-9

(* Chrome trace-event JSON (loads in Perfetto): one complete event per
   kept span, with its parent slot and request id as args. *)
let write ~path =
  let oc = open_out path in
  let t0 = if !kept > 0 then s_start.(0) else 0 in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to !kept - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"id\":%d,\"parent\":%d,\"rid\":%d}}"
      names.(s_name.(i))
      (float_of_int (s_start.(i) - t0) /. 1000.0)
      (float_of_int (s_stop.(i) - s_start.(i)) /. 1000.0)
      i s_parent.(i) s_rid.(i)
  done;
  Printf.fprintf oc "\n],\"otherData\":{\"kept\":%d,\"dropped\":%d}}\n" !kept !dropped;
  close_out oc
