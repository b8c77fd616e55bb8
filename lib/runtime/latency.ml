open Stallhide_util

(* Per-context state in arrays indexed by context id, grown on demand:
   [last] holds the cycle of the context's last opmark ([unarmed] until
   its first), [lats] its latencies in an array that doubles, of which
   the first [len] are recorded. Storage stays in proportion to what a
   context records: an unarmed or once-seen context holds the shared
   empty array. *)
type recorder = {
  mutable last : int array;
  mutable len : int array;
  mutable lats : int array array;
  mutable ops : int;
}

(* An opmark at cycle 0 is legal, so "not armed yet" needs a cycle no
   clock reads. *)
let unarmed = min_int

let recorder () = { last = [||]; len = [||]; lats = [||]; ops = 0 }

let ops r = r.ops

(* Make room for context [ctx]: at least double, so ids met in
   ascending order cost amortized constant time. *)
let fit r ctx =
  if ctx < 0 then invalid_arg (Printf.sprintf "Latency.on_opmark: negative context id %d" ctx);
  let n = Array.length r.last in
  let size = max (ctx + 1) (max 16 (2 * n)) in
  let grow a fill =
    let b = Array.make size fill in
    Array.blit a 0 b 0 n;
    b
  in
  r.last <- grow r.last unarmed;
  r.len <- grow r.len 0;
  r.lats <- grow r.lats [||]

let push r ctx lat =
  let n = r.len.(ctx) in
  let a = r.lats.(ctx) in
  let a =
    if n < Array.length a then a
    else begin
      let b = Array.make (max 8 (2 * n)) 0 in
      Array.blit a 0 b 0 n;
      r.lats.(ctx) <- b;
      b
    end
  in
  a.(n) <- lat;
  r.len.(ctx) <- n + 1

(* The one opmark observer every [Baselines] arm attaches: it counts the
   opmark and, from a context's second opmark on, records the distance
   from the previous one. It allocates only when an array grows. *)
let on_opmark r ~ctx ~pc:_ ~cycle =
  if ctx >= Array.length r.last || ctx < 0 then fit r ctx;
  r.ops <- r.ops + 1;
  let prev = r.last.(ctx) in
  r.last.(ctx) <- cycle;
  (* the first opmark arms the recorder: no defined start *)
  if prev <> unarmed then push r ctx (cycle - prev)

let of_ctx r ctx =
  if ctx >= Array.length r.len then [] else Array.to_list (Array.sub r.lats.(ctx) 0 r.len.(ctx))

type summary = {
  count : int;
  mean : float;
  stddev : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
  max : int;
}

(* LSD radix sort of [a] in place, 8 bits per pass over [x - min], with
   one scratch array. The offsets are read as unsigned 63-bit words
   ([lsr] is logical), so a span wider than [max_int] (say [min_int]
   and [max_int] together) still sorts; passes stop at the span's top
   byte. *)
let sort_ints a =
  let n = Array.length a in
  if n > 1 then begin
    let lo = ref a.(0) and hi = ref a.(0) in
    for i = 1 to n - 1 do
      let x = a.(i) in
      if x < !lo then lo := x;
      if x > !hi then hi := x
    done;
    let lo = !lo in
    let span = !hi - lo in
    let count = Array.make 256 0 in
    let src = ref a and dst = ref (Array.make n 0) in
    let shift = ref 0 in
    while !shift < Sys.int_size && span lsr !shift <> 0 do
      let s = !src and d = !dst and sh = !shift in
      Array.fill count 0 256 0;
      for i = 0 to n - 1 do
        let b = ((s.(i) - lo) lsr sh) land 0xff in
        count.(b) <- count.(b) + 1
      done;
      let total = ref 0 in
      for b = 0 to 255 do
        let c = count.(b) in
        count.(b) <- !total;
        total := !total + c
      done;
      for i = 0 to n - 1 do
        let x = s.(i) in
        let b = ((x - lo) lsr sh) land 0xff in
        d.(count.(b)) <- x;
        count.(b) <- count.(b) + 1
      done;
      src := d;
      dst := s;
      shift := sh + 8
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end

(* Linear interpolation between closest ranks (numpy's "linear" /
   "inclusive" method): rank = q*(n-1); interpolate between the samples
   at floor(rank) and ceil(rank), then round to the nearest cycle. This
   replaced nearest-rank, whose step discontinuities made one-sample
   shifts look like whole-bucket p99 jumps in the differential sweeps.
   [a] is sorted ascending and non-empty. *)
let percentile_sorted a q =
  let n = Array.length a in
  let rank = q *. float_of_int (n - 1) in
  let rank = Float.max 0.0 (Float.min (float_of_int (n - 1)) rank) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  let v = float_of_int a.(lo) +. (frac *. float_of_int (a.(hi) - a.(lo))) in
  int_of_float (Float.round v)

let percentile xs q =
  match xs with
  | [] -> invalid_arg "Latency.percentile: empty"
  | _ ->
      let a = Array.of_list xs in
      sort_ints a;
      percentile_sorted a q

(* Every summary takes this path over an array it owns. The mean comes
   from the integer sum and the [sq_dev] fold runs in the array's order
   before the sort: float addition is not associative, so folding in
   sorted order could move stddev in the last bit. One sort then serves
   every order statistic. *)
let summarize_array a =
  let n = Array.length a in
  if n = 0 then None
  else begin
    let sum = ref 0 in
    for i = 0 to n - 1 do
      sum := !sum + a.(i)
    done;
    let mean = float_of_int !sum /. float_of_int n in
    let sq_dev = ref 0.0 in
    for i = 0 to n - 1 do
      let d = float_of_int a.(i) -. mean in
      sq_dev := !sq_dev +. (d *. d)
    done;
    sort_ints a;
    Some
      {
        count = n;
        mean;
        stddev = sqrt (!sq_dev /. float_of_int n);
        p50 = percentile_sorted a 0.50;
        p90 = percentile_sorted a 0.90;
        p99 = percentile_sorted a 0.99;
        p999 = percentile_sorted a 0.999;
        max = a.(n - 1);
      }
  end

let summarize xs = summarize_array (Array.of_list xs)

(* One context's latencies oldest first, or every context's in
   ascending id, copied into one array. *)
let summarize_recorder ?ctx r =
  let contexts = Array.length r.len in
  match ctx with
  | Some c when c < 0 ->
      invalid_arg (Printf.sprintf "Latency.summarize_recorder: negative context id %d" c)
  | Some c when c >= contexts -> None
  | Some c -> summarize_array (Array.sub r.lats.(c) 0 r.len.(c))
  | None ->
      let a = Array.make (Array.fold_left ( + ) 0 r.len) 0 in
      let at = ref 0 in
      for c = 0 to contexts - 1 do
        Array.blit r.lats.(c) 0 a !at r.len.(c);
        at := !at + r.len.(c)
      done;
      summarize_array a

let empty_summary =
  { count = 0; mean = 0.0; stddev = 0.0; p50 = 0; p90 = 0; p99 = 0; p999 = 0; max = 0 }

let summary xs = match summarize xs with Some s -> s | None -> empty_summary

let merge summaries =
  match List.filter (fun s -> s.count > 0) summaries with
  | [] -> empty_summary
  | [ s ] -> s
  | live ->
      let count = List.fold_left (fun acc s -> acc + s.count) 0 live in
      let fcount = float_of_int count in
      let wsumf f = List.fold_left (fun acc s -> acc +. (float_of_int s.count *. f s)) 0.0 live in
      let mean = wsumf (fun s -> s.mean) /. fcount in
      (* Pooled second moment: E[x²] per core is stddev² + mean². *)
      let m2 = wsumf (fun s -> (s.stddev *. s.stddev) +. (s.mean *. s.mean)) /. fcount in
      let stddev = sqrt (Float.max 0.0 (m2 -. (mean *. mean))) in
      let wavg f =
        int_of_float (Float.round (wsumf (fun s -> float_of_int (f s)) /. fcount))
      in
      {
        count;
        mean;
        stddev;
        p50 = wavg (fun s -> s.p50);
        p90 = wavg (fun s -> s.p90);
        p99 = wavg (fun s -> s.p99);
        p999 = wavg (fun s -> s.p999);
        max = List.fold_left (fun acc s -> max acc s.max) min_int live;
      }

let pp_summary fmt s =
  Format.fprintf fmt "n=%d mean=%.1f sd=%.1f p50=%d p90=%d p99=%d p99.9=%d max=%d" s.count s.mean
    s.stddev s.p50 s.p90 s.p99 s.p999 s.max

let summary_to_json s =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean", Json.Float s.mean);
      ("stddev", Json.Float s.stddev);
      ("p50", Json.Int s.p50);
      ("p90", Json.Int s.p90);
      ("p99", Json.Int s.p99);
      ("p999", Json.Int s.p999);
      ("max", Json.Int s.max);
    ]

type split = {
  offered : int;
  answered : int;
  dropped : int;
  censor : int;
  goodput : summary;
  full : summary;
}

let split ~censor ~dropped answered_lats =
  if dropped < 0 then invalid_arg "Latency.split: dropped must be >= 0";
  if censor < 0 then invalid_arg "Latency.split: censor must be >= 0";
  let answered = List.length answered_lats in
  let censored = List.init dropped (fun _ -> censor) in
  {
    offered = answered + dropped;
    answered;
    dropped;
    censor;
    goodput = summary answered_lats;
    full = summary (List.rev_append censored answered_lats);
  }

let violation_rate s =
  if s.offered = 0 then 0.0 else float_of_int s.dropped /. float_of_int s.offered

let split_to_json s =
  Json.Obj
    [
      ("offered", Json.Int s.offered);
      ("answered", Json.Int s.answered);
      ("dropped", Json.Int s.dropped);
      ("censor", Json.Int s.censor);
      ("violation_rate", Json.Float (violation_rate s));
      ("goodput", summary_to_json s.goodput);
      ("full", summary_to_json s.full);
    ]
