open Stallhide_cpu
open Stallhide_util

type recorder = { last : (int, int) Hashtbl.t; lats : (int, int Vec.t) Hashtbl.t }

let recorder () = { last = Hashtbl.create 16; lats = Hashtbl.create 16 }

(* The lookups below run at every opmark, often on the decoded-µop
   loop: [find] with [exception Not_found] allocates nothing where
   [find_opt] boxes a [Some]. A context enters [lats] at its second
   opmark, with its first latency; that fixes the order [all] folds
   in. *)
let vec_of r ctx =
  match Hashtbl.find r.lats ctx with
  | v -> v
  | exception Not_found ->
      let v = Vec.create () in
      Hashtbl.add r.lats ctx v;
      v

let hooks r =
  let on_opmark ~ctx ~pc:_ ~cycle =
    match Hashtbl.find r.last ctx with
    | prev ->
        Vec.push (vec_of r ctx) (cycle - prev);
        Hashtbl.replace r.last ctx cycle
    | exception Not_found ->
        (* first opmark arms the recorder: no defined start *)
        Hashtbl.add r.last ctx cycle
  in
  { Events.nop with on_opmark }

let of_ctx r ctx = match Hashtbl.find_opt r.lats ctx with Some v -> Vec.to_list v | None -> []

let all r = Hashtbl.fold (fun _ v acc -> Vec.to_list v @ acc) r.lats []

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

let sorted xs =
  let a = Array.of_list xs in
  Array.stable_sort Int.compare a;
  a

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
  | _ -> percentile_sorted (sorted xs) q

(* One integer sort serves every order statistic. The [sq_dev] fold
   stays over [xs] in its given order: float addition is not
   associative, so folding in sorted order could move stddev in the
   last bit. *)
let summarize xs =
  match xs with
  | [] -> None
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let sum = List.fold_left ( + ) 0 xs in
      let mean = float_of_int sum /. float_of_int n in
      let sq_dev =
        List.fold_left
          (fun acc x ->
            let d = float_of_int x -. mean in
            acc +. (d *. d))
          0.0 xs
      in
      Some
        {
          count = n;
          mean;
          stddev = sqrt (sq_dev /. float_of_int n);
          p50 = percentile_sorted a 0.50;
          p90 = percentile_sorted a 0.90;
          p99 = percentile_sorted a 0.99;
          p999 = percentile_sorted a 0.999;
          max = a.(n - 1);
        }

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
