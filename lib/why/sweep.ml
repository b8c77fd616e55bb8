open Stallhide_util

type summary = Stallhide_runtime.Latency.summary

type metric = Mean | P50 | P90 | P99 | P999

let all_metrics = [ Mean; P50; P90; P99; P999 ]

let metric_of_string = function
  | "mean" -> Some Mean
  | "p50" -> Some P50
  | "p90" -> Some P90
  | "p99" -> Some P99
  | "p999" | "p99.9" -> Some P999
  | _ -> None

let metric_name = function
  | Mean -> "mean"
  | P50 -> "p50"
  | P90 -> "p90"
  | P99 -> "p99"
  | P999 -> "p999"

let metric_value m (s : summary) =
  match m with
  | Mean -> s.mean
  | P50 -> float_of_int s.p50
  | P90 -> float_of_int s.p90
  | P99 -> float_of_int s.p99
  | P999 -> float_of_int s.p999

type stat = { value : float; ci95 : float }

type series = { mean : stat; p50 : stat; p90 : stat; p99 : stat; p999 : stat }

let series_value m s =
  match m with Mean -> s.mean | P50 -> s.p50 | P90 -> s.p90 | P99 -> s.p99 | P999 -> s.p999

let stat_of xs =
  match xs with
  | [] -> { value = 0.0; ci95 = 0.0 }
  | [ x ] -> { value = x; ci95 = 0.0 }
  | _ ->
      let n = List.length xs in
      let fn = float_of_int n in
      let mean = List.fold_left ( +. ) 0.0 xs /. fn in
      let sq = List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs in
      let sd = sqrt (sq /. (fn -. 1.0)) in
      { value = mean; ci95 = 1.96 *. sd /. sqrt fn }

(* one stat per metric, each over the values [per] lists for it *)
let series per =
  let stat m = stat_of (per m) in
  { mean = stat Mean; p50 = stat P50; p90 = stat P90; p99 = stat P99; p999 = stat P999 }

let of_samples samples = series (fun m -> List.map (metric_value m) samples)

let delta base perturbed =
  if List.length base <> List.length perturbed then
    invalid_arg "Sweep.delta: sample lists of different lengths";
  series (fun m -> List.map2 (fun b p -> metric_value m p -. metric_value m b) base perturbed)

type row = { knob : string; detail : string; base : series; perturbed : series; delta : series }

type report = { seeds : int list; base : series; rows : row list }

let arms ~seeds ~base arms =
  if seeds = [] then invalid_arg "Sweep.arms: no seeds";
  let base_runs = List.map base seeds in
  (base_runs, List.map (fun (label, f) -> (label, List.map f seeds)) arms)

let run ~seeds ~base ~knobs =
  let base_runs, runs =
    arms ~seeds ~base (List.map (fun (knob, detail, f) -> ((knob, detail), f)) knobs)
  in
  let base = of_samples base_runs in
  let row ((knob, detail), perturbed) =
    { knob; detail; base; perturbed = of_samples perturbed; delta = delta base_runs perturbed }
  in
  { seeds; base; rows = List.map row runs }

let ranked metric report =
  List.stable_sort
    (fun a b ->
      compare
        (Float.abs (series_value metric b.delta).value)
        (Float.abs (series_value metric a.delta).value))
    report.rows

let pp ~metric fmt report =
  let m = metric_name metric in
  Format.fprintf fmt "sweep over %d seed%s, ranked by |Δ%s|@." (List.length report.seeds)
    (if List.length report.seeds = 1 then "" else "s")
    m;
  Format.fprintf fmt "  base %s = %.1f@." m (series_value metric report.base).value;
  List.iter
    (fun row ->
      let d = series_value metric row.delta in
      Format.fprintf fmt "  %-24s Δ%s = %+.1f ± %.1f  (%s)@." row.knob m d.value d.ci95
        row.detail)
    (ranked metric report)

let stat_json s = Json.Obj [ ("value", Json.Float s.value); ("ci95", Json.Float s.ci95) ]

let series_json s =
  Json.Obj (List.map (fun m -> (metric_name m, stat_json (series_value m s))) all_metrics)

let to_json report =
  Json.Obj
    [
      ("seeds", Json.List (List.map (fun s -> Json.Int s) report.seeds));
      ("base", series_json report.base);
      ( "knobs",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 [
                   ("knob", Json.String row.knob);
                   ("detail", Json.String row.detail);
                   ("base", series_json row.base);
                   ("perturbed", series_json row.perturbed);
                   ("delta", series_json row.delta);
                 ])
             report.rows) );
    ]
