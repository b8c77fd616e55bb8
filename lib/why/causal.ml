open Stallhide_util

type kind = Resource | Site

let kind_name = function Resource -> "resource" | Site -> "site"

type target = { id : string; kind : kind; detail : string }

type contribution = {
  target : target;
  base : Sweep.series;
  counterfactual : Sweep.series;
  contribution : Sweep.series;
}

type report = { seeds : int list; base : Sweep.series; rows : contribution list }

let run ~seeds ~base ~targets =
  let base_runs, runs = Sweep.arms ~seeds ~base targets in
  let base = Sweep.of_samples base_runs in
  let row (target, cf) =
    (* contribution = base - counterfactual, paired per seed *)
    { target; base; counterfactual = Sweep.of_samples cf; contribution = Sweep.delta cf base_runs }
  in
  { seeds; base; rows = List.map row runs }

let contribution_value metric c = (Sweep.series_value metric c.contribution).value

let ranked ?kind metric report =
  let rows =
    match kind with
    | None -> report.rows
    | Some k -> List.filter (fun c -> c.target.kind = k) report.rows
  in
  List.stable_sort
    (fun a b -> compare (contribution_value metric b) (contribution_value metric a))
    rows

let rank_of metric report ~id =
  match List.find_opt (fun c -> String.equal c.target.id id) report.rows with
  | None -> None
  | Some c ->
      let peers = ranked ~kind:c.target.kind metric report in
      let rec pos i = function
        | [] -> None
        | x :: rest -> if String.equal x.target.id id then Some i else pos (i + 1) rest
      in
      pos 1 peers

let share metric report c =
  let base = (Sweep.series_value metric report.base).value in
  if base = 0.0 then 0.0 else contribution_value metric c /. base

let pp ~metric fmt report =
  let m = Sweep.metric_name metric in
  Format.fprintf fmt "causal attribution over %d seed%s, metric %s (base = %.1f)@."
    (List.length report.seeds)
    (if List.length report.seeds = 1 then "" else "s")
    m
    (Sweep.series_value metric report.base).value;
  List.iter
    (fun k ->
      let rows = ranked ~kind:k metric report in
      if rows <> [] then begin
        Format.fprintf fmt "  %ss:@." (kind_name k);
        List.iteri
          (fun i c ->
            let s = Sweep.series_value metric c.contribution in
            Format.fprintf fmt "    #%d %-16s %+.1f ± %.1f cycles (%.1f%% of %s)  %s@." (i + 1)
              c.target.id s.value s.ci95
              (100.0 *. share metric report c)
              m c.target.detail)
          rows
      end)
    [ Resource; Site ]

let contribution_json metric report c =
  let s = Sweep.series_value metric c.contribution in
  Json.Obj
    [
      ("id", Json.String c.target.id);
      ("kind", Json.String (kind_name c.target.kind));
      ("detail", Json.String c.target.detail);
      ("contribution", Json.Float s.value);
      ("ci95", Json.Float s.ci95);
      ("share", Json.Float (share metric report c));
      ("series", Sweep.series_json c.contribution);
    ]

let to_json ~metric report =
  let table k =
    Json.List (List.map (contribution_json metric report) (ranked ~kind:k metric report))
  in
  Json.Obj
    [
      ("metric", Json.String (Sweep.metric_name metric));
      ("seeds", Json.List (List.map (fun s -> Json.Int s) report.seeds));
      ("base", Json.Float (Sweep.series_value metric report.base).value);
      ("resources", table Resource);
      ("sites", table Site);
    ]
