open Stallhide_runtime

let ff ?(decimals = 2) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" decimals x

let pct x = if Float.is_nan x then "-" else Printf.sprintf "%.1f%%" (100.0 *. x)

let fi n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3) + 1) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON artifact recording: [group id] opens a bucket; every [table]   *)
(* printed while it is current is also captured, plus any extra values *)
(* recorded explicitly; [write_json] dumps the lot.                    *)
(* ------------------------------------------------------------------ *)

type group_data = {
  mutable tables : Stallhide_util.Json.t list;  (** newest first *)
  mutable extra : (string * Stallhide_util.Json.t) list;  (** newest first *)
}

let recorded : (string * group_data) list ref = ref []  (* newest first *)

let current : group_data option ref = ref None

let group id =
  let g = { tables = []; extra = [] } in
  recorded := (id, g) :: !recorded;
  current := Some g

let record key json =
  match !current with Some g -> g.extra <- (key, json) :: g.extra | None -> ()

let record_table ~title ~note ~header rows =
  match !current with
  | None -> ()
  | Some g ->
      let open Stallhide_util in
      let strings cells = Json.List (List.map (fun c -> Json.String c) cells) in
      let t =
        Json.Obj
          ([ ("title", Json.String title) ]
          @ (match note with Some n -> [ ("note", Json.String n) ] | None -> [])
          @ [ ("header", strings header); ("rows", Json.List (List.map strings rows)) ])
      in
      g.tables <- t :: g.tables

let write_json ~path =
  let open Stallhide_util in
  let groups =
    List.rev_map
      (fun (id, g) ->
        ( id,
          Json.Obj
            (("tables", Json.List (List.rev g.tables))
            :: List.rev_map (fun (k, v) -> (k, v)) g.extra) ))
      !recorded
  in
  Json.write ~path
    (Json.Obj
       [
         ("schema_version", Json.Int 1);
         ("tool", Json.String "stallhide-bench");
         ("groups", Json.Obj groups);
       ])

let table ~title ?note ~header rows =
  record_table ~title ~note ~header rows;
  let all = header :: rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> if i < cols then width.(i) <- max width.(i) (String.length cell)) row)
    all;
  let render row =
    let cells =
      List.mapi
        (fun i cell ->
          let pad = width.(i) - String.length cell in
          if i = 0 then cell ^ String.make pad ' ' else String.make pad ' ' ^ cell)
        row
    in
    "  " ^ String.concat "  " cells
  in
  let rule = "  " ^ String.make (Array.fold_left ( + ) 0 width + (2 * (cols - 1))) '-' in
  print_newline ();
  Printf.printf "== %s ==\n" title;
  (match note with Some n -> Printf.printf "   %s\n" n | None -> ());
  print_endline (render header);
  print_endline rule;
  List.iter (fun r -> print_endline (render r)) rows;
  flush stdout

let metrics_header =
  [ "mechanism"; "cycles"; "eff"; "ops/kcyc"; "stall%"; "switch%"; "p50"; "p99" ]

let metrics_row (m : Metrics.t) =
  let cyc = float_of_int (max 1 m.Metrics.cycles) in
  let lat f = match m.Metrics.latency with Some s -> f s | None -> "-" in
  [
    m.Metrics.label;
    fi m.Metrics.cycles;
    pct m.Metrics.efficiency;
    ff ~decimals:3 m.Metrics.throughput;
    pct (float_of_int m.Metrics.stall /. cyc);
    pct (float_of_int m.Metrics.switch_cycles /. cyc);
    lat (fun s -> fi s.Latency.p50);
    lat (fun s -> fi s.Latency.p99);
  ]
