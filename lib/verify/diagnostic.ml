type severity = Error | Warning | Info

type check = Cfg_equiv | Liveness | Pairing | Interval | Sfi | Atomicity

let check_id = function
  | Cfg_equiv -> "cfg-equiv"
  | Liveness -> "liveness"
  | Pairing -> "pairing"
  | Interval -> "interval"
  | Sfi -> "sfi"
  | Atomicity -> "atomicity"

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

type t = {
  check : check;
  severity : severity;
  pc : int;
  message : string;
  witness : int list;
}

let make severity check ?(pc = -1) ?(witness = []) message =
  { check; severity; pc; message; witness }

let error check = make Error check

let warning check = make Warning check

let info check = make Info check

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  match Int.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
      match Int.compare a.pc b.pc with
      | 0 -> Stdlib.compare (check_id a.check) (check_id b.check)
      | c -> c)
  | c -> c

let pp fmt d =
  Format.fprintf fmt "%s[%s]" (severity_name d.severity) (check_id d.check);
  if d.pc >= 0 then Format.fprintf fmt " pc %d" d.pc;
  Format.fprintf fmt ": %s" d.message;
  match d.witness with
  | [] -> ()
  | w ->
      Format.fprintf fmt " (witness: %s)"
        (String.concat " " (List.map string_of_int w))

let to_string d = Format.asprintf "%a" pp d

let to_json d =
  let open Stallhide_util in
  Json.Obj
    [
      ("check", Json.String (check_id d.check));
      ("severity", Json.String (severity_name d.severity));
      ("pc", Json.Int d.pc);
      ("message", Json.String d.message);
      ("witness", Json.List (List.map (fun pc -> Json.Int pc) d.witness));
    ]
