exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

let strip_comment s = match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s

(* Split on spaces and commas, dropping empties. *)
let tokens s =
  String.split_on_char ' ' (String.map (function ',' -> ' ' | c -> c) s)
  |> List.filter (fun t -> t <> "")

let reg line s =
  match Reg.of_string s with Some r -> r | None -> fail line "expected register, got %S" s

let operand line s =
  match Reg.of_string s with
  | Some r -> Instr.Reg r
  | None -> (
      match int_of_string_opt s with
      | Some i -> Instr.Imm i
      | None -> fail line "expected register or immediate, got %S" s)

(* "[rN+disp]" or "[rN-disp]" or "[rN]" *)
let mem_operand line s =
  let n = String.length s in
  if n < 4 || s.[0] <> '[' || s.[n - 1] <> ']' then fail line "expected memory operand, got %S" s;
  let body = String.sub s 1 (n - 2) in
  let split_at i =
    let base = String.sub body 0 i in
    let disp = String.sub body i (String.length body - i) in
    (base, disp)
  in
  let base_s, disp_s =
    match String.index_opt body '+' with
    | Some i -> (fst (split_at i), String.sub body (i + 1) (String.length body - i - 1))
    | None -> (
        (* a '-' introducing a negative displacement, skipping the 'r' *)
        match String.index_from_opt body 1 '-' with
        | Some i -> split_at i
        | None -> (body, "0"))
  in
  let base = reg line base_s in
  match int_of_string_opt disp_s with
  | Some d -> (base, d)
  | None -> fail line "bad displacement %S" disp_s

let binop_of_string = function
  | "add" -> Some Instr.Add
  | "sub" -> Some Instr.Sub
  | "mul" -> Some Instr.Mul
  | "div" -> Some Instr.Div
  | "rem" -> Some Instr.Rem
  | "and" -> Some Instr.And
  | "or" -> Some Instr.Or
  | "xor" -> Some Instr.Xor
  | "shl" -> Some Instr.Shl
  | "shr" -> Some Instr.Shr
  | _ -> None

let cond_of_string line = function
  | "eq" -> Instr.Eq
  | "ne" -> Instr.Ne
  | "lt" -> Instr.Lt
  | "le" -> Instr.Le
  | "gt" -> Instr.Gt
  | "ge" -> Instr.Ge
  | s -> fail line "unknown branch condition %S" s

let parse_line line s acc =
  let s = String.trim (strip_comment s) in
  if s = "" then acc
  else if String.length s > 1 && s.[String.length s - 1] = ':' then
    Program.Label (String.trim (String.sub s 0 (String.length s - 1))) :: acc
  else
    let ins i = Program.Ins i :: acc in
    match tokens s with
    | [] -> acc
    | op :: args -> (
        match (op, args) with
        | "mov", [ rd; o ] -> ins (Instr.Mov (reg line rd, operand line o))
        | "load", [ rd; m ] ->
            let base, disp = mem_operand line m in
            ins (Instr.Load (reg line rd, base, disp))
        | "store", [ m; rv ] ->
            let base, disp = mem_operand line m in
            ins (Instr.Store (base, disp, reg line rv))
        | "prefetch", [ m ] ->
            let base, disp = mem_operand line m in
            ins (Instr.Prefetch (base, disp))
        | "br", [ c; rs; o; l ] ->
            ins (Instr.Branch (cond_of_string line c, reg line rs, operand line o, l))
        | "jmp", [ l ] -> ins (Instr.Jump l)
        | "call", [ l ] -> ins (Instr.Call l)
        | "ret", [] -> ins Instr.Ret
        | "yield", [] -> ins (Instr.Yield Instr.Primary)
        | "syield", [] -> ins (Instr.Yield Instr.Scavenger)
        | "cyield", [ m ] ->
            let base, disp = mem_operand line m in
            ins (Instr.Yield_cond (base, disp))
        | "guard", [ m ] ->
            let base, disp = mem_operand line m in
            ins (Instr.Guard (base, disp))
        | "aissue", [ m ] ->
            let base, disp = mem_operand line m in
            ins (Instr.Accel_issue (base, disp))
        | "await", [ rd ] -> ins (Instr.Accel_wait (reg line rd))
        | "opmark", [] -> ins Instr.Opmark
        | "nop", [] -> ins Instr.Nop
        | "halt", [] -> ins Instr.Halt
        | _, [ rd; rs; o ] -> (
            match binop_of_string op with
            | Some b -> ins (Instr.Binop (b, reg line rd, reg line rs, operand line o))
            | None -> fail line "unknown instruction %S" op)
        | _ -> fail line "cannot parse %S" s)

(* Items paired with the 1-based source line they came from, so label
   defects can be reported positionally. *)
let parse_items_annotated src =
  let lines = String.split_on_char '\n' src in
  let _, rev_items =
    List.fold_left
      (fun (n, acc) l ->
        let items = List.rev (parse_line n l []) in
        (n + 1, List.rev_append (List.map (fun item -> (n, item)) items) acc))
      (1, []) lines
  in
  List.rev rev_items

(* [Program.assemble] reports duplicate/undefined labels without
   positions; re-derive them here first so [Parse_error] carries the
   offending line. *)
let check_labels annotated =
  let defined = Hashtbl.create 16 in
  List.iter
    (fun (line, item) ->
      match item with
      | Program.Label l ->
          if Hashtbl.mem defined l then fail line "duplicate label %S" l;
          Hashtbl.add defined l ()
      | Program.Ins _ -> ())
    annotated;
  List.iter
    (fun (line, item) ->
      match item with
      | Program.Ins i -> (
          match Instr.target i with
          | Some l when not (Hashtbl.mem defined l) -> fail line "undefined label %S" l
          | Some _ | None -> ())
      | Program.Label _ -> ())
    annotated

let parse src =
  let annotated = parse_items_annotated src in
  check_labels annotated;
  match Program.assemble (List.map snd annotated) with
  | p -> p
  | exception Program.Error msg -> raise (Parse_error (0, msg))
