type item = Label of string | Ins of Instr.t

type annot = { mutable live_regs : int option }

type t = {
  code : Instr.t array;
  targets : int array;
  labels : (string, int) Hashtbl.t;
  labels_at : string list array;  (* labels attached to each pc, source order *)
  trailing_labels : string list;  (* labels after the last instruction *)
  annots : annot array;
  mutable uops : Uop.t option;  (* decode shared by every context; see [uops] *)
}

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let assemble items =
  let n_ins = List.length (List.filter (function Ins _ -> true | Label _ -> false) items) in
  if n_ins = 0 then error "assemble: empty program";
  let labels = Hashtbl.create 16 in
  let labels_at = Array.make n_ins [] in
  let code = Array.make n_ins Instr.Nop in
  let pending = ref [] in
  let pc = ref 0 in
  List.iter
    (fun item ->
      match item with
      | Label l ->
          if Hashtbl.mem labels l then error "assemble: duplicate label %S" l;
          Hashtbl.add labels l !pc;
          pending := l :: !pending
      | Ins i ->
          code.(!pc) <- i;
          labels_at.(!pc) <- List.rev !pending;
          pending := [];
          incr pc)
    items;
  let trailing_labels = List.rev !pending in
  (* Trailing labels point one past the end; branches to them are
     rejected below because the target pc is out of range. *)
  let targets =
    Array.mapi
      (fun pc i ->
        match Instr.target i with
        | None -> -1
        | Some l -> (
            match Hashtbl.find_opt labels l with
            | Some t when t < n_ins -> t
            | Some _ -> error "assemble: label %S (used at pc %d) has no instruction" l pc
            | None -> error "assemble: undefined label %S at pc %d" l pc))
      code
  in
  let annots = Array.init n_ins (fun _ -> { live_regs = None }) in
  { code; targets; labels; labels_at; trailing_labels; annots; uops = None }

let length t = Array.length t.code

let instr t pc = t.code.(pc)

let resolved_target t pc = t.targets.(pc)

let label_index t l =
  match Hashtbl.find_opt t.labels l with Some i -> i | None -> raise Not_found

let has_label t l = Hashtbl.mem t.labels l

let annot t pc = t.annots.(pc)

(* Kept only once decode succeeds, so a program with a bad register
   raises again at every later call. *)
let uops t =
  match t.uops with
  | Some u -> u
  | None ->
      let u = Uop.decode t.code ~targets:t.targets in
      t.uops <- Some u;
      u

let to_items t =
  let items = ref [] in
  List.iter (fun l -> items := Label l :: !items) (List.rev t.trailing_labels);
  for pc = Array.length t.code - 1 downto 0 do
    items := Ins t.code.(pc) :: !items;
    List.iter (fun l -> items := Label l :: !items) (List.rev t.labels_at.(pc))
  done;
  !items

let code t = Array.copy t.code

let load_sites t =
  let acc = ref [] in
  for pc = Array.length t.code - 1 downto 0 do
    if Instr.is_load t.code.(pc) then acc := pc :: !acc
  done;
  !acc

let yield_count t =
  Array.fold_left
    (fun n i -> match i with Instr.Yield _ | Instr.Yield_cond _ -> n + 1 | _ -> n)
    0 t.code

let pp fmt t =
  Array.iteri
    (fun pc i ->
      List.iter (fun l -> Format.fprintf fmt "%s:@." l) t.labels_at.(pc);
      Format.fprintf fmt "  %s@." (Instr.to_string i))
    t.code;
  List.iter (fun l -> Format.fprintf fmt "%s:@." l) t.trailing_labels

let pp_listing fmt t =
  Array.iteri
    (fun pc i ->
      List.iter (fun l -> Format.fprintf fmt "%s:@." l) t.labels_at.(pc);
      Format.fprintf fmt "%4d  %s@." pc (Instr.to_string i))
    t.code;
  List.iter (fun l -> Format.fprintf fmt "%s:@." l) t.trailing_labels

let fresh_label t prefix =
  let rec loop i =
    let l = Printf.sprintf "%s_%d" prefix i in
    if Hashtbl.mem t.labels l then loop (i + 1) else l
  in
  if Hashtbl.mem t.labels prefix then loop 0 else prefix
