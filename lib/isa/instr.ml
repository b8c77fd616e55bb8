type operand = Reg of Reg.t | Imm of int

type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr

type cond = Eq | Ne | Lt | Le | Gt | Ge

type yield_kind = Primary | Scavenger

type t =
  | Binop of binop * Reg.t * Reg.t * operand
  | Mov of Reg.t * operand
  | Load of Reg.t * Reg.t * int
  | Store of Reg.t * int * Reg.t
  | Prefetch of Reg.t * int
  | Branch of cond * Reg.t * operand * string
  | Jump of string
  | Call of string
  | Ret
  | Yield of yield_kind
  | Yield_cond of Reg.t * int
  | Guard of Reg.t * int
  | Accel_issue of Reg.t * int
  | Accel_wait of Reg.t
  | Opmark
  | Nop
  | Halt

let operand_uses = function Reg r -> 1 lsl r | Imm _ -> 0

let all_regs = (1 lsl Reg.count) - 1

let uses = function
  | Binop (_, _, rs, op) -> (1 lsl rs) lor operand_uses op
  | Mov (_, op) -> operand_uses op
  | Load (_, rs, _) -> 1 lsl rs
  | Store (rs, _, rv) -> (1 lsl rs) lor (1 lsl rv)
  | Prefetch (rs, _) -> 1 lsl rs
  | Branch (_, rs, op, _) -> (1 lsl rs) lor operand_uses op
  | Jump _ -> 0
  | Call _ | Ret -> all_regs
  | Yield _ | Opmark | Nop | Halt -> 0
  | Yield_cond (rs, _) | Guard (rs, _) | Accel_issue (rs, _) -> 1 lsl rs
  | Accel_wait _ -> 0

let defs = function
  | Binop (_, rd, _, _) | Mov (rd, _) | Load (rd, _, _) | Accel_wait rd -> 1 lsl rd
  | Store _ | Prefetch _ | Branch _ | Jump _ | Call _ | Ret | Yield _
  | Yield_cond _ | Guard _ | Accel_issue _ | Opmark | Nop | Halt ->
      0

let target = function
  | Branch (_, _, _, l) | Jump l | Call l -> Some l
  | Binop _ | Mov _ | Load _ | Store _ | Prefetch _ | Ret | Yield _
  | Yield_cond _ | Guard _ | Accel_issue _ | Accel_wait _ | Opmark | Nop | Halt ->
      None

let is_load = function
  | Load _ -> true
  | Binop _ | Mov _ | Store _ | Prefetch _ | Branch _ | Jump _ | Call _ | Ret
  | Yield _ | Yield_cond _ | Guard _ | Accel_issue _ | Accel_wait _ | Opmark | Nop | Halt ->
      false

let ends_block = function
  | Branch _ | Jump _ | Ret | Halt -> true
  | Binop _ | Mov _ | Load _ | Store _ | Prefetch _ | Call _ | Yield _
  | Yield_cond _ | Guard _ | Accel_issue _ | Accel_wait _ | Opmark | Nop ->
      false

let equal (a : t) (b : t) = a = b

let eval_binop op a b =
  match op with
  | Add -> Some (a + b)
  | Sub -> Some (a - b)
  | Mul -> Some (a * b)
  | Div -> if b = 0 then None else Some (a / b)
  | Rem -> if b = 0 then None else Some (a mod b)
  | And -> Some (a land b)
  | Or -> Some (a lor b)
  | Xor -> Some (a lxor b)
  | Shl -> Some (a lsl (b land 63))
  | Shr -> Some (a asr (b land 63))

let eval_cond c a b =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let operand_to_string = function Reg r -> Reg.name r | Imm i -> string_of_int i

let mem_to_string rs disp =
  if disp = 0 then Printf.sprintf "[%s]" (Reg.name rs)
  else if disp > 0 then Printf.sprintf "[%s+%d]" (Reg.name rs) disp
  else Printf.sprintf "[%s%d]" (Reg.name rs) disp

let to_string = function
  | Binop (op, rd, rs, o) ->
      Printf.sprintf "%s %s, %s, %s" (binop_name op) (Reg.name rd) (Reg.name rs)
        (operand_to_string o)
  | Mov (rd, o) -> Printf.sprintf "mov %s, %s" (Reg.name rd) (operand_to_string o)
  | Load (rd, rs, d) -> Printf.sprintf "load %s, %s" (Reg.name rd) (mem_to_string rs d)
  | Store (rs, d, rv) -> Printf.sprintf "store %s, %s" (mem_to_string rs d) (Reg.name rv)
  | Prefetch (rs, d) -> Printf.sprintf "prefetch %s" (mem_to_string rs d)
  | Branch (c, rs, o, l) ->
      Printf.sprintf "br %s %s, %s, %s" (cond_name c) (Reg.name rs) (operand_to_string o) l
  | Jump l -> Printf.sprintf "jmp %s" l
  | Call l -> Printf.sprintf "call %s" l
  | Ret -> "ret"
  | Yield Primary -> "yield"
  | Yield Scavenger -> "syield"
  | Yield_cond (rs, d) -> Printf.sprintf "cyield %s" (mem_to_string rs d)
  | Guard (rs, d) -> Printf.sprintf "guard %s" (mem_to_string rs d)
  | Accel_issue (rs, d) -> Printf.sprintf "aissue %s" (mem_to_string rs d)
  | Accel_wait rd -> Printf.sprintf "await %s" (Reg.name rd)
  | Opmark -> "opmark"
  | Nop -> "nop"
  | Halt -> "halt"

let pp fmt i = Format.pp_print_string fmt (to_string i)
