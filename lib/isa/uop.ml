(* Opcode space. Binop and Branch split into register- and
   immediate-operand forms so the hot loop never inspects an
   [Instr.operand] box. *)

let op_binop_reg = 0 (* +binop index, 0..9 *)

let op_binop_imm = 10 (* +binop index *)

let op_mov_r = 20

let op_mov_i = 21

let op_load = 22

let op_store = 23

let op_prefetch = 24

let op_branch_reg = 25 (* +cond index, 0..5 *)

let op_branch_imm = 31 (* +cond index *)

let op_jump = 37

let op_call = 38

let op_ret = 39

let op_yield_primary = 40

let op_yield_scavenger = 41

let op_yield_cond = 42

let op_guard = 43

let op_accel_issue = 44

let op_accel_wait = 45

let op_opmark = 46

let op_nop = 47

let op_halt = 48

type t = {
  len : int;
  op : int array;
  a : int array;  (* rd for defs; rv for stores *)
  b : int array;  (* base/source register *)
  c : int array;  (* immediate / displacement / second source register *)
  cost : int array;  (* Cost.base, precomputed *)
  target : int array;  (* resolved control-flow target, -1 if none *)
}

let binop_index = function
  | Instr.Add -> 0
  | Instr.Sub -> 1
  | Instr.Mul -> 2
  | Instr.Div -> 3
  | Instr.Rem -> 4
  | Instr.And -> 5
  | Instr.Or -> 6
  | Instr.Xor -> 7
  | Instr.Shl -> 8
  | Instr.Shr -> 9

let cond_index = function
  | Instr.Eq -> 0
  | Instr.Ne -> 1
  | Instr.Lt -> 2
  | Instr.Le -> 3
  | Instr.Gt -> 4
  | Instr.Ge -> 5

let decode code ~targets =
  let n = Array.length code in
  let t =
    {
      len = n;
      op = Array.make n 0;
      a = Array.make n 0;
      b = Array.make n 0;
      c = Array.make n 0;
      cost = Array.make n 0;
      target = Array.make n (-1);
    }
  in
  for pc = 0 to n - 1 do
    let i = code.(pc) in
    t.cost.(pc) <- Cost.base i;
    t.target.(pc) <- targets.(pc);
    (match i with
    | Instr.Binop (op, rd, rs, o) -> (
        t.a.(pc) <- rd;
        t.b.(pc) <- rs;
        match o with
        | Instr.Reg r ->
            t.op.(pc) <- op_binop_reg + binop_index op;
            t.c.(pc) <- r
        | Instr.Imm v ->
            t.op.(pc) <- op_binop_imm + binop_index op;
            t.c.(pc) <- v)
    | Instr.Mov (rd, o) -> (
        t.a.(pc) <- rd;
        match o with
        | Instr.Reg r ->
            t.op.(pc) <- op_mov_r;
            t.b.(pc) <- r
        | Instr.Imm v ->
            t.op.(pc) <- op_mov_i;
            t.c.(pc) <- v)
    | Instr.Load (rd, rs, disp) ->
        t.op.(pc) <- op_load;
        t.a.(pc) <- rd;
        t.b.(pc) <- rs;
        t.c.(pc) <- disp
    | Instr.Store (rs, disp, rv) ->
        t.op.(pc) <- op_store;
        t.a.(pc) <- rv;
        t.b.(pc) <- rs;
        t.c.(pc) <- disp
    | Instr.Prefetch (rs, disp) ->
        t.op.(pc) <- op_prefetch;
        t.b.(pc) <- rs;
        t.c.(pc) <- disp
    | Instr.Branch (cond, rs, o, _) -> (
        t.a.(pc) <- rs;
        match o with
        | Instr.Reg r ->
            t.op.(pc) <- op_branch_reg + cond_index cond;
            t.c.(pc) <- r
        | Instr.Imm v ->
            t.op.(pc) <- op_branch_imm + cond_index cond;
            t.c.(pc) <- v)
    | Instr.Jump _ -> t.op.(pc) <- op_jump
    | Instr.Call _ -> t.op.(pc) <- op_call
    | Instr.Ret -> t.op.(pc) <- op_ret
    | Instr.Yield Instr.Primary -> t.op.(pc) <- op_yield_primary
    | Instr.Yield Instr.Scavenger -> t.op.(pc) <- op_yield_scavenger
    | Instr.Yield_cond (rs, disp) ->
        t.op.(pc) <- op_yield_cond;
        t.b.(pc) <- rs;
        t.c.(pc) <- disp
    | Instr.Guard (rs, disp) ->
        t.op.(pc) <- op_guard;
        t.b.(pc) <- rs;
        t.c.(pc) <- disp
    | Instr.Accel_issue (rs, disp) ->
        t.op.(pc) <- op_accel_issue;
        t.b.(pc) <- rs;
        t.c.(pc) <- disp
    | Instr.Accel_wait rd ->
        t.op.(pc) <- op_accel_wait;
        t.a.(pc) <- rd
    | Instr.Opmark -> t.op.(pc) <- op_opmark
    | Instr.Nop -> t.op.(pc) <- op_nop
    | Instr.Halt -> t.op.(pc) <- op_halt);
    ()
  done;
  (* Validate every register-typed operand once, here: the fast loop
     reads the register file with unchecked accesses, which is only
     sound because no out-of-range index can get past decode. [Reg.t]
     is an open [int] alias, so hand-built programs could otherwise
     smuggle one in. *)
  let chk pc r =
    if r < 0 || r >= Reg.count then
      invalid_arg (Printf.sprintf "Uop.decode: register index %d out of range at pc %d" r pc)
  in
  for pc = 0 to n - 1 do
    let op = t.op.(pc) in
    if op < op_binop_imm then begin
      chk pc t.a.(pc);
      chk pc t.b.(pc);
      chk pc t.c.(pc)
    end
    else if op < op_mov_r then begin
      chk pc t.a.(pc);
      chk pc t.b.(pc)
    end
    else if op = op_mov_r then begin
      chk pc t.a.(pc);
      chk pc t.b.(pc)
    end
    else if op = op_mov_i || op = op_accel_wait then chk pc t.a.(pc)
    else if op = op_load || op = op_store then begin
      chk pc t.a.(pc);
      chk pc t.b.(pc)
    end
    else if op = op_prefetch || op = op_yield_cond || op = op_guard || op = op_accel_issue then
      chk pc t.b.(pc)
    else if op >= op_branch_reg && op < op_branch_imm then begin
      chk pc t.a.(pc);
      chk pc t.c.(pc)
    end
    else if op >= op_branch_imm && op < op_jump then chk pc t.a.(pc)
  done;
  t
