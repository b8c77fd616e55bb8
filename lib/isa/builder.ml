type t = { mutable rev_items : Program.item list; mutable next : int }

let create () = { rev_items = []; next = 0 }

let ins t i = t.rev_items <- Program.Ins i :: t.rev_items

let label t l = t.rev_items <- Program.Label l :: t.rev_items

let fresh t prefix =
  let l = Printf.sprintf "%s_%d" prefix t.next in
  t.next <- t.next + 1;
  l

let mov t rd o = ins t (Instr.Mov (rd, o))
let movi t rd i = ins t (Instr.Mov (rd, Instr.Imm i))
let binop t op rd rs o = ins t (Instr.Binop (op, rd, rs, o))
let addi t rd rs i = ins t (Instr.Binop (Instr.Add, rd, rs, Instr.Imm i))
let load t rd rs d = ins t (Instr.Load (rd, rs, d))
let store t rs d rv = ins t (Instr.Store (rs, d, rv))
let prefetch t rs d = ins t (Instr.Prefetch (rs, d))
let branch t c rs o l = ins t (Instr.Branch (c, rs, o, l))
let jump t l = ins t (Instr.Jump l)
let yield t k = ins t (Instr.Yield k)
let opmark t = ins t Instr.Opmark
let halt t = ins t Instr.Halt

let items t = List.rev t.rev_items

let assemble t = Program.assemble (items t)
