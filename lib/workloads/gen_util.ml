let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation st n =
  let a = Array.init n (fun i -> i) in
  shuffle st a;
  a

let line = 64

let round_line bytes = (bytes + line - 1) / line * line

let emit_compute b reg cycles =
  let open Stallhide_isa in
  for _ = 1 to cycles / 12 do
    Builder.binop b Instr.Div reg reg (Instr.Imm 1)
  done;
  for _ = 1 to cycles mod 12 do
    Builder.addi b reg reg 1
  done
