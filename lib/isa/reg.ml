type t = int

let count = 16

let make i =
  if i < 0 || i >= count then invalid_arg "Reg.make: out of range";
  i

let r0 = 0
let r1 = 1
let r2 = 2
let r3 = 3
let r4 = 4
let r5 = 5
let r6 = 6
let r7 = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let r14 = 14
let r15 = 15

let name r = "r" ^ string_of_int r

let of_string s =
  let n = String.length s in
  if n < 2 || s.[0] <> 'r' then None
  else
    match int_of_string_opt (String.sub s 1 (n - 1)) with
    | Some i when i >= 0 && i < count -> Some i
    | Some _ | None -> None
