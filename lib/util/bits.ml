let popcount mask =
  let rec loop m acc = if m = 0 then acc else loop (m lsr 1) (acc + (m land 1)) in
  loop mask 0

let mem mask i = mask land (1 lsl i) <> 0

let add mask i = mask lor (1 lsl i)

let diff a b = a land lnot b

let fold f mask acc =
  let rec loop i m acc =
    if m = 0 then acc
    else if m land 1 <> 0 then loop (i + 1) (m lsr 1) (f i acc)
    else loop (i + 1) (m lsr 1) acc
  in
  loop 0 mask acc
