(* Fixed-size chunks: growing never copies the contents, so a long
   buffer leaves no trail of outgrown arrays for the GC, and stores are
   plain [int array] writes with no write barrier. *)
let bits = 10

let chunk = 1 lsl bits

type t = { mutable chunks : int array array; mutable len : int }

let create () = { chunks = [||]; len = 0 }

let length v = v.len

(* The chunk that index [v.len] falls in, allocated if need be. *)
let room v =
  let c = v.len lsr bits in
  if c = Array.length v.chunks then begin
    let chunks = Array.make (max 4 (2 * c)) [||] in
    Array.blit v.chunks 0 chunks 0 c;
    v.chunks <- chunks
  end;
  let ch = Array.unsafe_get v.chunks c in
  if Array.length ch > 0 then ch
  else begin
    let ch = Array.make chunk 0 in
    Array.unsafe_set v.chunks c ch;
    ch
  end

let push v x =
  Array.unsafe_set (room v) (v.len land (chunk - 1)) x;
  v.len <- v.len + 1

let append v a pos len =
  if pos < 0 || len < 0 || pos + len > Array.length a then invalid_arg "Int_vec.append";
  let copied = ref 0 in
  while !copied < len do
    let ch = room v in
    let off = v.len land (chunk - 1) in
    let n = min (len - !copied) (chunk - off) in
    for i = 0 to n - 1 do
      Array.unsafe_set ch (off + i) (Array.unsafe_get a (pos + !copied + i))
    done;
    v.len <- v.len + n;
    copied := !copied + n
  done

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Int_vec: index out of bounds";
  Array.unsafe_get (Array.unsafe_get v.chunks (i lsr bits)) (i land (chunk - 1))
