(* The image is a table of fixed-size chunks. A chunk is written in
   place only when [owned] marks it as this space's alone; [fork] clears
   the marks on both sides, so whichever side stores first copies the
   chunk ([unshare]). A chunk no [alloc] has covered (capacity past
   [brk], or a range only [reserve]d) points at [zero], which no space
   ever owns and so is never written. *)
type t = {
  chunks : int array array;
  owned : Bytes.t;  (* '\001' where [chunks.(i)] may be written in place *)
  capacity : int;  (* bytes, a whole number of words *)
  mutable brk : int;
}

let word_bytes = 8

let line_align = 64

let chunk_shift = 15

let chunk_mask = (1 lsl chunk_shift) - 1

let chunk_words = (1 lsl chunk_shift) / word_bytes

let zero = Array.make chunk_words 0

let create ~bytes =
  if bytes <= 0 then invalid_arg "Address_space.create: bytes must be positive";
  let words = (bytes + word_bytes - 1) / word_bytes in
  let n = (words + chunk_words - 1) / chunk_words in
  {
    chunks = Array.make n zero;
    owned = Bytes.make n '\000';
    capacity = words * word_bytes;
    brk = 0;
  }

let capacity_bytes t = t.capacity

let used_bytes t = t.brk

let chunk_len t ci = min chunk_words ((t.capacity / word_bytes) - (ci * chunk_words))

(* Gives [t] its own copy of chunk [ci]; the last chunk stops at the
   capacity. *)
let[@inline never] unshare t ci =
  let c = t.chunks.(ci) in
  t.chunks.(ci) <- (if c == zero then Array.make (chunk_len t ci) 0 else Array.copy c);
  Bytes.set t.owned ci '\001'

(* Moves [brk] past a fresh line-aligned region and returns its base;
   [fn] names the caller in errors. *)
let bump fn t ~bytes =
  if bytes <= 0 then invalid_arg (fn ^ ": bytes must be positive");
  let base = (t.brk + line_align - 1) / line_align * line_align in
  if base + bytes > t.capacity then
    failwith
      (Printf.sprintf "%s: out of memory (want %d at %d, capacity %d)" fn bytes base t.capacity);
  t.brk <- base + bytes;
  base

let reserve t ~bytes = bump "Address_space.reserve" t ~bytes

(* Backing up front keeps the first stores out of timed runs. *)
let alloc t ~bytes =
  let base = bump "Address_space.alloc" t ~bytes in
  for ci = base lsr chunk_shift to (base + bytes - 1) lsr chunk_shift do
    if t.chunks.(ci) == zero then unshare t ci
  done;
  base

let fork t =
  let n = Bytes.length t.owned in
  Bytes.fill t.owned 0 n '\000';
  { t with chunks = Array.copy t.chunks; owned = Bytes.make n '\000' }

let[@inline] valid_addr t addr =
  addr land (word_bytes - 1) = 0 && addr >= 0 && addr < t.capacity

(* Unchecked accessors for the engine fast path: the caller must have
   established [valid_addr t addr] first. *)
let[@inline] unsafe_load t addr =
  Array.unsafe_get (Array.unsafe_get t.chunks (addr lsr chunk_shift)) ((addr land chunk_mask) lsr 3)

let[@inline] unsafe_store t addr v =
  let ci = addr lsr chunk_shift in
  if Bytes.unsafe_get t.owned ci = '\000' then unshare t ci;
  Array.unsafe_set (Array.unsafe_get t.chunks ci) ((addr land chunk_mask) lsr 3) v

let[@inline never] bad_addr addr =
  if addr land (word_bytes - 1) <> 0 then
    invalid_arg (Printf.sprintf "Address_space: unaligned address %d" addr)
  else invalid_arg (Printf.sprintf "Address_space: address %d out of range" addr)

let load t addr = if valid_addr t addr then unsafe_load t addr else bad_addr addr

let store t addr v = if valid_addr t addr then unsafe_store t addr v else bad_addr addr
