type arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  line_shift : int;
  sets : int;
  ways : int;
  (* [create] allocates these three without writing them. A [cold]
     set's lookups and inserts first write every way empty ([warm]),
     and [find] treats it as empty; its first fill makes it warm. An
     empty way has tag [-1] and stamp 0, a line's stamp is its last
     touch, [>= 1]. Invariant: [ready] counts only at slots whose tag
     this cache has written with a line, so it needs no
     initialisation. The cache model test in test_mem guards this. *)
  tags : arr;  (* sets*ways; -1 = invalid *)
  ready : arr;
  stamp : arr;  (* LRU timestamps *)
  (* One byte per set: [cold] until a line is written into it, then
     the way of its last touched line, which lookups test first. *)
  way : Bytes.t;
  mutable tick : int;
  (* The slot [insert] would fill with [miss_line], recorded by the
     last lookup that missed it so the fill after a miss skips a
     second scan of the set; [-1] once any slot changes. *)
  mutable miss_line : int;
  mutable miss_slot : int;
}

let cold = '\255'

let log2 n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

let create ~line_bytes (cfg : Memconfig.level_cfg) =
  if cfg.ways < 1 then invalid_arg "Cache.create: ways must be positive";
  if cfg.ways > 255 then invalid_arg "Cache.create: at most 255 ways";
  if not (Memconfig.is_pow2 line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  let sets = cfg.size_bytes / line_bytes / cfg.ways in
  if not (Memconfig.is_pow2 sets) then invalid_arg "Cache.create: set count must be a power of two";
  let arr () = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (sets * cfg.ways) in
  {
    line_shift = log2 line_bytes;
    sets;
    ways = cfg.ways;
    tags = arr ();
    ready = arr ();
    stamp = arr ();
    way = Bytes.make sets cold;
    tick = 0;
    miss_line = 0;
    miss_slot = -1;
  }

let line_of t addr = addr lsr t.line_shift

(* Top-level recursion with explicit arguments: a local [let rec] here
   would capture free variables and allocate one closure per call —
   the zero-allocation fast path runs these on every access. *)
let rec find_from (tags : arr) line s stop =
  if s = stop then -1
  else if Bigarray.Array1.unsafe_get tags s = line then s
  else find_from tags line (s + 1) stop

(* Returns the way slot index of the line in its set, or -1. A cold
   set holds no line and stays cold. *)
let find t line =
  let set = line land (t.sets - 1) in
  let w = Bytes.unsafe_get t.way set in
  if w = cold then -1
  else
    let base = set * t.ways in
    let p = base + Char.code w in
    if Bigarray.Array1.unsafe_get t.tags p = line then p
    else find_from t.tags line base (base + t.ways)

let[@inline] touch t set base slot =
  t.tick <- t.tick + 1;
  t.miss_slot <- -1;
  Bigarray.Array1.unsafe_set t.stamp slot t.tick;
  Bytes.unsafe_set t.way set (Char.unsafe_chr (slot - base))

(* One pass over a warm set serves both lookup and fill: the line's
   slot, or [lnot victim] (negative) when absent. The victim — the
   slot a fill evicts — has the least key [stamp * 256 + way]: the
   first empty way (stamp 0), else the first least recently used one
   (a line's stamp is at least 1, and far below the 2^54 that would
   overflow the key). The least key is kept with the sign mask
   [d asr 62] of 63-bit ints, not a branch on the stamps.
   Top-level recursion like [find_from]. *)
let rec search (tags : arr) (stamp : arr) line base w ways least =
  if w = ways then lnot (base + (least land 255))
  else
    let s = base + w in
    if Bigarray.Array1.unsafe_get tags s = line then s
    else
      let d = ((Bigarray.Array1.unsafe_get stamp s lsl 8) lor w) - least in
      search tags stamp line base (w + 1) ways (least + (d land (d asr 62)))

(* Out of line: runs until the set's first fill, which names its way
   ([touch]); the hot path only tests the mark. *)
let[@inline never] warm t base =
  for s = base to base + t.ways - 1 do
    Bigarray.Array1.unsafe_set t.tags s (-1);
    Bigarray.Array1.unsafe_set t.stamp s 0
  done

(* [search]'s answer for [line], testing the set's predicted way first.
   A cold set is made empty, and its first way is the victim. *)
let[@inline] slot t line set base =
  let w = Bytes.unsafe_get t.way set in
  if w = cold then begin
    warm t base;
    lnot base
  end
  else
    let p = base + Char.code w in
    if Bigarray.Array1.unsafe_get t.tags p = line then p
    else search t.tags t.stamp line base 0 t.ways max_int

(* Shared by [lookup_code] and [prefetch_code]; [touch_ready] says
   whether a present, ready line refreshes LRU. *)
let[@inline] classify t ~now ~touch_ready addr =
  let line = line_of t addr in
  let set = line land (t.sets - 1) in
  let base = set * t.ways in
  let r = slot t line set base in
  if r < 0 then begin
    t.miss_line <- line;
    t.miss_slot <- lnot r;
    -1
  end
  else
    let ra = Bigarray.Array1.unsafe_get t.ready r in
    if ra <= now && not touch_ready then 0
    else begin
      touch t set base r;
      if ra <= now then 0 else ra
    end

(* Packed classification: [-1] miss, [0] ready hit, [ready_at > 0] an
   in-flight fill completing at that cycle. In-flight implies
   [ready_at > now >= 0], so the codes cannot collide. Inlined, in
   builds without [-opaque], into [Hierarchy], whose L1 hit then makes
   no call into this module. *)
let[@inline] lookup_code t ~now addr = classify t ~now ~touch_ready:true addr

let[@inline] prefetch_code t ~now addr = classify t ~now ~touch_ready:false addr

let insert t ~ready_at addr =
  let line = line_of t addr in
  let set = line land (t.sets - 1) in
  let base = set * t.ways in
  let r = if t.miss_slot >= 0 && t.miss_line = line then lnot t.miss_slot else slot t line set base in
  if r >= 0 then begin
    (* Refill of a present line: keep the earlier availability. *)
    if ready_at < Bigarray.Array1.unsafe_get t.ready r then
      Bigarray.Array1.unsafe_set t.ready r ready_at;
    touch t set base r
  end
  else begin
    let victim = lnot r in
    Bigarray.Array1.unsafe_set t.tags victim line;
    Bigarray.Array1.unsafe_set t.ready victim ready_at;
    touch t set base victim
  end

let[@inline] resident t ~now addr =
  let slot = find t (line_of t addr) in
  slot >= 0 && Bigarray.Array1.unsafe_get t.ready slot <= now

let invalidate t addr =
  let slot = find t (line_of t addr) in
  if slot < 0 then false
  else begin
    t.miss_slot <- -1;
    Bigarray.Array1.unsafe_set t.tags slot (-1);
    Bigarray.Array1.unsafe_set t.stamp slot 0;
    true
  end
