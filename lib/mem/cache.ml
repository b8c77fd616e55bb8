type arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  line_shift : int;
  sets : int;
  ways : int;
  (* [create] allocates these three without writing them. A set's
     [tags] are defined from its first [scan] on, which first writes
     every way to [-1] ([warm]); [find] treats a [cold] set as empty.
     Invariant: the values of [ready] and [stamp] count only at slots
     whose tag this cache has written with a line, so they need no
     initialisation — [scan_from]'s [||] skips [stamp] at an empty
     slot, and [vstamp] counts only while [vtag <> -1]. The cache
     model test in test_mem guards this. *)
  tags : arr;  (* sets*ways; -1 = invalid *)
  ready : arr;
  stamp : arr;  (* LRU timestamps *)
  cold : Bytes.t;  (* one byte per set: ['\001'] until its tags are written *)
  mutable tick : int;
  (* The slot [insert] would fill with [miss_line], recorded by the
     last lookup that missed it so the fill after a miss skips a
     second scan of the set; [-1] once any slot changes. *)
  mutable miss_line : int;
  mutable miss_slot : int;
}

let log2 n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

let create ~line_bytes (cfg : Memconfig.level_cfg) =
  if cfg.ways < 1 then invalid_arg "Cache.create: ways must be positive";
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
    cold = Bytes.make sets '\001';
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
  if Bytes.unsafe_get t.cold set <> '\000' then -1
  else
    let base = set * t.ways in
    find_from t.tags line base (base + t.ways)

let touch t slot =
  t.tick <- t.tick + 1;
  t.miss_slot <- -1;
  Bigarray.Array1.unsafe_set t.stamp slot t.tick

(* One pass over a set serves both lookup and fill: the line's slot,
   or [lnot victim] (negative) when absent, where the victim — the slot
   a fill evicts — is the first empty way, else the first least
   recently used one. Top-level recursion like [find_from]. *)
let rec scan_from (tags : arr) (stamp : arr) line s stop victim vtag vstamp =
  if s = stop then lnot victim
  else
    let ts = Bigarray.Array1.unsafe_get tags s in
    if ts = line then s
    else if vtag <> -1 && (ts = -1 || Bigarray.Array1.unsafe_get stamp s < vstamp) then
      scan_from tags stamp line (s + 1) stop s ts (Bigarray.Array1.unsafe_get stamp s)
    else scan_from tags stamp line (s + 1) stop victim vtag vstamp

(* Out of line: runs once per set, the hot path only tests the mark. *)
let[@inline never] warm t set base =
  for s = base to base + t.ways - 1 do
    Bigarray.Array1.unsafe_set t.tags s (-1)
  done;
  Bytes.unsafe_set t.cold set '\000'

let scan t line =
  let set = line land (t.sets - 1) in
  let base = set * t.ways in
  if Bytes.unsafe_get t.cold set <> '\000' then warm t set base;
  scan_from t.tags t.stamp line base (base + t.ways) base
    (Bigarray.Array1.unsafe_get t.tags base)
    (Bigarray.Array1.unsafe_get t.stamp base)

(* Shared by [lookup_code] and [prefetch_code]; [touch_ready] says
   whether a present, ready line refreshes LRU. *)
let classify t ~now ~touch_ready addr =
  let line = line_of t addr in
  let r = scan t line in
  if r < 0 then begin
    t.miss_line <- line;
    t.miss_slot <- lnot r;
    -1
  end
  else
    let ra = Bigarray.Array1.unsafe_get t.ready r in
    if ra <= now && not touch_ready then 0
    else begin
      touch t r;
      if ra <= now then 0 else ra
    end

(* Packed classification: [-1] miss, [0] ready hit, [ready_at > 0] an
   in-flight fill completing at that cycle. In-flight implies
   [ready_at > now >= 0], so the codes cannot collide. *)
let lookup_code t ~now addr = classify t ~now ~touch_ready:true addr

let prefetch_code t ~now addr = classify t ~now ~touch_ready:false addr

let insert t ~now ~ready_at addr =
  ignore now;
  let line = line_of t addr in
  let r = if t.miss_slot >= 0 && t.miss_line = line then lnot t.miss_slot else scan t line in
  if r >= 0 then begin
    (* Refill of a present line: keep the earlier availability. *)
    if ready_at < Bigarray.Array1.unsafe_get t.ready r then
      Bigarray.Array1.unsafe_set t.ready r ready_at;
    touch t r
  end
  else begin
    let victim = lnot r in
    Bigarray.Array1.unsafe_set t.tags victim line;
    Bigarray.Array1.unsafe_set t.ready victim ready_at;
    touch t victim
  end

let resident t ~now addr =
  let line = line_of t addr in
  let slot = find t line in
  slot >= 0 && Bigarray.Array1.unsafe_get t.ready slot <= now

let invalidate t addr =
  let line = line_of t addr in
  let slot = find t line in
  if slot < 0 then false
  else begin
    t.miss_slot <- -1;
    t.tags.{slot} <- -1;
    true
  end
