type stats = {
  mutable admitted : int;
  mutable queued : int;
  mutable queue_cycles : int;
  mutable writes : int;
  mutable invalidations : int;
}

type t = {
  l3 : Cache.t;
  win : int;
  bud : int;  (* <= 0 = unlimited *)
  (* Admission table: [used.(w - base)] services admitted in window
     [w]; windows outside [base, base + length used) have none. Empty
     until the first admission, then grown by doubling. *)
  mutable base : int;
  mutable used : int array;
  mutable invalidators : (int -> int) array;
  stats : stats;
}

let create ?(window = 32) ?(budget = 16) (cfg : Memconfig.t) =
  if window <= 0 then invalid_arg "Shared_l3.create: window must be positive";
  Memconfig.validate cfg;
  {
    l3 = Cache.create ~name:"L3" ~line_bytes:cfg.line_bytes cfg.l3;
    win = window;
    bud = budget;
    base = 0;
    used = [||];
    invalidators = [||];
    stats = { admitted = 0; queued = 0; queue_cycles = 0; writes = 0; invalidations = 0 };
  }

let cache t = t.l3

let attach t ~invalidate =
  let core = Array.length t.invalidators in
  t.invalidators <- Array.append t.invalidators [| invalidate |];
  core

let cores t = Array.length t.invalidators

(* Make window [w] addressable, doubling the table (at least 64
   windows) and putting the new room on the side [w] lies. *)
let grow t w =
  let len = Array.length t.used in
  if len = 0 then begin
    t.base <- w;
    t.used <- Array.make 64 0
  end
  else begin
    let lo = min w t.base and hi = max (w + 1) (t.base + len) in
    let n = ref (2 * len) in
    while !n < hi - lo do
      n := 2 * !n
    done;
    let base = if w < t.base then hi - !n else t.base in
    let used = Array.make !n 0 in
    Array.blit t.used 0 used (t.base - base) len;
    t.base <- base;
    t.used <- used
  end

(* Top-level recursion (no closure capture — [admit] sits on the SMP
   fast path): first window at or after [w] with budget room. *)
let rec place t w =
  let i = w - t.base in
  if i < 0 || i >= Array.length t.used then begin
    grow t w;
    place t w
  end
  else
    let u = Array.unsafe_get t.used i in
    if u < t.bud then begin
      Array.unsafe_set t.used i (u + 1);
      w
    end
    else place t (w + 1)

let admit t ~now =
  t.stats.admitted <- t.stats.admitted + 1;
  if t.bud <= 0 then 0
  else begin
    let w0 = now / t.win in
    let w = place t w0 in
    if w = w0 then 0
    else begin
      let delay = (w * t.win) - now in
      t.stats.queued <- t.stats.queued + 1;
      t.stats.queue_cycles <- t.stats.queue_cycles + delay;
      delay
    end
  end

let write t ~core ~addr =
  t.stats.writes <- t.stats.writes + 1;
  for i = 0 to Array.length t.invalidators - 1 do
    if i <> core then
      t.stats.invalidations <- t.stats.invalidations + t.invalidators.(i) addr
  done

let stats t = t.stats
