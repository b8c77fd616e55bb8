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
  used : (int, int) Hashtbl.t;  (* window index -> services admitted *)
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
    used = Hashtbl.create 256;
    invalidators = [||];
    stats = { admitted = 0; queued = 0; queue_cycles = 0; writes = 0; invalidations = 0 };
  }

let cache t = t.l3

let window t = t.win

let budget t = t.bud

let attach t ~invalidate =
  let core = Array.length t.invalidators in
  t.invalidators <- Array.append t.invalidators [| invalidate |];
  core

let cores t = Array.length t.invalidators

(* Top-level recursion (no closure capture — [admit] sits on the SMP
   fast path): first window at or after [w0] with budget room. *)
let rec place used bud w =
  let u = match Hashtbl.find_opt used w with Some u -> u | None -> 0 in
  if u < bud then begin
    Hashtbl.replace used w (u + 1);
    w
  end
  else place used bud (w + 1)

let admit t ~now =
  t.stats.admitted <- t.stats.admitted + 1;
  if t.bud <= 0 then 0
  else begin
    let w0 = now / t.win in
    let w = place t.used t.bud w0 in
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
  Array.iteri
    (fun i inv ->
      if i <> core then t.stats.invalidations <- t.stats.invalidations + inv addr)
    t.invalidators

let stats t = t.stats

let reset_stats t =
  t.stats.admitted <- 0;
  t.stats.queued <- 0;
  t.stats.queue_cycles <- 0;
  t.stats.writes <- 0;
  t.stats.invalidations <- 0
