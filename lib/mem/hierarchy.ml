type level = L1 | L2 | L3 | Dram

let level_name = function L1 -> "L1" | L2 -> "L2" | L3 -> "L3" | Dram -> "DRAM"

(* Dense level codes for the allocation-free fast path. *)
let code_l1 = 0

let code_l2 = 1

let code_l3 = 2

let code_dram = 3

let level_of_code = function 0 -> L1 | 1 -> L2 | 2 -> L3 | _ -> Dram

let level_code = function L1 -> code_l1 | L2 -> code_l2 | L3 -> code_l3 | Dram -> code_dram

type spike = { from_cycle : int; until_cycle : int; l3_mult : int; dram_mult : int }

type port = Private | Direct of Shared_l3.t * int  (* (port, this core's id) *)

type t = {
  cfg : Memconfig.t;
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  icache : Cache.t option;
  stats : Mem_stats.t;
  mutable spike : spike option;
  mutable level_scale : (level * int) option;  (* counterfactual: (level, percent) *)
  port : port;
  (* probe scratch: set by [access_latency] and [probe_below_l1], read
     by the access path and by [last_level] / [last_queued] *)
  mutable p_level : int;
  mutable p_latency : int;
  mutable p_inflight : bool;
  mutable p_queued : int;
}

let make cfg ~l1 ~l2 ~l3 ~port =
  {
    cfg;
    l1;
    l2;
    l3;
    icache =
      (match cfg.Memconfig.icache with
      | Some c -> Some (Cache.create ~line_bytes:cfg.Memconfig.line_bytes c)
      | None -> None);
    stats = Mem_stats.create ();
    spike = None;
    level_scale = None;
    port;
    p_level = 0;
    p_latency = 0;
    p_inflight = false;
    p_queued = 0;
  }

let create cfg =
  Memconfig.validate cfg;
  make cfg
    ~l1:(Cache.create ~line_bytes:cfg.line_bytes cfg.l1)
    ~l2:(Cache.create ~line_bytes:cfg.line_bytes cfg.l2)
    ~l3:(Cache.create ~line_bytes:cfg.line_bytes cfg.l3)
    ~port:Private

let create_core cfg ~shared =
  Memconfig.validate cfg;
  let l1 = Cache.create ~line_bytes:cfg.Memconfig.line_bytes cfg.Memconfig.l1 in
  let l2 = Cache.create ~line_bytes:cfg.Memconfig.line_bytes cfg.Memconfig.l2 in
  let invalidate addr =
    let k1 = if Cache.invalidate l1 addr then 1 else 0 in
    let k2 = if Cache.invalidate l2 addr then 1 else 0 in
    k1 + k2
  in
  let core = Shared_l3.attach shared ~invalidate in
  make cfg ~l1 ~l2 ~l3:(Shared_l3.cache shared) ~port:(Direct (shared, core))

let config t = t.cfg

let inject_spike t ~from_cycle ~until_cycle ~l3_mult ~dram_mult =
  if from_cycle < 0 || until_cycle < from_cycle then
    invalid_arg "Hierarchy.inject_spike: bad window";
  if l3_mult < 1 || dram_mult < 1 then
    invalid_arg "Hierarchy.inject_spike: multipliers must be >= 1";
  t.spike <- Some { from_cycle; until_cycle; l3_mult; dram_mult }

let set_level_scale t lvl ~percent =
  if percent < 0 then invalid_arg "Hierarchy.set_level_scale: percent must be >= 0";
  t.level_scale <- Some (lvl, percent)

(* Apply the armed counterfactual: keep the unavoidable L1 access cost,
   scale only the beyond-L1 portion of an access served by the selected
   level. [percent = 0] answers "what if this level were as fast as
   L1?"; [percent = 50] halves its miss penalty. *)
let counterfactual t lcode latency =
  match t.level_scale with
  | Some (lvl, percent) when level_code lvl = lcode ->
      let base = t.cfg.l1.latency in
      base + ((max 0 (latency - base)) * percent / 100)
  | _ -> latency

(* Below-L2 service latency with any active spike applied; in-flight
   waits are not re-scaled (the fill was priced when it started). *)
let l3_latency t ~now =
  match t.spike with
  | Some s when now >= s.from_cycle && now < s.until_cycle -> t.cfg.l3.latency * s.l3_mult
  | _ -> t.cfg.l3.latency

let dram_latency t ~now =
  match t.spike with
  | Some s when now >= s.from_cycle && now < s.until_cycle -> t.cfg.dram_latency * s.dram_mult
  | _ -> t.cfg.dram_latency

(* Classify an access that missed L1 without filling: serving level,
   total latency, and whether the wait came from an in-flight fill —
   written into the [p_*] scratch fields so the hot path allocates
   nothing. *)
let probe_below_l1 t ~now addr =
  let c2 = Cache.lookup_code t.l2 ~now addr in
  if c2 >= 0 then begin
    t.p_level <- code_l2;
    t.p_latency <- (if c2 = 0 then t.cfg.l2.latency else max t.cfg.l2.latency (c2 - now));
    t.p_inflight <- c2 > 0
  end
  else
    let c3 = Cache.lookup_code t.l3 ~now addr in
    if c3 >= 0 then begin
      t.p_level <- code_l3;
      t.p_latency <- (if c3 = 0 then l3_latency t ~now else max t.cfg.l3.latency (c3 - now));
      t.p_inflight <- c3 > 0
    end
    else begin
      t.p_level <- code_dram;
      t.p_latency <- dram_latency t ~now;
      t.p_inflight <- false
    end

(* Fill all levels above the serving one. Each of them just missed in
   the probe, so [Cache.insert] reuses the victim that lookup found. *)
let fill t ~ready_at lcode addr =
  if lcode >= code_l2 then Cache.insert t.l1 ~ready_at addr;
  if lcode >= code_l3 then Cache.insert t.l2 ~ready_at addr;
  if lcode >= code_dram then Cache.insert t.l3 ~ready_at addr

(* Port admission on the shared L3: a fresh below-L2 service consumes
   one slot of the machine-wide window budget and may be queued into a
   later window. In-flight waits were admitted when the fill started. *)
let admission t ~now lcode ~inflight =
  if inflight || lcode < code_l3 then 0
  else
    match t.port with Direct (port, _) -> Shared_l3.admit port ~now | Private -> 0

(* Demand load: returns the total load-to-use latency and leaves the
   serving level / queueing delay in [p_level] / [p_queued]. A ready
   L1 hit is answered first: it is never admitted or filled, and
   [counterfactual] leaves its latency as it is, since it scales only
   the part beyond an L1 hit. *)
let access_latency t ~now addr =
  let s = t.stats in
  s.demand_accesses <- s.demand_accesses + 1;
  let c1 = Cache.lookup_code t.l1 ~now addr in
  if c1 = 0 then begin
    t.p_level <- code_l1;
    t.p_queued <- 0;
    s.l1_hits <- s.l1_hits + 1;
    t.cfg.l1.latency
  end
  else begin
    if c1 > 0 then begin
      t.p_level <- code_l1;
      t.p_latency <- max t.cfg.l1.latency (c1 - now);
      t.p_inflight <- true
    end
    else probe_below_l1 t ~now addr;
    let lcode = t.p_level in
    let queued = admission t ~now lcode ~inflight:t.p_inflight in
    let latency = counterfactual t lcode (t.p_latency + queued) in
    t.p_queued <- queued;
    if lcode = code_l1 then s.l1_hits <- s.l1_hits + 1
    else if lcode = code_l2 then s.l2_hits <- s.l2_hits + 1
    else if lcode = code_l3 then s.l3_hits <- s.l3_hits + 1
    else s.dram_accesses <- s.dram_accesses + 1;
    (* The demand load itself pays [latency]; by the time the core can
       issue another access, the line is usable, so fill with [now]. *)
    fill t ~ready_at:now lcode addr;
    latency
  end

let last_level t = t.p_level

let last_queued t = t.p_queued

let prefetch t ~now addr =
  let s = t.stats in
  s.prefetches <- s.prefetches + 1;
  (* One L1 scan: a ready line makes the prefetch useless, a line in
     flight into L1 keeps its earlier fill, and a miss probes on. *)
  let c1 = Cache.prefetch_code t.l1 ~now addr in
  if c1 = 0 then s.useless_prefetches <- s.useless_prefetches + 1
  else if c1 < 0 then begin
    probe_below_l1 t ~now addr;
    let lcode = t.p_level in
    let latency =
      counterfactual t lcode (t.p_latency + admission t ~now lcode ~inflight:t.p_inflight)
    in
    fill t ~ready_at:(now + latency) lcode addr
  end

let write t addr =
  match t.port with Direct (port, core) -> Shared_l3.write port ~core ~addr | Private -> ()

(* The first level, from L1 down, holding the line ready, or -1. *)
let resident_code t ~now addr =
  if Cache.resident t.l1 ~now addr then code_l1
  else if Cache.resident t.l2 ~now addr then code_l2
  else if Cache.resident t.l3 ~now addr then code_l3
  else -1

let fetch t ~now pc =
  match t.icache with
  | None -> 0
  | Some ic -> (
      let addr = pc * 4 in
      let c = Cache.lookup_code ic ~now addr in
      (* icache fills always complete instantly (ready_at = now), so an
         in-flight line can only mean the caller's clock restarted:
         treat it as present *)
      if c >= 0 then 0
      else begin
        Cache.insert ic ~ready_at:now addr;
        match t.cfg.icache with Some c -> c.latency | None -> 0
      end)

let stats t = t.stats
