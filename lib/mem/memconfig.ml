type level_cfg = { size_bytes : int; ways : int; latency : int }

type t = {
  line_bytes : int;
  l1 : level_cfg;
  l2 : level_cfg;
  l3 : level_cfg;
  dram_latency : int;
  accel_latency : int;
  icache : level_cfg option;
  prefetch_issue_cost : int;
}

let default =
  {
    line_bytes = 64;
    l1 = { size_bytes = 16 * 1024; ways = 4; latency = 4 };
    l2 = { size_bytes = 64 * 1024; ways = 8; latency = 14 };
    l3 = { size_bytes = 512 * 1024; ways = 8; latency = 50 };
    dram_latency = 200;
    accel_latency = 150;
    icache = None;
    prefetch_issue_cost = 1;
  }

let with_dram_latency t cycles = { t with dram_latency = cycles }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate t =
  if not (is_pow2 t.line_bytes) then invalid_arg "Memconfig: line_bytes must be a power of two";
  let check name (c : level_cfg) =
    if c.ways <= 0 then invalid_arg (Printf.sprintf "Memconfig: %s ways must be positive" name);
    if c.size_bytes mod (t.line_bytes * c.ways) <> 0 then
      invalid_arg (Printf.sprintf "Memconfig: %s size not divisible by ways*line" name);
    if not (is_pow2 (c.size_bytes / (t.line_bytes * c.ways))) then
      invalid_arg (Printf.sprintf "Memconfig: %s set count must be a power of two" name);
    if c.latency <= 0 then invalid_arg (Printf.sprintf "Memconfig: %s latency must be positive" name)
  in
  check "l1" t.l1;
  check "l2" t.l2;
  check "l3" t.l3;
  (match t.icache with Some c -> check "icache" c | None -> ());
  if not (t.l1.latency <= t.l2.latency && t.l2.latency <= t.l3.latency) then
    invalid_arg "Memconfig: cache latencies must be monotone up the hierarchy";
  if t.dram_latency <= 0 then invalid_arg "Memconfig: dram latency must be positive";
  if t.accel_latency <= 0 then invalid_arg "Memconfig: accel latency must be positive"
