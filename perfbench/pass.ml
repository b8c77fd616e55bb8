(* One pass of a workload: a fixed amount of work generated from the
   seed, timed on the host, with the simulated statistics it produced. *)

type t = {
  ops : int;  (** operations attempted: requests, program arms or oracle checks *)
  failed : int;  (** operations that failed *)
  failures : string list;  (** one line per failure kind *)
  work : int;  (** units of work [ops_per_s] counts *)
  work_s : float array;
      (** host seconds of each timed unit of the measured phase: the same
          units, in the same order, in every pass *)
  setup_s : float array;  (** likewise, of the set-up before that phase *)
  wall_s : float;
      (** host seconds of all the work a traced pass repeats, the base
          of the tracing overhead *)
  fingerprint : (string * int) list;  (** exact simulated statistics *)
  layers : (string * float) list;  (** per-layer metrics, traced passes only *)
  table : string list;  (** lines printed before the result *)
}

type size = Full | Tiny | C25

let seconds_since t0 = float_of_int (Span.now_ns () - t0) *. 1e-9

let timed f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, seconds_since t0)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile of an int array prefix, [q] in (0, 1] *)
let percentile arr n q =
  if n = 0 then 0
  else begin
    let a = Array.sub arr 0 n in
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

let sum = Array.fold_left ( +. ) 0.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The memory-hierarchy layer metrics; [total f] sums the counter [f]
   over every hierarchy of the pass. *)
let mem_layers total =
  let open Stallhide_mem.Mem_stats in
  let demand = total (fun s -> s.demand_accesses) in
  [
    ("mem.demand_accesses", float_of_int demand);
    ("mem.l1_hit_ratio", ratio (total (fun s -> s.l1_hits)) demand);
    ("mem.dram_accesses", float_of_int (total (fun s -> s.dram_accesses)));
    ( "mem.useless_prefetch_ratio",
      ratio (total (fun s -> s.useless_prefetches)) (total (fun s -> s.prefetches)) );
  ]

(* [check ok detail] is a failure line when [ok] is false. *)
let check ok detail = if ok then [] else [ detail ]
