open Stallhide_mem

let cfg = Memconfig.default

(* --- Address space --- *)

let test_alloc () =
  let sp = Address_space.create ~bytes:4096 in
  let a = Address_space.alloc sp ~bytes:100 in
  let b = Address_space.alloc sp ~bytes:8 in
  Alcotest.(check int) "first alloc at 0" 0 a;
  Alcotest.(check int) "line-aligned" 0 (b mod 64);
  Alcotest.(check bool) "b after a" true (b >= a + 100);
  Alcotest.(check int) "capacity" 4096 (Address_space.capacity_bytes sp)

let test_load_store () =
  let sp = Address_space.create ~bytes:1024 in
  let a = Address_space.alloc sp ~bytes:64 in
  Address_space.store sp a 42;
  Address_space.store sp (a + 8) (-7);
  Alcotest.(check int) "load back" 42 (Address_space.load sp a);
  Alcotest.(check int) "load back 2" (-7) (Address_space.load sp (a + 8));
  Alcotest.(check int) "untouched is zero" 0 (Address_space.load sp (a + 16))

let test_addr_errors () =
  let sp = Address_space.create ~bytes:1024 in
  (match Address_space.load sp 4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unaligned load accepted");
  (match Address_space.load sp 2048 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range load accepted");
  (match Address_space.load sp (-8) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative load accepted");
  Alcotest.(check bool) "valid" true (Address_space.valid_addr sp 8);
  Alcotest.(check bool) "invalid unaligned" false (Address_space.valid_addr sp 3);
  match Address_space.alloc sp ~bytes:100000 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "oversized alloc accepted"

let test_alloc_exhaustion_boundary () =
  let sp = Address_space.create ~bytes:128 in
  let (_ : int) = Address_space.alloc sp ~bytes:64 in
  let (_ : int) = Address_space.alloc sp ~bytes:64 in
  match Address_space.alloc sp ~bytes:1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "alloc beyond capacity accepted"

(* --- Forked images --- *)

let chunk = 32 * 1024

let load = Address_space.load

let test_fork_isolation () =
  let src = Address_space.create ~bytes:(3 * chunk) in
  let a = Address_space.alloc src ~bytes:(2 * chunk) in
  Address_space.store src a 1;
  Address_space.store src (a + chunk) 2;
  let dst = Address_space.fork src in
  Address_space.store dst a 10;
  Alcotest.(check int) "a fork's store is not seen by its source" 1 (load src a);
  Alcotest.(check int) "the fork reads its own store" 10 (load dst a);
  Address_space.store src (a + chunk) 20;
  Alcotest.(check int) "a source's store is not seen by its fork" 2 (load dst (a + chunk));
  Alcotest.(check int) "the source reads its own store" 20 (load src (a + chunk));
  (* capacity no alloc has covered *)
  let far = (2 * chunk) + 8 in
  Address_space.store dst far 7;
  Alcotest.(check int) "an unbacked store stays in the fork" 0 (load src far);
  Alcotest.(check int) "and reads back there" 7 (load dst far)

let test_fork_of_fork () =
  let a = Address_space.create ~bytes:(2 * chunk) in
  let base = Address_space.alloc a ~bytes:64 in
  Address_space.store a base 1;
  let b = Address_space.fork a in
  Address_space.store b base 2;
  let c = Address_space.fork b in
  Alcotest.(check int) "a fork of a fork starts from its parent" 2 (load c base);
  Address_space.store c base 3;
  Address_space.store b (base + 8) 4;
  Address_space.store a (base + 16) 5;
  let words sp = List.map (fun d -> load sp (base + d)) [ 0; 8; 16 ] in
  Alcotest.(check (list int)) "the root" [ 1; 0; 5 ] (words a);
  Alcotest.(check (list int)) "the fork" [ 2; 4; 0 ] (words b);
  Alcotest.(check (list int)) "the fork of the fork" [ 3; 0; 0 ] (words c)

let test_beyond_brk_reads_zero () =
  let sp = Address_space.create ~bytes:((2 * chunk) + 40) in
  let cap = Address_space.capacity_bytes sp in
  Alcotest.(check int) "a fresh space's last word" 0 (load sp (cap - 8));
  let a = Address_space.alloc sp ~bytes:100 in
  for w = 0 to 12 do
    Address_space.store sp (a + (8 * w)) (w + 1)
  done;
  let f = Address_space.fork sp in
  List.iter
    (fun addr ->
      Alcotest.(check int) (Printf.sprintf "space, word at %d" addr) 0 (load sp addr);
      Alcotest.(check int) (Printf.sprintf "fork, word at %d" addr) 0 (load f addr))
    [ 104; chunk - 8; chunk; cap - 8 ]

let test_fork_sizes () =
  let sp = Address_space.create ~bytes:(chunk + 12) in
  let (_ : int) = Address_space.alloc sp ~bytes:100 in
  let f = Address_space.fork sp in
  Alcotest.(check int) "capacity survives fork" (chunk + 16) (Address_space.capacity_bytes f);
  Alcotest.(check int) "used bytes survive fork" 100 (Address_space.used_bytes f);
  Alcotest.(check int) "a fork allocates after its source's brk" 128
    (Address_space.alloc f ~bytes:8);
  Alcotest.(check int) "without moving the source's" 100 (Address_space.used_bytes sp);
  Alcotest.(check int) "the source's capacity" (chunk + 16) (Address_space.capacity_bytes sp)

let test_error_messages () =
  Alcotest.check_raises "empty space"
    (Invalid_argument "Address_space.create: bytes must be positive") (fun () ->
      ignore (Address_space.create ~bytes:0));
  let sp = Address_space.create ~bytes:1024 in
  List.iter
    (fun (label, t) ->
      let raises what exn f = Alcotest.check_raises (label ^ ": " ^ what) exn f in
      raises "unaligned load" (Invalid_argument "Address_space: unaligned address 4") (fun () ->
          ignore (Address_space.load t 4));
      raises "unaligned negative load" (Invalid_argument "Address_space: unaligned address -4")
        (fun () -> ignore (Address_space.load t (-4)));
      raises "unaligned store" (Invalid_argument "Address_space: unaligned address 12") (fun () ->
          Address_space.store t 12 0);
      raises "load past capacity" (Invalid_argument "Address_space: address 1024 out of range")
        (fun () -> ignore (Address_space.load t 1024));
      raises "negative load" (Invalid_argument "Address_space: address -8 out of range") (fun () ->
          ignore (Address_space.load t (-8)));
      raises "store past capacity" (Invalid_argument "Address_space: address 2048 out of range")
        (fun () -> Address_space.store t 2048 0);
      raises "empty alloc" (Invalid_argument "Address_space.alloc: bytes must be positive")
        (fun () -> ignore (Address_space.alloc t ~bytes:0));
      raises "oversized alloc"
        (Failure "Address_space.alloc: out of memory (want 100000 at 0, capacity 1024)")
        (fun () -> ignore (Address_space.alloc t ~bytes:100000)))
    [ ("space", sp); ("fork", Address_space.fork sp) ]

(* Model test: random allocs, stores, loads and forks over a family of
   spaces, each checked against a flat int array plus a brk. The
   capacities straddle the 32 KiB chunk size, and word indexes cluster
   at chunk edges and just past the capacity. *)
type op =
  | Alloc of int * int  (* space, bytes *)
  | Store of int * int * int  (* space, word, value *)
  | Load of int * int  (* space, word *)
  | Fork of int  (* space *)

let pp_op = function
  | Alloc (s, b) -> Printf.sprintf "alloc s%d %d" s b
  | Store (s, w, v) -> Printf.sprintf "store s%d w%d %d" s w v
  | Load (s, w) -> Printf.sprintf "load s%d w%d" s w
  | Fork s -> Printf.sprintf "fork s%d" s

let max_spaces = 6

let model_case =
  let open QCheck.Gen in
  let gen =
    oneofl [ 8; chunk - 8; chunk; chunk + 8; (3 * chunk) + 40 ] >>= fun cap ->
    let words = cap / 8 in
    let word =
      oneof
        [
          int_bound (words + 1);
          map2 (fun k d -> max 0 ((k * (chunk / 8)) + d)) (int_bound 3) (int_range (-2) 2);
          map (fun d -> words - 2 + d) (int_bound 3);
        ]
    in
    let space = int_bound (max_spaces - 1) in
    let op =
      frequency
        [
          (2, map2 (fun s b -> Alloc (s, 1 + b)) space (oneof [ int_bound 200; int_bound cap ]));
          (5, map3 (fun s w v -> Store (s, w, v)) space word int);
          (4, map2 (fun s w -> Load (s, w)) space word);
          (2, map (fun s -> Fork s) space);
        ]
    in
    pair (return cap) (list_size (int_range 1 80) op)
  in
  QCheck.make gen ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map pp_op ops)))

let qcheck_fork_model =
  QCheck.Test.make ~name:"forked spaces match flat models" ~count:300 model_case
    (fun (cap, ops) ->
      let words = cap / 8 in
      let inside w = w >= 0 && w < words in
      let spaces = ref [| (Address_space.create ~bytes:cap, Array.make words 0, ref 0) |] in
      let pick s = !spaces.(s mod Array.length !spaces) in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (function
          | Alloc (s, bytes) -> (
              let sp, _, brk = pick s in
              let base = (!brk + 63) / 64 * 64 in
              match Address_space.alloc sp ~bytes with
              | got ->
                  expect (base + bytes <= cap && got = base);
                  brk := base + bytes
              | exception Failure _ -> expect (base + bytes > cap))
          | Store (s, w, v) -> (
              let sp, m, _ = pick s in
              match Address_space.store sp (8 * w) v with
              | () ->
                  expect (inside w);
                  m.(w) <- v
              | exception Invalid_argument _ -> expect (not (inside w)))
          | Load (s, w) -> (
              let sp, m, _ = pick s in
              match Address_space.load sp (8 * w) with
              | v -> expect (inside w && v = m.(w))
              | exception Invalid_argument _ -> expect (not (inside w)))
          | Fork s ->
              if Array.length !spaces < max_spaces then begin
                let sp, m, brk = pick s in
                spaces := Array.append !spaces [| (Address_space.fork sp, Array.copy m, ref !brk) |]
              end)
        ops;
      Array.iter
        (fun (sp, m, brk) ->
          expect (Address_space.used_bytes sp = !brk);
          expect (Address_space.capacity_bytes sp = cap);
          Array.iteri (fun w v -> expect (Address_space.load sp (8 * w) = v)) m)
        !spaces;
      !ok)

(* --- Cache --- *)

let mk_cache ?(size = 8 * 64) ?(ways = 2) () =
  Cache.create ~name:"t" ~line_bytes:64 { Memconfig.size_bytes = size; ways; latency = 4 }

let test_cache_hit_miss () =
  let c = mk_cache () in
  Alcotest.(check int) "lines" 8 (Cache.lines c);
  (match Cache.lookup c ~now:0 0 with
  | Cache.Miss -> ()
  | _ -> Alcotest.fail "cold cache hit");
  Cache.insert c ~now:0 ~ready_at:0 0;
  (match Cache.lookup c ~now:1 0 with
  | Cache.Hit -> ()
  | _ -> Alcotest.fail "inserted line missing");
  (match Cache.lookup c ~now:1 56 with
  | Cache.Hit -> ()
  | _ -> Alcotest.fail "same-line word missed");
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

let test_cache_inflight () =
  let c = mk_cache () in
  Cache.insert c ~now:0 ~ready_at:100 0;
  (match Cache.lookup c ~now:50 0 with
  | Cache.In_flight r -> Alcotest.(check int) "ready time" 100 r
  | _ -> Alcotest.fail "expected in-flight");
  (match Cache.lookup c ~now:100 0 with
  | Cache.Hit -> ()
  | _ -> Alcotest.fail "expected ready hit");
  Alcotest.(check bool) "not resident while filling" false (Cache.resident c ~now:50 0);
  Alcotest.(check bool) "resident after fill" true (Cache.resident c ~now:100 0)

let test_cache_refill_keeps_earlier () =
  let c = mk_cache () in
  Cache.insert c ~now:0 ~ready_at:50 0;
  Cache.insert c ~now:0 ~ready_at:200 0;
  match Cache.lookup c ~now:10 0 with
  | Cache.In_flight r -> Alcotest.(check int) "earlier fill wins" 50 r
  | _ -> Alcotest.fail "expected in-flight"

let test_cache_lru () =
  (* 2-way, 4 sets: lines 0, 4, 8 map to set 0. *)
  let c = mk_cache () in
  let addr line = line * 64 in
  Cache.insert c ~now:0 ~ready_at:0 (addr 0);
  Cache.insert c ~now:0 ~ready_at:0 (addr 4);
  ignore (Cache.lookup c ~now:1 (addr 0));
  Cache.insert c ~now:2 ~ready_at:2 (addr 8);
  (match Cache.lookup c ~now:3 (addr 4) with
  | Cache.Miss -> ()
  | _ -> Alcotest.fail "LRU line survived");
  match Cache.lookup c ~now:3 (addr 0) with
  | Cache.Hit -> ()
  | _ -> Alcotest.fail "MRU line evicted"

(* --- Hierarchy --- *)

let test_hierarchy_levels () =
  let h = Hierarchy.create cfg in
  let r1 = Hierarchy.access h ~now:0 0 in
  Alcotest.(check string) "cold from DRAM" "DRAM" (Hierarchy.level_name r1.Hierarchy.level);
  Alcotest.(check int) "dram latency" cfg.Memconfig.dram_latency r1.Hierarchy.latency;
  Alcotest.(check int) "dram stall"
    (cfg.Memconfig.dram_latency - cfg.Memconfig.l1.Memconfig.latency)
    r1.Hierarchy.stall;
  let r2 = Hierarchy.access h ~now:300 0 in
  Alcotest.(check string) "now in L1" "L1" (Hierarchy.level_name r2.Hierarchy.level);
  Alcotest.(check int) "l1 latency" cfg.Memconfig.l1.Memconfig.latency r2.Hierarchy.latency;
  Alcotest.(check int) "no stall" 0 r2.Hierarchy.stall

let test_hierarchy_l2_hit () =
  let h = Hierarchy.create cfg in
  (* Evict line 0 from L1 (4-way sets) by touching 6 more lines of the
     same L1 set; they all fit in the larger L2. *)
  let line_bytes = cfg.Memconfig.line_bytes in
  ignore (Hierarchy.access h ~now:0 0);
  for i = 1 to 6 do
    ignore (Hierarchy.access h ~now:(i * 1000) (i * 64 * line_bytes))
  done;
  let r = Hierarchy.access h ~now:100000 0 in
  Alcotest.(check string) "served by L2" "L2" (Hierarchy.level_name r.Hierarchy.level);
  Alcotest.(check int) "l2 latency" cfg.Memconfig.l2.Memconfig.latency r.Hierarchy.latency

let test_prefetch_hides_latency () =
  let h = Hierarchy.create cfg in
  Hierarchy.prefetch h ~now:0 0;
  let r = Hierarchy.access h ~now:cfg.Memconfig.dram_latency 0 in
  Alcotest.(check int) "no stall after covered prefetch" 0 r.Hierarchy.stall;
  Hierarchy.prefetch h ~now:1000 4096;
  let r2 = Hierarchy.access h ~now:(1000 + 100) 4096 in
  Alcotest.(check int) "remaining stall"
    (cfg.Memconfig.dram_latency - 100 - cfg.Memconfig.l1.Memconfig.latency)
    r2.Hierarchy.stall

let test_prefetch_useless () =
  let h = Hierarchy.create cfg in
  ignore (Hierarchy.access h ~now:0 0);
  Hierarchy.prefetch h ~now:500 0;
  let s = Hierarchy.stats h in
  Alcotest.(check int) "useless prefetch counted" 1 s.Mem_stats.useless_prefetches;
  Alcotest.(check int) "prefetches counted" 1 s.Mem_stats.prefetches

let test_resident_oracle () =
  let h = Hierarchy.create cfg in
  Alcotest.(check bool) "cold not resident" true (Hierarchy.resident h ~now:0 0 = None);
  ignore (Hierarchy.access h ~now:0 0);
  (match Hierarchy.resident h ~now:10 0 with
  | Some Hierarchy.L1 -> ()
  | _ -> Alcotest.fail "expected L1 residency");
  Hierarchy.prefetch h ~now:100 8192;
  Alcotest.(check bool) "in-flight not resident" true (Hierarchy.resident h ~now:150 8192 = None);
  match Hierarchy.resident h ~now:(100 + cfg.Memconfig.dram_latency) 8192 with
  | Some Hierarchy.L1 -> ()
  | _ -> Alcotest.fail "expected residency after fill"

let test_stats_reset () =
  let h = Hierarchy.create cfg in
  ignore (Hierarchy.access h ~now:0 0);
  Hierarchy.reset_stats h;
  let s = Hierarchy.stats h in
  Alcotest.(check int) "reset demand" 0 s.Mem_stats.demand_accesses;
  let r = Hierarchy.access h ~now:10 0 in
  Alcotest.(check string) "still cached" "L1" (Hierarchy.level_name r.Hierarchy.level)

let test_config_validation () =
  let bad = { cfg with Memconfig.l1 = { cfg.Memconfig.l1 with Memconfig.latency = 300 } } in
  (match Hierarchy.create bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-monotone latencies accepted");
  let bad2 = { cfg with Memconfig.line_bytes = 48 } in
  (match Memconfig.validate bad2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-pow2 line accepted");
  (match Memconfig.validate { cfg with Memconfig.accel_latency = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero accel latency accepted");
  let bad_ic =
    { cfg with Memconfig.icache = Some { Memconfig.size_bytes = 100; ways = 3; latency = 14 } }
  in
  match Memconfig.validate bad_ic with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad icache geometry accepted"

let qcheck_access_then_hit =
  QCheck.Test.make ~name:"access then immediate re-access hits L1" ~count:200
    QCheck.(int_bound 10000)
    (fun w ->
      let h = Hierarchy.create cfg in
      let addr = w * 8 in
      ignore (Hierarchy.access h ~now:0 addr);
      let r = Hierarchy.access h ~now:1000 addr in
      r.Hierarchy.level = Hierarchy.L1 && r.Hierarchy.stall = 0)

let qcheck_prefetch_monotone =
  QCheck.Test.make ~name:"prefetch never increases stall" ~count:200
    QCheck.(pair (int_bound 500) (int_bound 300))
    (fun (w, dt) ->
      let addr = w * 64 in
      let h1 = Hierarchy.create cfg in
      let plain = (Hierarchy.access h1 ~now:dt addr).Hierarchy.stall in
      let h2 = Hierarchy.create cfg in
      Hierarchy.prefetch h2 ~now:0 addr;
      let with_pf = (Hierarchy.access h2 ~now:dt addr).Hierarchy.stall in
      with_pf <= plain)

(* Property: after an access, the line survives (ways-1) subsequent
   accesses to distinct lines of the same set. *)
let qcheck_lru_survival =
  QCheck.Test.make ~name:"LRU keeps a line for ways-1 conflicting fills" ~count:200
    QCheck.(pair (int_bound 100) (int_bound 2))
    (fun (line0, extra) ->
      let ways = 2 + extra in
      let sets = 8 in
      let c =
        Cache.create ~name:"t" ~line_bytes:64
          { Memconfig.size_bytes = sets * ways * 64; ways; latency = 4 }
      in
      let addr l = l * 64 in
      Cache.insert c ~now:0 ~ready_at:0 (addr line0);
      (* ways-1 distinct conflicting lines *)
      for k = 1 to ways - 1 do
        Cache.insert c ~now:k ~ready_at:k (addr (line0 + (k * sets)))
      done;
      Cache.resident c ~now:1000 (addr line0))

let () =
  Alcotest.run "mem"
    [
      ( "address-space",
        [
          Alcotest.test_case "alloc" `Quick test_alloc;
          Alcotest.test_case "load/store" `Quick test_load_store;
          Alcotest.test_case "errors" `Quick test_addr_errors;
          Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion_boundary;
          Alcotest.test_case "fork isolation" `Quick test_fork_isolation;
          Alcotest.test_case "fork of a fork" `Quick test_fork_of_fork;
          Alcotest.test_case "beyond brk reads zero" `Quick test_beyond_brk_reads_zero;
          Alcotest.test_case "fork keeps sizes" `Quick test_fork_sizes;
          Alcotest.test_case "error messages" `Quick test_error_messages;
          QCheck_alcotest.to_alcotest qcheck_fork_model;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "in-flight" `Quick test_cache_inflight;
          Alcotest.test_case "refill keeps earlier" `Quick test_cache_refill_keeps_earlier;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hierarchy_levels;
          Alcotest.test_case "l2 hit" `Quick test_hierarchy_l2_hit;
          Alcotest.test_case "prefetch hides latency" `Quick test_prefetch_hides_latency;
          Alcotest.test_case "useless prefetch" `Quick test_prefetch_useless;
          Alcotest.test_case "residency oracle" `Quick test_resident_oracle;
          Alcotest.test_case "stats reset" `Quick test_stats_reset;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          QCheck_alcotest.to_alcotest qcheck_access_then_hit;
          QCheck_alcotest.to_alcotest qcheck_prefetch_monotone;
          QCheck_alcotest.to_alcotest qcheck_lru_survival;
        ] );
    ]
