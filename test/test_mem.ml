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

(* A reserved range takes the addresses [alloc] would have given it
   but no storage: it reads 0, and a store backs the one chunk it
   lands in. *)
let test_reserve () =
  let bytes = (2 * chunk) + 104 in
  let run take =
    let sp = Address_space.create ~bytes:(5 * chunk) in
    let a = Address_space.alloc sp ~bytes:40 in
    let r = take sp ~bytes in
    let next = Address_space.alloc sp ~bytes:8 in
    (sp, a, r, next)
  in
  let sp, a, r, next = run Address_space.reserve in
  let sp', a', r', next' = run Address_space.alloc in
  Alcotest.(check (list int)) "the bases alloc gives" [ a'; r'; next' ] [ a; r; next ];
  Alcotest.(check int) "used bytes as after alloc" (Address_space.used_bytes sp')
    (Address_space.used_bytes sp);
  let probes = [ r; r + chunk - 8; r + chunk; r + bytes - 8 ] in
  List.iter
    (fun addr -> Alcotest.(check int) (Printf.sprintf "reads 0 at %d" addr) 0 (load sp addr))
    probes;
  Address_space.store sp (r + chunk) 5;
  Alcotest.(check int) "a store into a reserved chunk reads back" 5 (load sp (r + chunk));
  Alcotest.(check int) "and leaves its neighbours 0" 0 (load sp (r + chunk + 8));
  (* host bytes each call allocates for [bytes] of fresh chunks *)
  let cost take =
    let sp = Address_space.create ~bytes:(4 * chunk) in
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (take sp ~bytes:(3 * chunk)));
    Gc.allocated_bytes () -. before
  in
  let reserved = cost Address_space.reserve and backed = cost Address_space.alloc in
  if reserved >= 1024.0 || backed < float_of_int (3 * chunk) then
    Alcotest.failf "reserve allocated %.0f host bytes, alloc %.0f" reserved backed

let test_reserve_fork () =
  let sp = Address_space.create ~bytes:(4 * chunk) in
  let (_ : int) = Address_space.alloc sp ~bytes:64 in
  let r = Address_space.reserve sp ~bytes:(3 * chunk) in
  let mid = r + chunk + 64 in
  let f = Address_space.fork sp in
  Address_space.store f mid 7;
  Alcotest.(check int) "the fork reads its store" 7 (load f mid);
  Alcotest.(check int) "the source does not" 0 (load sp mid);
  Address_space.store sp (mid + 8) 9;
  Alcotest.(check int) "the source reads its store" 9 (load sp (mid + 8));
  Alcotest.(check int) "the fork does not" 0 (load f (mid + 8));
  let g = Address_space.fork f in
  Alcotest.(check int) "a fork of the fork inherits its store" 7 (load g mid);
  Alcotest.(check int) "but not the source's" 0 (load g (mid + 8))

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
        (fun () -> ignore (Address_space.alloc t ~bytes:100000));
      raises "empty reserve" (Invalid_argument "Address_space.reserve: bytes must be positive")
        (fun () -> ignore (Address_space.reserve t ~bytes:0));
      raises "oversized reserve"
        (Failure "Address_space.reserve: out of memory (want 100000 at 0, capacity 1024)")
        (fun () -> ignore (Address_space.reserve t ~bytes:100000)))
    [ ("space", sp); ("fork", Address_space.fork sp) ]

(* Model test: random allocs, reserves, stores, loads and forks over a
   family of spaces, each checked against a flat int array plus a brk.
   The capacities straddle the 32 KiB chunk size, and word indexes
   cluster at chunk edges and just past the capacity. *)
type op =
  | Alloc of int * int  (* space, bytes *)
  | Reserve of int * int  (* space, bytes *)
  | Store of int * int * int  (* space, word, value *)
  | Load of int * int  (* space, word *)
  | Fork of int  (* space *)

let pp_op = function
  | Alloc (s, b) -> Printf.sprintf "alloc s%d %d" s b
  | Reserve (s, b) -> Printf.sprintf "reserve s%d %d" s b
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
          (1, map2 (fun s b -> Reserve (s, 1 + b)) space (oneof [ int_bound 200; int_bound cap ]));
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
      (* [reserve] moves the model exactly as [alloc] does *)
      let take f s bytes =
        let sp, _, brk = pick s in
        let base = (!brk + 63) / 64 * 64 in
        match f sp ~bytes with
        | got ->
            expect (base + bytes <= cap && got = base);
            brk := base + bytes
        | exception Failure _ -> expect (base + bytes > cap)
      in
      List.iter
        (function
          | Alloc (s, bytes) -> take Address_space.alloc s bytes
          | Reserve (s, bytes) -> take Address_space.reserve s bytes
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
  Cache.create ~line_bytes:64 { Memconfig.size_bytes = size; ways; latency = 4 }

(* [Cache.lookup_code]'s codes: -1 miss, 0 ready hit, else the cycle an
   in-flight fill completes. *)
let test_cache_hit_miss () =
  let c = mk_cache () in
  Alcotest.(check int) "cold cache misses" (-1) (Cache.lookup_code c ~now:0 0);
  Cache.insert c ~ready_at:0 0;
  Alcotest.(check int) "inserted line hits" 0 (Cache.lookup_code c ~now:1 0);
  Alcotest.(check int) "same-line word hits" 0 (Cache.lookup_code c ~now:1 56)

let test_cache_inflight () =
  let c = mk_cache () in
  Cache.insert c ~ready_at:100 0;
  Alcotest.(check int) "in flight until its ready time" 100 (Cache.lookup_code c ~now:50 0);
  Alcotest.(check int) "ready hit" 0 (Cache.lookup_code c ~now:100 0);
  Alcotest.(check bool) "not resident while filling" false (Cache.resident c ~now:50 0);
  Alcotest.(check bool) "resident after fill" true (Cache.resident c ~now:100 0)

let test_cache_refill_keeps_earlier () =
  let c = mk_cache () in
  Cache.insert c ~ready_at:50 0;
  Cache.insert c ~ready_at:200 0;
  Alcotest.(check int) "earlier fill wins" 50 (Cache.lookup_code c ~now:10 0)

let test_cache_lru () =
  (* 2-way, 4 sets: lines 0, 4, 8 map to set 0. *)
  let c = mk_cache () in
  let addr line = line * 64 in
  Cache.insert c ~ready_at:0 (addr 0);
  Cache.insert c ~ready_at:0 (addr 4);
  ignore (Cache.lookup_code c ~now:1 (addr 0));
  Cache.insert c ~ready_at:2 (addr 8);
  Alcotest.(check int) "LRU line evicted" (-1) (Cache.lookup_code c ~now:3 (addr 4));
  Alcotest.(check int) "MRU line kept" 0 (Cache.lookup_code c ~now:3 (addr 0))

(* The widest cache [Cache.create] accepts: 255 ways in one set, the
   last of them a way like the others. *)
let test_cache_widest () =
  let ways = 255 in
  let c = Cache.create ~line_bytes:64 { Memconfig.size_bytes = ways * 64; ways; latency = 4 } in
  let addr line = line * 64 in
  for line = 0 to ways - 1 do
    Cache.insert c ~ready_at:0 (addr line)
  done;
  for line = 0 to ways - 1 do
    Alcotest.(check int) (Printf.sprintf "line %d hits" line) 0 (Cache.lookup_code c ~now:1 (addr line))
  done;
  ignore (Cache.lookup_code c ~now:2 (addr 0));
  Cache.insert c ~ready_at:3 (addr ways);
  Alcotest.(check bool) "LRU line evicted" false (Cache.resident c ~now:3 (addr 1));
  Alcotest.(check bool) "MRU line kept" true (Cache.resident c ~now:3 (addr 0));
  Alcotest.(check int) "new line hits" 0 (Cache.lookup_code c ~now:3 (addr ways));
  Alcotest.(check int) "last-filled line hits" 0 (Cache.lookup_code c ~now:3 (addr (ways - 1)))

(* Model test: random lookups, prefetches, fills, invalidations and
   residency probes on small caches, with the clock rising, each step
   checked against a list of lines per set. A fill comes cold or right
   after its own lookup or prefetch (the path that reuses that scan's
   victim). [create] leaves the storage unwritten and malloc recycles
   it between cases, so a stale tag that reads as a line fails here
   too. *)
type cache_op =
  | Lookup of bool * int  (* prefetch?, address *)
  | Fill of bool option * int * int
      (* the lookup (prefetch?) it follows at the same cycle, if any;
         address; ready delay *)
  | Invalidate of int
  | Resident of int

let pp_cache_op =
  let lookup p = if p then "prefetch" else "lookup" in
  function
  | Lookup (p, a) -> Printf.sprintf "%s %d" (lookup p) a
  | Fill (after, a, d) ->
      let after = match after with Some p -> " after " ^ lookup p | None -> "" in
      Printf.sprintf "fill%s %d +%d" after a d
  | Invalidate a -> Printf.sprintf "invalidate %d" a
  | Resident a -> Printf.sprintf "resident %d" a

module Cache_model = struct
  type line = { tag : int; ready : int; stamp : int }

  type t = {
    sets : line list array;
    ways : int;
    line_bytes : int;
    mutable tick : int;
  }

  let create ~line_bytes ~sets ~ways = { sets = Array.make sets []; ways; line_bytes; tick = 0 }

  let set t line = line mod Array.length t.sets

  let find t addr =
    let line = addr / t.line_bytes in
    (line, List.find_opt (fun l -> l.tag = line) t.sets.(set t line))

  let update t line f =
    let s = set t line in
    t.sets.(s) <- List.map (fun l -> if l.tag = line then f l else l) t.sets.(s)

  let touch t line =
    t.tick <- t.tick + 1;
    update t line (fun l -> { l with stamp = t.tick })

  let classify t ~now ~touch_ready addr =
    match find t addr with
    | _, None -> -1
    | _, Some l when l.ready <= now && not touch_ready -> 0
    | line, Some l ->
        touch t line;
        if l.ready <= now then 0 else l.ready

  (* Refill keeps the earlier ready time; a new line takes an empty way,
     else evicts the least recently used one. *)
  let insert t ~ready_at addr =
    match find t addr with
    | line, Some _ ->
        update t line (fun l -> { l with ready = min l.ready ready_at });
        touch t line
    | line, None ->
        let s = set t line in
        let kept =
          match t.sets.(s) with
          | l0 :: rest when List.length t.sets.(s) = t.ways ->
              let lru = List.fold_left (fun a l -> if l.stamp < a.stamp then l else a) l0 rest in
              List.filter (fun l -> l.tag <> lru.tag) t.sets.(s)
          | ls -> ls
        in
        t.tick <- t.tick + 1;
        t.sets.(s) <- { tag = line; ready = ready_at; stamp = t.tick } :: kept

  let resident t ~now addr =
    match find t addr with _, Some l -> l.ready <= now | _, None -> false

  let invalidate t addr =
    match find t addr with
    | line, Some _ ->
        let s = set t line in
        t.sets.(s) <- List.filter (fun l -> l.tag <> line) t.sets.(s);
        true
    | _, None -> false
end

let cache_model_case =
  let open QCheck.Gen in
  let gen =
    triple (int_range 1 16) (oneofl [ 1; 2; 4; 8 ]) (oneofl [ 64; 128 ]) >>= fun (ways, sets, lb) ->
    (* twice the capacity, so sets overflow and lines get evicted *)
    let line = int_bound ((2 * sets * ways) - 1) in
    let addr = map2 (fun l off -> (l * lb) + off) line (int_bound (lb - 1)) in
    let op =
      frequency
        [
          (6, map2 (fun p a -> Lookup (p, a)) bool addr);
          (4, map3 (fun after a d -> Fill (after, a, d)) (opt bool) addr (int_bound 40));
          (1, map (fun a -> Invalidate a) addr);
          (1, map (fun a -> Resident a) addr);
        ]
    in
    let ops = list_size (int_range 1 120) (pair (int_bound 6) op) in
    map (fun ops -> (ways, sets, lb, ops)) ops
  in
  let pp (dt, op) = Printf.sprintf "+%d %s" dt (pp_cache_op op) in
  QCheck.make gen ~print:(fun (ways, sets, lb, ops) ->
      Printf.sprintf "%d ways, %d sets, %d B lines: %s" ways sets lb
        (String.concat "; " (List.map pp ops)))

let qcheck_cache_model =
  QCheck.Test.make ~name:"cache matches a per-set list model" ~count:300 cache_model_case
    (fun (ways, sets, line_bytes, ops) ->
      let c =
        Cache.create ~line_bytes
          { Memconfig.size_bytes = sets * ways * line_bytes; ways; latency = 4 }
      in
      let m = Cache_model.create ~line_bytes ~sets ~ways in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let now = ref 0 in
      let lookup prefetch a =
        let now = !now in
        let code = if prefetch then Cache.prefetch_code else Cache.lookup_code in
        expect (code c ~now a = Cache_model.classify m ~now ~touch_ready:(not prefetch) a)
      in
      List.iter
        (fun (dt, op) ->
          now := !now + dt;
          let now = !now in
          (match op with
          | Lookup (p, a) -> lookup p a
          | Fill (after, a, d) ->
              Option.iter (fun p -> lookup p a) after;
              Cache.insert c ~ready_at:(now + d) a;
              Cache_model.insert m ~ready_at:(now + d) a
          | Invalidate a -> expect (Cache.invalidate c a = Cache_model.invalidate m a)
          | Resident a -> expect (Cache.resident c ~now a = Cache_model.resident m ~now a));
          for line = 0 to (2 * sets * ways) - 1 do
            let a = line * line_bytes in
            expect (Cache.resident c ~now a = Cache_model.resident m ~now a)
          done)
        ops;
      !ok)

(* A dropped cache's storage goes back to malloc, which hands it to the
   next cache of the same size with the old tags still in it. None of
   them may read as a line: no old line is resident, and every first
   lookup misses. Covers every level of every geometry the soundness
   oracle samples ([Memconfig.default] among them). *)
let lines ~line_bytes (level : Memconfig.level_cfg) = level.size_bytes / line_bytes

let[@inline never] fill_and_drop ~line_bytes level =
  let c = Cache.create ~line_bytes level in
  for line = 0 to lines ~line_bytes level - 1 do
    Cache.insert c ~ready_at:0 (line * line_bytes)
  done;
  for line = 0 to lines ~line_bytes level - 1 do
    if not (Cache.resident c ~now:0 (line * line_bytes)) then
      Alcotest.failf "line %d not filled" line
  done

let test_cache_storage_reuse () =
  let geometries =
    List.sort_uniq compare
      (List.concat_map
         (fun (m : Memconfig.t) ->
           List.map (fun l -> (m.line_bytes, l)) ([ m.l1; m.l2; m.l3 ] @ Option.to_list m.icache))
         (Memconfig.default :: Stallhide_check.Oracle.mem_samples))
  in
  List.iter
    (fun (line_bytes, (level : Memconfig.level_cfg)) ->
      fill_and_drop ~line_bytes level;
      Gc.full_major ();
      let c = Cache.create ~line_bytes level in
      let where line =
        Printf.sprintf "%d B / %d-way / %d B lines, line %d" level.size_bytes level.ways line_bytes
          line
      in
      for line = 0 to lines ~line_bytes level - 1 do
        if Cache.resident c ~now:max_int (line * line_bytes) then
          Alcotest.failf "stale line resident: %s" (where line)
      done;
      for line = 0 to lines ~line_bytes level - 1 do
        if Cache.lookup_code c ~now:0 (line * line_bytes) <> -1 then
          Alcotest.failf "stale line hit: %s" (where line)
      done)
    geometries

(* --- Hierarchy --- *)

(* One demand load: the level that served it, its latency, and its
   stall beyond an L1 hit. *)
let access h ~now addr =
  let latency = Hierarchy.access_latency h ~now addr in
  ( Hierarchy.level_of_code (Hierarchy.last_level h),
    latency,
    max 0 (latency - cfg.Memconfig.l1.Memconfig.latency) )

let test_hierarchy_levels () =
  let h = Hierarchy.create cfg in
  let level, latency, stall = access h ~now:0 0 in
  Alcotest.(check string) "cold from DRAM" "DRAM" (Hierarchy.level_name level);
  Alcotest.(check int) "dram latency" cfg.Memconfig.dram_latency latency;
  Alcotest.(check int) "dram stall"
    (cfg.Memconfig.dram_latency - cfg.Memconfig.l1.Memconfig.latency)
    stall;
  let level, latency, stall = access h ~now:300 0 in
  Alcotest.(check string) "now in L1" "L1" (Hierarchy.level_name level);
  Alcotest.(check int) "l1 latency" cfg.Memconfig.l1.Memconfig.latency latency;
  Alcotest.(check int) "no stall" 0 stall

let test_hierarchy_l2_hit () =
  let h = Hierarchy.create cfg in
  (* Evict line 0 from L1 (4-way sets) by touching 6 more lines of the
     same L1 set; they all fit in the larger L2. *)
  let line_bytes = cfg.Memconfig.line_bytes in
  ignore (access h ~now:0 0);
  for i = 1 to 6 do
    ignore (access h ~now:(i * 1000) (i * 64 * line_bytes))
  done;
  let level, latency, _ = access h ~now:100000 0 in
  Alcotest.(check string) "served by L2" "L2" (Hierarchy.level_name level);
  Alcotest.(check int) "l2 latency" cfg.Memconfig.l2.Memconfig.latency latency

let test_prefetch_hides_latency () =
  let h = Hierarchy.create cfg in
  Hierarchy.prefetch h ~now:0 0;
  let _, _, stall = access h ~now:cfg.Memconfig.dram_latency 0 in
  Alcotest.(check int) "no stall after covered prefetch" 0 stall;
  Hierarchy.prefetch h ~now:1000 4096;
  let _, _, stall = access h ~now:(1000 + 100) 4096 in
  Alcotest.(check int) "remaining stall"
    (cfg.Memconfig.dram_latency - 100 - cfg.Memconfig.l1.Memconfig.latency)
    stall

let test_prefetch_useless () =
  let h = Hierarchy.create cfg in
  ignore (access h ~now:0 0);
  Hierarchy.prefetch h ~now:500 0;
  let s = Hierarchy.stats h in
  Alcotest.(check int) "useless prefetch counted" 1 s.Mem_stats.useless_prefetches;
  Alcotest.(check int) "prefetches counted" 1 s.Mem_stats.prefetches

let test_resident_oracle () =
  let h = Hierarchy.create cfg in
  Alcotest.(check int) "cold not resident" (-1) (Hierarchy.resident_code h ~now:0 0);
  ignore (access h ~now:0 0);
  Alcotest.(check int) "expected L1 residency" 0 (Hierarchy.resident_code h ~now:10 0);
  Hierarchy.prefetch h ~now:100 8192;
  Alcotest.(check int) "in-flight not resident" (-1) (Hierarchy.resident_code h ~now:150 8192);
  Alcotest.(check int) "expected residency after fill" 0
    (Hierarchy.resident_code h ~now:(100 + cfg.Memconfig.dram_latency) 8192)

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
  (match Memconfig.validate bad_ic with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad icache geometry accepted");
  let rejects what msg f =
    match f () with
    | exception Invalid_argument m -> Alcotest.(check string) what msg m
    | _ -> Alcotest.failf "%s accepted" what
  in
  let no_ways = { cfg with Memconfig.l1 = { cfg.Memconfig.l1 with Memconfig.ways = 0 } } in
  rejects "zero-way l1" "Memconfig: l1 ways must be positive" (fun () ->
      Memconfig.validate no_ways);
  rejects "zero-way hierarchy" "Memconfig: l1 ways must be positive" (fun () ->
      ignore (Hierarchy.create no_ways));
  let cache ~line_bytes size_bytes ways () =
    ignore (Cache.create ~line_bytes { Memconfig.size_bytes; ways; latency = 4 })
  in
  rejects "zero-way cache" "Cache.create: ways must be positive" (cache ~line_bytes:64 512 0);
  rejects "256-way cache" "Cache.create: at most 255 ways" (cache ~line_bytes:64 (256 * 64) 256);
  rejects "48-byte lines" "Cache.create: line_bytes must be a power of two"
    (cache ~line_bytes:48 (8 * 48) 2);
  rejects "3 sets" "Cache.create: set count must be a power of two"
    (cache ~line_bytes:64 (3 * 2 * 64) 2);
  rejects "0 sets" "Cache.create: set count must be a power of two" (cache ~line_bytes:64 64 2)

let qcheck_access_then_hit =
  QCheck.Test.make ~name:"access then immediate re-access hits L1" ~count:200
    QCheck.(int_bound 10000)
    (fun w ->
      let h = Hierarchy.create cfg in
      let addr = w * 8 in
      ignore (access h ~now:0 addr);
      let level, _, stall = access h ~now:1000 addr in
      level = Hierarchy.L1 && stall = 0)

let qcheck_prefetch_monotone =
  QCheck.Test.make ~name:"prefetch never increases stall" ~count:200
    QCheck.(pair (int_bound 500) (int_bound 300))
    (fun (w, dt) ->
      let addr = w * 64 in
      let h1 = Hierarchy.create cfg in
      let _, _, plain = access h1 ~now:dt addr in
      let h2 = Hierarchy.create cfg in
      Hierarchy.prefetch h2 ~now:0 addr;
      let _, _, with_pf = access h2 ~now:dt addr in
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
        Cache.create ~line_bytes:64
          { Memconfig.size_bytes = sets * ways * 64; ways; latency = 4 }
      in
      let addr l = l * 64 in
      Cache.insert c ~ready_at:0 (addr line0);
      (* ways-1 distinct conflicting lines *)
      for k = 1 to ways - 1 do
        Cache.insert c ~ready_at:k (addr (line0 + (k * sets)))
      done;
      Cache.resident c ~now:1000 (addr line0))

(* --- Hierarchy against a model --- *)

(* The demand, prefetch, residency and write semantics of [Hierarchy]
   over three [Cache_model] levels. Shared cores share the L3 model,
   and a second port of the same window and budget, never attached,
   prices admission. *)
module Hier_model = struct
  type t = {
    cfg : Memconfig.t;
    l1 : Cache_model.t;
    l2 : Cache_model.t;
    l3 : Cache_model.t;
    port : Shared_l3.t option;
    peers : t list ref;  (* every core on the port, this one included *)
    stats : Mem_stats.t;
    mutable spike : (int * int * int * int) option;  (* from, until, l3 and dram multipliers *)
    mutable scale : (int * int) option;  (* level code, percent *)
    mutable level : int;
    mutable queued : int;
    mutable writes : int;
    mutable invalidations : int;
  }

  let cache ~line_bytes (c : Memconfig.level_cfg) =
    Cache_model.create ~line_bytes ~sets:(c.size_bytes / line_bytes / c.ways) ~ways:c.ways

  let create ?port ?(peers = ref []) ?l3 (cfg : Memconfig.t) =
    let line_bytes = cfg.line_bytes in
    let l3 = match l3 with Some l3 -> l3 | None -> cache ~line_bytes cfg.l3 in
    let m =
      {
        cfg;
        l1 = cache ~line_bytes cfg.l1;
        l2 = cache ~line_bytes cfg.l2;
        l3;
        port;
        peers;
        stats = Mem_stats.create ();
        spike = None;
        scale = None;
        level = 0;
        queued = 0;
        writes = 0;
        invalidations = 0;
      }
    in
    peers := !peers @ [ m ];
    m

  let spiked m ~now base pick =
    match m.spike with
    | Some (from, until, l3m, dm) when now >= from && now < until -> base * pick (l3m, dm)
    | _ -> base

  (* serving level, latency and in-flight flag, below L1 *)
  let below_l1 m ~now a =
    let c2 = Cache_model.classify m.l2 ~now ~touch_ready:true a in
    let l2 = m.cfg.l2.latency and l3 = m.cfg.l3.latency in
    if c2 >= 0 then (1, (if c2 = 0 then l2 else max l2 (c2 - now)), c2 > 0)
    else
      let c3 = Cache_model.classify m.l3 ~now ~touch_ready:true a in
      if c3 >= 0 then (2, (if c3 = 0 then spiked m ~now l3 fst else max l3 (c3 - now)), c3 > 0)
      else (3, spiked m ~now m.cfg.dram_latency snd, false)

  let priced m ~now (level, latency, inflight) =
    let queued =
      match m.port with
      | Some port when level >= 2 && not inflight -> Shared_l3.admit port ~now
      | _ -> 0
    in
    let latency = latency + queued in
    let base = m.cfg.l1.latency in
    let latency =
      match m.scale with
      | Some (l, percent) when l = level -> base + (max 0 (latency - base) * percent / 100)
      | _ -> latency
    in
    (queued, latency)

  let fill m ~ready_at level a =
    if level >= 1 then Cache_model.insert m.l1 ~ready_at a;
    if level >= 2 then Cache_model.insert m.l2 ~ready_at a;
    if level >= 3 then Cache_model.insert m.l3 ~ready_at a

  let access m ~now a =
    let c1 = Cache_model.classify m.l1 ~now ~touch_ready:true a in
    let l1 = m.cfg.l1.latency in
    let ((level, _, _) as served) =
      if c1 >= 0 then (0, (if c1 = 0 then l1 else max l1 (c1 - now)), c1 > 0) else below_l1 m ~now a
    in
    let queued, latency = priced m ~now served in
    let s = m.stats in
    s.demand_accesses <- s.demand_accesses + 1;
    (match level with
    | 0 -> s.l1_hits <- s.l1_hits + 1
    | 1 -> s.l2_hits <- s.l2_hits + 1
    | 2 -> s.l3_hits <- s.l3_hits + 1
    | _ -> s.dram_accesses <- s.dram_accesses + 1);
    fill m ~ready_at:now level a;
    m.level <- level;
    m.queued <- queued;
    latency

  (* A prefetch that misses L1 reports its serving level; its queueing
     is not reported. *)
  let prefetch m ~now a =
    let s = m.stats in
    s.prefetches <- s.prefetches + 1;
    let c1 = Cache_model.classify m.l1 ~now ~touch_ready:false a in
    if c1 = 0 then s.useless_prefetches <- s.useless_prefetches + 1
    else if c1 < 0 then begin
      let ((level, _, _) as served) = below_l1 m ~now a in
      let _, latency = priced m ~now served in
      fill m ~ready_at:(now + latency) level a;
      m.level <- level
    end

  let resident_code m ~now a =
    if Cache_model.resident m.l1 ~now a then 0
    else if Cache_model.resident m.l2 ~now a then 1
    else if Cache_model.resident m.l3 ~now a then 2
    else -1

  let write m a =
    if m.port <> None then begin
      m.writes <- m.writes + 1;
      List.iter
        (fun p ->
          if p != m then
            let k c = if Cache_model.invalidate c a then 1 else 0 in
            m.invalidations <- m.invalidations + k p.l1 + k p.l2)
        !(m.peers)
    end
end

type hier_op =
  | H_access of int
  | H_prefetch of int
  | H_resident of int
  | H_write of int
  | H_scale of int * int  (* level code, percent *)

let pp_hier_op = function
  | H_access a -> Printf.sprintf "access %d" a
  | H_prefetch a -> Printf.sprintf "prefetch %d" a
  | H_resident a -> Printf.sprintf "resident %d" a
  | H_write a -> Printf.sprintf "write %d" a
  | H_scale (l, p) -> Printf.sprintf "scale L%d %d%%" (l + 1) p

let hier_case =
  let open QCheck.Gen in
  let level sets ways latency =
    pair (oneofl sets) (oneofl ways) >|= fun (s, w) ->
    { Memconfig.size_bytes = s * w * 64; ways = w; latency }
  in
  let geometry =
    triple (level [ 1; 2; 4 ] [ 1; 2; 4 ] 4) (level [ 2; 4; 8 ] [ 2; 4; 8 ] 14)
      (level [ 4; 8; 16 ] [ 4; 8; 16 ] 50)
    >|= fun (l1, l2, l3) -> { Memconfig.default with Memconfig.l1; l2; l3 }
  in
  geometry >>= fun (mc : Memconfig.t) ->
  (* twice the L3's lines, so every level evicts *)
  let addr = map2 (fun l off -> (l * 64) + off) (int_bound ((2 * mc.l3.size_bytes / 64) - 1)) (int_bound 63) in
  let op =
    frequency
      [
        (8, map (fun a -> H_access a) addr);
        (4, map (fun a -> H_prefetch a) addr);
        (2, map (fun a -> H_resident a) addr);
        (2, map (fun a -> H_write a) addr);
        (1, map2 (fun l p -> H_scale (l, p)) (oneofl [ 0; 2 ]) (oneofl [ 0; 50; 150 ]));
      ]
  in
  let spike = opt (map2 (fun from len -> (from, from + len, 3, 2)) (int_bound 2000) (int_bound 1000)) in
  let ops = list_size (int_range 1 150) (triple (int_bound 40) bool op) in
  quad (return mc) bool spike ops

let print_hier_case (mc, shared, spike, ops) =
  let lvl (c : Memconfig.level_cfg) = Printf.sprintf "%dB/%dw" c.size_bytes c.ways in
  Printf.sprintf "L1 %s, L2 %s, L3 %s, %s, spike %s: %s" (lvl mc.Memconfig.l1) (lvl mc.l2) (lvl mc.l3)
    (if shared then "two cores on one port" else "private")
    (match spike with Some (f, u, _, _) -> Printf.sprintf "[%d, %d)" f u | None -> "none")
    (String.concat "; "
       (List.map (fun (dt, core, op) -> Printf.sprintf "+%d c%d %s" dt (Bool.to_int core) (pp_hier_op op)) ops))

let qcheck_hierarchy_model =
  QCheck.Test.make ~name:"hierarchy matches a three-level model" ~count:300
    (QCheck.make hier_case ~print:print_hier_case)
    (fun (mc, shared, spike, ops) ->
      (* a budget of 2 per 32-cycle window queues bursts *)
      let port () = Shared_l3.create ~window:32 ~budget:2 mc in
      let cores, ports =
        if shared then
          let real = port () and model = port () and peers = ref [] in
          let l3 = Hier_model.cache ~line_bytes:64 mc.l3 in
          ( List.init 2 (fun _ ->
                (Hierarchy.create_core mc ~shared:real, Hier_model.create ~port:model ~peers ~l3 mc)),
            Some (real, model) )
        else ([ (Hierarchy.create mc, Hier_model.create mc) ], None)
      in
      Option.iter
        (fun (from, until, l3_mult, dram_mult) ->
          List.iter
            (fun (h, m) ->
              Hierarchy.inject_spike h ~from_cycle:from ~until_cycle:until ~l3_mult ~dram_mult;
              m.Hier_model.spike <- Some (from, until, l3_mult, dram_mult))
            cores)
        spike;
      let now = ref 0 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      List.iteri
        (fun i (dt, core, op) ->
          now := !now + dt;
          let now = !now in
          let h, m = if core && shared then List.nth cores 1 else List.hd cores in
          let agree what got want =
            if got <> want then fail "op %d (%s): %s %d, model %d" i (pp_hier_op op) what got want
          in
          (match op with
          | H_access a -> agree "latency" (Hierarchy.access_latency h ~now a) (Hier_model.access m ~now a)
          | H_prefetch a ->
              Hierarchy.prefetch h ~now a;
              Hier_model.prefetch m ~now a
          | H_resident a ->
              agree "resident" (Hierarchy.resident_code h ~now a) (Hier_model.resident_code m ~now a)
          | H_write a ->
              Hierarchy.write h a;
              Hier_model.write m a
          | H_scale (l, percent) ->
              Hierarchy.set_level_scale h (Hierarchy.level_of_code l) ~percent;
              m.Hier_model.scale <- Some (l, percent));
          agree "last_level" (Hierarchy.last_level h) m.Hier_model.level;
          agree "last_queued" (Hierarchy.last_queued h) m.Hier_model.queued)
        ops;
      List.iter (fun (h, m) -> if Hierarchy.stats h <> m.Hier_model.stats then fail "Mem_stats differ") cores;
      Option.iter
        (fun (real, model) ->
          let r = Shared_l3.stats real and p = Shared_l3.stats model in
          let writes, invalidations =
            List.fold_left
              (fun (w, k) (_, m) -> (w + m.Hier_model.writes, k + m.Hier_model.invalidations))
              (0, 0) cores
          in
          if
            (r.admitted, r.queued, r.queue_cycles, r.writes, r.invalidations)
            <> (p.admitted, p.queued, p.queue_cycles, writes, invalidations)
          then fail "Shared_l3 stats differ")
        ports;
      true)

(* The hot calls allocate nothing. Each path runs [n] times to warm
   up, then [n] times more with [Gc.minor_words] read around them, on
   hierarchies with no counterfactual, an L1 one and an L3 one. Each
   path also shows it was the path taken. *)
let test_hot_calls_allocate_nothing () =
  let n = 10_000 and line = cfg.Memconfig.line_bytes in
  let l1_set_stride = 64 * line (* Memconfig.default's L1 has 64 sets *) in
  let paths armed =
    let fresh () =
      let h = Hierarchy.create cfg in
      Option.iter (fun l -> Hierarchy.set_level_scale h l ~percent:50) armed;
      h
    in
    let access h k a = ignore (Hierarchy.access_latency h ~now:(32 * k) a) in
    let h_l1 = fresh () and h_l2 = fresh () and h_dram = fresh () and h_fly = fresh () in
    let h_pf = fresh () and h_useless = fresh () and h_probe = fresh () in
    ignore (Hierarchy.access_latency h_useless ~now:0 0);
    Hierarchy.prefetch h_fly ~now:0 0;
    (* the last lines in L1, older ones in L2 and L3, the first gone *)
    for k = 0 to n - 1 do
      ignore (Hierarchy.access_latency h_probe ~now:k (k * line))
    done;
    let port = Shared_l3.create cfg in
    let core () =
      let h = Hierarchy.create_core cfg ~shared:port in
      Option.iter (fun l -> Hierarchy.set_level_scale h l ~percent:50) armed;
      h
    in
    let writer = core () and reader = core () in
    let s = Shared_l3.stats port in
    let level h want = Hierarchy.last_level h = want in
    [
      ("L1 hit", (fun k -> access h_l1 k 0), fun () -> level h_l1 0);
      (* five lines of one 4-way L1 set: every access misses L1, hits L2 *)
      ("L2 hit", (fun k -> access h_l2 k (k mod 5 * l1_set_stride)), fun () -> level h_l2 1);
      ("DRAM-level miss", (fun k -> access h_dram k ((1 lsl 30) + (k * line))), fun () -> level h_dram 3);
      ( "in-flight hit",
        (fun _ -> ignore (Hierarchy.access_latency h_fly ~now:1 0)),
        fun () -> level h_fly 0 && Hierarchy.access_latency h_fly ~now:1 0 > cfg.l1.latency );
      ( "useful prefetch",
        (fun k -> Hierarchy.prefetch h_pf ~now:(32 * k) ((1 lsl 30) + (k * line))),
        fun () -> (Hierarchy.stats h_pf).useless_prefetches = 0 );
      ( "useless prefetch",
        (fun k -> Hierarchy.prefetch h_useless ~now:(32 * k) 0),
        fun () -> (Hierarchy.stats h_useless).useless_prefetches = 2 * n );
      ( "residency probe",
        (fun k -> ignore (Hierarchy.resident_code h_probe ~now:(32 * k) (k * line))),
        fun () ->
          Hierarchy.resident_code h_probe ~now:n 0 = -1
          && Hierarchy.resident_code h_probe ~now:n ((n - 1) * line) = 0 );
      ( "remote-invalidating write",
        (fun k ->
          ignore (Hierarchy.access_latency reader ~now:(32 * k) 0);
          Hierarchy.write writer 0),
        fun () -> s.Shared_l3.invalidations = 4 * n );
    ]
  in
  List.iter
    (fun armed ->
      List.iter
        (fun (name, step, taken) ->
          for k = 0 to n - 1 do
            step k
          done;
          let w0 = Gc.minor_words () in
          for k = 0 to n - 1 do
            step k
          done;
          let words = Gc.minor_words () -. w0 in
          if words <> 0. then Alcotest.failf "%s: %.0f minor words over %d calls" name words n;
          if not (taken ()) then Alcotest.failf "%s: not the path taken" name)
        (paths armed))
    [ None; Some Hierarchy.L1; Some Hierarchy.L3 ]

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
          Alcotest.test_case "reserve" `Quick test_reserve;
          Alcotest.test_case "reserve then fork" `Quick test_reserve_fork;
          Alcotest.test_case "error messages" `Quick test_error_messages;
          QCheck_alcotest.to_alcotest qcheck_fork_model;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "in-flight" `Quick test_cache_inflight;
          Alcotest.test_case "refill keeps earlier" `Quick test_cache_refill_keeps_earlier;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "255 ways" `Quick test_cache_widest;
          QCheck_alcotest.to_alcotest qcheck_cache_model;
          Alcotest.test_case "reused storage reads empty" `Quick test_cache_storage_reuse;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "levels" `Quick test_hierarchy_levels;
          Alcotest.test_case "l2 hit" `Quick test_hierarchy_l2_hit;
          Alcotest.test_case "prefetch hides latency" `Quick test_prefetch_hides_latency;
          Alcotest.test_case "useless prefetch" `Quick test_prefetch_useless;
          Alcotest.test_case "residency oracle" `Quick test_resident_oracle;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          QCheck_alcotest.to_alcotest qcheck_access_then_hit;
          QCheck_alcotest.to_alcotest qcheck_prefetch_monotone;
          QCheck_alcotest.to_alcotest qcheck_lru_survival;
          QCheck_alcotest.to_alcotest qcheck_hierarchy_model;
          Alcotest.test_case "hot calls allocate nothing" `Quick test_hot_calls_allocate_nothing;
        ] );
    ]
