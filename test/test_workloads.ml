open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_workloads

let cfg = Memconfig.default

(* What a run counts: retired opmarks and the hierarchy's demand
   counters. *)
type counts = { ops : int; mem : Mem_stats.t }

(* Run all lanes sequentially; return the contexts, the counts and the
   scheduler's result. *)
let run_workload (w : Workload.t) =
  let ops, hooks = Stallhide.Baselines.op_counter () in
  let engine = { Engine.default_config with Engine.hooks } in
  let hier = Hierarchy.create cfg in
  let ctxs = Workload.contexts w in
  let r = Scheduler.run_sequential ~engine hier w.Workload.image ctxs in
  Array.iter
    (fun c ->
      match c.Context.status with
      | Context.Done -> ()
      | Context.Faulted m -> Alcotest.fail ("fault: " ^ m)
      | Context.Ready -> Alcotest.fail "did not finish")
    ctxs;
  (ctxs, { ops = !ops; mem = Hierarchy.stats hier }, r)

let reg_init lane r =
  match List.assoc_opt r lane with Some v -> v | None -> 0

(* --- pointer chase --- *)

let test_pointer_chase_correct () =
  let lanes = 3 and hops = 500 in
  let w = Pointer_chase.make ~lanes ~nodes_per_lane:256 ~hops ~seed:7 () in
  let ctxs, counters, _ = run_workload w in
  Alcotest.(check int) "ops" (lanes * hops) counters.ops;
  Array.iteri
    (fun i ctx ->
      (* host-side walk of the same ring *)
      let p = ref (reg_init w.Workload.lanes.(i) Reg.r1) in
      for _ = 1 to hops do
        p := Address_space.load w.Workload.image !p
      done;
      Alcotest.(check int) (Printf.sprintf "lane %d final pointer" i) !p ctx.Context.regs.{1})
    ctxs

let test_pointer_chase_misses () =
  let w = Pointer_chase.make ~lanes:1 ~nodes_per_lane:4096 ~hops:2000 ~seed:3 () in
  let _, counters, _ = run_workload w in
  (* footprint 256KB > L2; most hops miss beyond L2 *)
  Alcotest.(check bool) "mostly misses" true
    (counters.mem.Mem_stats.dram_accesses + counters.mem.Mem_stats.l3_hits > 1500)

let test_pointer_chase_manual_variant () =
  let w = Pointer_chase.make ~manual:true ~lanes:1 ~nodes_per_lane:64 ~hops:10 ~seed:3 () in
  Alcotest.(check bool) "has yields" true (Program.yield_count w.Workload.program > 0);
  Alcotest.(check string) "name" "pointer-chase/manual" w.Workload.name;
  let ctxs, counters, _ = run_workload w in
  Alcotest.(check int) "ops still correct" 10 counters.ops;
  ignore ctxs

let test_pointer_chase_compute_knob () =
  let w0 = Pointer_chase.make ~lanes:1 ~nodes_per_lane:64 ~hops:100 ~compute:0 ~seed:3 () in
  let w50 = Pointer_chase.make ~lanes:1 ~nodes_per_lane:64 ~hops:100 ~compute:50 ~seed:3 () in
  let _, _, r0 = run_workload w0 in
  let _, _, r50 = run_workload w50 in
  Alcotest.(check bool) "compute adds cycles" true
    (r50.Scheduler.cycles >= r0.Scheduler.cycles + (100 * 50))

let test_pointer_chase_bad_params () =
  match Pointer_chase.make ~lanes:0 ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lanes=0 accepted"

(* --- hash probe --- *)

let test_hash_probe_correct () =
  let lanes = 2 and ops = 400 in
  let w = Hash_probe.make ~lanes ~table_slots:1024 ~ops ~seed:11 () in
  let ctxs, counters, _ = run_workload w in
  Alcotest.(check int) "ops" (lanes * ops) counters.ops;
  Array.iteri
    (fun i ctx ->
      let base = reg_init w.Workload.lanes.(i) Reg.r1 in
      let expected = ref 0 in
      for k = 0 to ops - 1 do
        let key = Address_space.load w.Workload.image (base + (k * 8)) in
        expected := !expected + (key * 7)
      done;
      Alcotest.(check int) (Printf.sprintf "lane %d value sum" i) !expected ctx.Context.regs.{15})
    ctxs

let test_hash_probe_compute_term () =
  (* service compute runs on a scratch register: it must cost cycles but
     leave the checksum untouched *)
  let ops = 100 and compute = 30 in
  let w = Hash_probe.make ~lanes:1 ~table_slots:512 ~ops ~compute ~seed:11 () in
  let w0 = Hash_probe.make ~lanes:1 ~table_slots:512 ~ops ~compute:0 ~seed:11 () in
  let ctxs, _, r = run_workload w in
  let _, _, r0 = run_workload w0 in
  let base = reg_init w.Workload.lanes.(0) Reg.r1 in
  let expected = ref 0 in
  for k = 0 to ops - 1 do
    expected := !expected + (Address_space.load w.Workload.image (base + (k * 8)) * 7)
  done;
  Alcotest.(check int) "sum unchanged" !expected ctxs.(0).Context.regs.{15};
  Alcotest.(check int) "compute costs its cycles" (ops * compute)
    (r.Scheduler.cycles - r0.Scheduler.cycles)

let test_hash_probe_fill_validation () =
  (match Hash_probe.make ~fill:0.0 ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fill 0 accepted");
  match Hash_probe.make ~fill:0.95 ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fill 0.95 accepted"

(* --- btree --- *)

let test_btree_correct () =
  let lanes = 2 and ops = 300 in
  let w = Btree.make ~lanes ~keys:2048 ~ops ~seed:5 () in
  let ctxs, counters, _ = run_workload w in
  Alcotest.(check int) "ops" (lanes * ops) counters.ops;
  Array.iteri
    (fun i ctx ->
      let base = reg_init w.Workload.lanes.(i) Reg.r1 in
      let expected = ref 0 in
      for k = 0 to ops - 1 do
        expected := !expected + (Address_space.load w.Workload.image (base + (k * 8)) * 3)
      done;
      Alcotest.(check int) (Printf.sprintf "lane %d lookups" i) !expected ctx.Context.regs.{15})
    ctxs

let test_btree_depth_work () =
  (* Each lookup needs ~log2(keys) node visits: instruction count scales. *)
  let w = Btree.make ~lanes:1 ~keys:4096 ~ops:100 ~seed:5 () in
  let _, counters, _ = run_workload w in
  Alcotest.(check bool) "several loads per lookup" true
    (counters.mem.Mem_stats.demand_accesses > 100 * 8)

(* --- array scan --- *)

let test_array_scan_correct () =
  let w = Array_scan.make ~lanes:2 ~block_words:32 ~ops:50 ~seed:9 () in
  let ctxs, counters, _ = run_workload w in
  Alcotest.(check int) "ops" 100 counters.ops;
  Array.iteri
    (fun i ctx ->
      let base = reg_init w.Workload.lanes.(i) Reg.r1 in
      let expected = ref 0 in
      for k = 0 to (32 * 50) - 1 do
        expected := !expected + Address_space.load w.Workload.image (base + (k * 8))
      done;
      Alcotest.(check int) (Printf.sprintf "lane %d sum" i) !expected ctx.Context.regs.{15})
    ctxs

let test_array_scan_cache_friendly () =
  let w = Array_scan.make ~lanes:1 ~block_words:64 ~ops:200 ~seed:9 () in
  let _, counters, _ = run_workload w in
  (* one line fill per 8 words -> miss ratio ~1/8 *)
  let ratio = float_of_int (counters.mem.Mem_stats.demand_accesses - counters.mem.Mem_stats.l1_hits)
              /. float_of_int counters.mem.Mem_stats.demand_accesses in
  Alcotest.(check bool) (Printf.sprintf "miss ratio %.3f low" ratio) true (ratio < 0.2)

(* --- hash join --- *)

let test_hash_join_correct () =
  let ops = 250 in
  let w = Hash_join.make ~lanes:2 ~build_rows:2048 ~ops ~seed:13 () in
  let ctxs, counters, _ = run_workload w in
  Alcotest.(check int) "ops" (2 * ops) counters.ops;
  Array.iteri
    (fun i ctx ->
      let base = reg_init w.Workload.lanes.(i) Reg.r1 in
      let expected = ref 0 in
      for k = 0 to (ops * Hash_join.batch) - 1 do
        let key = Address_space.load w.Workload.image (base + (k * 8)) in
        expected := !expected + ((key * 13) + 1)
      done;
      Alcotest.(check int) (Printf.sprintf "lane %d join sum" i) !expected ctx.Context.regs.{15})
    ctxs

let test_hash_join_manual_coalesced () =
  let w = Hash_join.make ~manual:true ~lanes:1 ~build_rows:512 ~ops:50 ~seed:13 () in
  (* expert variant: exactly one yield per op despite 4 miss loads *)
  Alcotest.(check int) "one yield in body" 1 (Program.yield_count w.Workload.program);
  let ctxs, _, _ = run_workload w in
  ignore ctxs

(* --- graph bfs --- *)

(* Host-side BFS over the same CSR image, for the oracle. *)
let host_bfs (w : Workload.t) ~lane ~vertices =
  let regs = w.Workload.lanes.(lane) in
  let offsets = reg_init regs Reg.r4
  and edges = reg_init regs Reg.r5 in
  let visited = Array.make vertices false in
  visited.(0) <- true;
  let q = Queue.create () in
  Queue.push 0 q;
  let settled = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    incr settled;
    let start = Address_space.load w.Workload.image (offsets + (v * 8)) in
    let stop = Address_space.load w.Workload.image (offsets + ((v + 1) * 8)) in
    for i = start to stop - 1 do
      let u = Address_space.load w.Workload.image (edges + (i * 8)) in
      if not visited.(u) then begin
        visited.(u) <- true;
        Queue.push u q
      end
    done
  done;
  !settled

let test_graph_bfs_correct () =
  let vertices = 1024 in
  let w = Graph_bfs.make ~lanes:2 ~vertices ~degree:4 ~seed:31 () in
  let expected = host_bfs w ~lane:0 ~vertices in
  Alcotest.(check int) "ring makes all reachable" vertices expected;
  let ctxs, counters, _ = run_workload w in
  Alcotest.(check int) "settled = reachable, both lanes" (2 * vertices) counters.ops;
  Array.iter
    (fun ctx -> Alcotest.(check int) "settle counter" vertices ctx.Context.regs.{15})
    ctxs

let test_graph_bfs_reset () =
  let vertices = 512 in
  let w = Graph_bfs.make ~lanes:1 ~vertices ~degree:3 ~seed:32 () in
  let _, c1, _ = run_workload w in
  Alcotest.(check int) "first run settles all" vertices c1.ops;
  (* without reset the queue is drained and visited all set: re-running
     must do nothing; with reset it repeats the traversal *)
  let ctx = Workload.context w ~lane:0 ~id:9 ~mode:Context.Primary in
  let r = Scheduler.run_sequential (Hierarchy.create cfg) w.Workload.image [| ctx |] in
  ignore r;
  Alcotest.(check bool) "stale image settles nothing new" true (ctx.Context.regs.{15} <= 1);
  w.Workload.reset ();
  let ctx2 = Workload.context w ~lane:0 ~id:10 ~mode:Context.Primary in
  let (_ : Scheduler.result) =
    Scheduler.run_sequential (Hierarchy.create cfg) w.Workload.image [| ctx2 |]
  in
  Alcotest.(check int) "reset restores the traversal" vertices ctx2.Context.regs.{15}

let test_graph_bfs_pgo_speedup () =
  let mk () = Graph_bfs.make ~lanes:8 ~vertices:16384 ~degree:4 ~seed:33 () in
  let none = Stallhide.Baselines.run_sequential (mk ()) in
  let pgo, _ = Stallhide.Baselines.run_pgo (mk ()) in
  Alcotest.(check bool)
    (Printf.sprintf "pgo %.2f > none %.2f" pgo.Stallhide.Metrics.throughput
       none.Stallhide.Metrics.throughput)
    true
    (pgo.Stallhide.Metrics.throughput > 1.3 *. none.Stallhide.Metrics.throughput)

(* --- group by --- *)

let expected_groups (w : Workload.t) ~lane ~groups ~tuples =
  let input = reg_init w.Workload.lanes.(lane) Reg.r1 in
  let acc = Array.make groups 0 in
  for i = 0 to tuples - 1 do
    let key = Address_space.load w.Workload.image (input + (i * 16)) in
    let v = Address_space.load w.Workload.image (input + (i * 16) + 8) in
    acc.(key mod groups) <- acc.(key mod groups) + v
  done;
  acc

let check_groups (w : Workload.t) ~lane ~groups expected =
  let base = Group_by.acc_base w ~lane in
  Array.iteri
    (fun g v ->
      Alcotest.(check int)
        (Printf.sprintf "lane %d group %d" lane g)
        v
        (Address_space.load w.Workload.image (base + (g * 64))))
    expected;
  ignore groups

let test_group_by_correct () =
  let groups = 512 and tuples = 400 in
  let w = Group_by.make ~lanes:2 ~groups ~tuples ~seed:41 () in
  let expected =
    Array.init 2 (fun lane -> expected_groups w ~lane ~groups ~tuples)
  in
  let _, counters, _ = run_workload w in
  Alcotest.(check int) "tuples processed" (2 * tuples) counters.ops;
  check_groups w ~lane:0 ~groups expected.(0);
  check_groups w ~lane:1 ~groups expected.(1)

let test_group_by_interleaving_safe () =
  (* Aggregation results must survive profile-guided interleaving:
     no yield may split a load-modify-store of an accumulator. *)
  let groups = 2048 and tuples = 400 in
  let w = Group_by.make ~lanes:8 ~groups ~tuples ~seed:42 () in
  let expected = Array.init 8 (fun lane -> expected_groups w ~lane ~groups ~tuples) in
  let profiled = Stallhide.Pipeline.profile w in
  let w', _ = Stallhide.Pipeline.instrument ~scavenger_interval:200 profiled w in
  Alcotest.(check bool) "yields present" true (Program.yield_count w'.Workload.program > 0);
  let ctxs = Workload.contexts w' in
  let r =
    Scheduler.run_round_robin ~switch:Stallhide_runtime.Switch_cost.coroutine
      (Hierarchy.create cfg) w'.Workload.image ctxs
  in
  Alcotest.(check int) "all lanes done" 8 r.Scheduler.completed;
  for lane = 0 to 7 do
    check_groups w' ~lane ~groups expected.(lane)
  done

let test_group_by_reset () =
  let groups = 128 and tuples = 100 in
  let w = Group_by.make ~lanes:1 ~groups ~tuples ~seed:43 () in
  let expected = expected_groups w ~lane:0 ~groups ~tuples in
  let _, _, _ = run_workload w in
  w.Workload.reset ();
  let base = Group_by.acc_base w ~lane:0 in
  for g = 0 to groups - 1 do
    Alcotest.(check int) "zeroed" 0 (Address_space.load w.Workload.image (base + (g * 64)))
  done;
  let _, _, _ = run_workload w in
  check_groups w ~lane:0 ~groups expected

(* --- kv server --- *)

let test_kv_server () =
  let w = Kv_server.make ~requests:100 ~service_compute:10 ~seed:21 () in
  Alcotest.(check string) "name" "kv-server" w.Workload.name;
  Alcotest.(check int) "one lane by default" 1 (Workload.lane_count w);
  let _, counters, _ = run_workload w in
  Alcotest.(check int) "requests served" 100 counters.ops

(* --- offload --- *)

let test_offload_correct () =
  let ops = 300 in
  let w = Offload.make ~lanes:2 ~ops ~overlap:24 ~seed:51 () in
  let ctxs, counters, _ = run_workload w in
  Alcotest.(check int) "ops" (2 * ops) counters.ops;
  Array.iteri
    (fun i ctx ->
      let base = reg_init w.Workload.lanes.(i) Reg.r1 in
      let raw = ref 0 and transformed = ref 0 in
      for k = 0 to ops - 1 do
        let v = Address_space.load w.Workload.image (base + (k * 8)) in
        raw := !raw + v;
        transformed := !transformed + Engine.accel_transform v
      done;
      Alcotest.(check int) (Printf.sprintf "lane %d raw checksum" i) !raw ctx.Context.regs.{14};
      Alcotest.(check int)
        (Printf.sprintf "lane %d accel checksum" i)
        !transformed ctx.Context.regs.{15})
    ctxs

let test_offload_wait_stalls_exposed () =
  let w = Offload.make ~lanes:1 ~ops:200 ~overlap:24 ~seed:52 () in
  let ctxs, _, _ = run_workload w in
  let stall = Array.fold_left (fun acc c -> acc + c.Context.stall_cycles) 0 ctxs in
  (* each op stalls ~ (accel_latency - overlap - few cycles) at the wait *)
  Alcotest.(check bool)
    (Printf.sprintf "stall %d large" stall)
    true
    (stall > 200 * (cfg.Memconfig.accel_latency - 24 - 20))

let test_offload_pgo_hides_waits () =
  let mk () = Offload.make ~lanes:16 ~ops:300 ~overlap:24 ~seed:53 () in
  let none = Stallhide.Baselines.run_sequential (mk ()) in
  let pgo, inst = Stallhide.Baselines.run_pgo (mk ()) in
  (* the wait site is instrumented from stall samples alone *)
  Alcotest.(check bool) "wait yield inserted" true
    (inst.Stallhide.Pipeline.primary.Stallhide_binopt.Primary_pass.yield_sites >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "pgo %.2f >> none %.2f" pgo.Stallhide.Metrics.throughput
       none.Stallhide.Metrics.throughput)
    true
    (pgo.Stallhide.Metrics.throughput > 2.0 *. none.Stallhide.Metrics.throughput)

(* --- shared image --- *)

let test_shared_image () =
  let im = Address_space.create ~bytes:(1 lsl 23) in
  let w1 = Kv_server.make ~image:im ~requests:50 ~seed:1 () in
  let w2 = Pointer_chase.make ~image:im ~lanes:2 ~nodes_per_lane:256 ~hops:50 ~seed:2 () in
  Alcotest.(check bool) "same image" true (w1.Workload.image == w2.Workload.image);
  let _, c1, _ = run_workload w1 in
  let _, c2, _ = run_workload w2 in
  Alcotest.(check int) "kv ops" 50 c1.ops;
  Alcotest.(check int) "chase ops" 100 c2.ops

let test_shared_image_too_small () =
  let im = Address_space.create ~bytes:4096 in
  match Pointer_chase.make ~image:im ~lanes:8 ~nodes_per_lane:4096 ~hops:10 ~seed:2 () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "overflowing shared image accepted"

(* The serving harnesses size one shared image as the sum of the
   generators' [image_bytes], built in their order: the kv shards
   (empty shards skipped), then the group-by lanes. Every region must
   fit, with nothing left over. *)
let qcheck_image_bytes_exact =
  let gen =
    QCheck.Gen.(
      let* shards = list_size (int_range 1 4) (int_range 0 5) in
      let* table_slots = int_range 2 1024 in
      let* requests = int_range 1 40 in
      let* scav_lanes = int_range 0 4 in
      let* groups = int_range 2 300 in
      (* mostly counts whose 16-byte tuples end mid-line *)
      let* tuples = int_range 1 100 in
      return (shards, table_slots, requests, (scav_lanes, groups, tuples)))
  in
  let print (shards, table_slots, requests, (scav_lanes, groups, tuples)) =
    Printf.sprintf "shards=[%s] table_slots=%d requests=%d scav_lanes=%d groups=%d tuples=%d"
      (String.concat ";" (List.map string_of_int shards))
      table_slots requests scav_lanes groups tuples
  in
  QCheck.Test.make ~name:"summed image_bytes hold exactly what the generators allocate"
    ~count:100 (QCheck.make ~print gen)
    (fun (shards, table_slots, requests, (scav_lanes, groups, tuples)) ->
      let shards = List.filter (fun lanes -> lanes > 0) shards in
      let bytes =
        List.fold_left
          (fun acc lanes -> acc + Kv_server.image_bytes ~lanes ~table_slots ~requests)
          0 shards
        + if scav_lanes = 0 then 0 else Group_by.image_bytes ~lanes:scav_lanes ~groups ~tuples
      in
      QCheck.assume (bytes > 0);
      let image = Address_space.create ~bytes in
      List.iteri
        (fun s lanes ->
          ignore (Kv_server.make ~image ~lanes ~table_slots ~requests ~seed:(100 + s) ()))
        shards;
      if scav_lanes > 0 then
        ignore (Group_by.make ~image ~lanes:scav_lanes ~groups ~tuples ~seed:3 ());
      Address_space.used_bytes image = bytes)

(* --- workload API --- *)

let test_workload_api () =
  let w = Pointer_chase.make ~lanes:3 ~nodes_per_lane:64 ~hops:10 ~seed:1 () in
  Alcotest.(check int) "lane count" 3 (Workload.lane_count w);
  (match Workload.context w ~lane:5 ~id:0 ~mode:Context.Primary with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range lane accepted");
  let ctxs = Workload.contexts ~mode:Context.Scavenger w in
  Alcotest.(check int) "one context per lane" 3 (Array.length ctxs);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) "ids are lane numbers" i c.Context.id;
      Alcotest.(check bool) "mode applied" true (c.Context.mode = Context.Scavenger))
    ctxs;
  let w2 = Workload.with_program w (Asm.parse "halt") in
  Alcotest.(check int) "with_program keeps lanes" 3 (Workload.lane_count w2);
  Alcotest.(check int) "program swapped" 1 (Program.length w2.Workload.program)

(* --- determinism --- *)

let test_determinism () =
  let mk () = Btree.make ~lanes:2 ~keys:1024 ~ops:100 ~seed:77 () in
  let _, _, r1 = run_workload (mk ()) in
  let _, _, r2 = run_workload (mk ()) in
  Alcotest.(check int) "same cycles" r1.Scheduler.cycles r2.Scheduler.cycles;
  Alcotest.(check int) "same stall" r1.Scheduler.stall r2.Scheduler.stall

let qcheck_pointer_chase_any_seed =
  QCheck.Test.make ~name:"pointer chase completes for any seed" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let w = Pointer_chase.make ~lanes:2 ~nodes_per_lane:128 ~hops:50 ~seed () in
      let ctxs = Workload.contexts w in
      let r = Scheduler.run_sequential (Hierarchy.create cfg) w.Workload.image ctxs in
      r.Scheduler.completed = 2 && r.Scheduler.faults = [])

let qcheck_hash_probe_any_seed =
  QCheck.Test.make ~name:"hash probe completes for any seed" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let w = Hash_probe.make ~lanes:1 ~table_slots:512 ~ops:50 ~seed () in
      let ctxs = Workload.contexts w in
      let r = Scheduler.run_sequential (Hierarchy.create cfg) w.Workload.image ctxs in
      r.Scheduler.completed = 1 && r.Scheduler.faults = [])

let () =
  Alcotest.run "workloads"
    [
      ( "pointer-chase",
        [
          Alcotest.test_case "correct" `Quick test_pointer_chase_correct;
          Alcotest.test_case "misses" `Quick test_pointer_chase_misses;
          Alcotest.test_case "manual variant" `Quick test_pointer_chase_manual_variant;
          Alcotest.test_case "compute knob" `Quick test_pointer_chase_compute_knob;
          Alcotest.test_case "bad params" `Quick test_pointer_chase_bad_params;
          QCheck_alcotest.to_alcotest qcheck_pointer_chase_any_seed;
        ] );
      ( "hash-probe",
        [
          Alcotest.test_case "correct" `Quick test_hash_probe_correct;
          Alcotest.test_case "compute term" `Quick test_hash_probe_compute_term;
          Alcotest.test_case "fill validation" `Quick test_hash_probe_fill_validation;
          QCheck_alcotest.to_alcotest qcheck_hash_probe_any_seed;
        ] );
      ( "btree",
        [
          Alcotest.test_case "correct" `Quick test_btree_correct;
          Alcotest.test_case "depth work" `Quick test_btree_depth_work;
        ] );
      ( "array-scan",
        [
          Alcotest.test_case "correct" `Quick test_array_scan_correct;
          Alcotest.test_case "cache friendly" `Quick test_array_scan_cache_friendly;
        ] );
      ( "hash-join",
        [
          Alcotest.test_case "correct" `Quick test_hash_join_correct;
          Alcotest.test_case "manual coalesced" `Quick test_hash_join_manual_coalesced;
        ] );
      ("kv-server", [ Alcotest.test_case "serves" `Quick test_kv_server ]);
      ( "graph-bfs",
        [
          Alcotest.test_case "correct" `Quick test_graph_bfs_correct;
          Alcotest.test_case "reset" `Quick test_graph_bfs_reset;
          Alcotest.test_case "pgo speedup" `Quick test_graph_bfs_pgo_speedup;
        ] );
      ( "group-by",
        [
          Alcotest.test_case "correct" `Quick test_group_by_correct;
          Alcotest.test_case "interleaving safe" `Quick test_group_by_interleaving_safe;
          Alcotest.test_case "reset" `Quick test_group_by_reset;
        ] );
      ( "offload",
        [
          Alcotest.test_case "correct" `Quick test_offload_correct;
          Alcotest.test_case "wait stalls exposed" `Quick test_offload_wait_stalls_exposed;
          Alcotest.test_case "pgo hides waits" `Quick test_offload_pgo_hides_waits;
        ] );
      ( "shared-image",
        [
          Alcotest.test_case "two workloads" `Quick test_shared_image;
          Alcotest.test_case "too small" `Quick test_shared_image_too_small;
          QCheck_alcotest.to_alcotest qcheck_image_bytes_exact;
        ] );
      ("api", [ Alcotest.test_case "workload accessors" `Quick test_workload_api ]);
      ("determinism", [ Alcotest.test_case "same seed same run" `Quick test_determinism ]);
    ]
