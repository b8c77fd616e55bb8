open Stallhide_isa
open Stallhide_mem
open Stallhide_workloads

(* CoroBase-style multi-key OLTP over a latched open-addressing table.

   The table reuses the [Hash_probe] slot layout — one 64-byte line per
   slot, key at +0, value at +8 — extended with a latch word at +16 so
   transactions can lock individual records. A transaction is a batch of
   [batch] distinct keys (Zipfian-sampled, host-sorted ascending so
   latches are always acquired in a global order) that either sums the
   values (multi-get) or bumps each value by a key-derived commutative
   delta (multi-put). Each lane is one in-flight transaction coroutine;
   K lanes under round-robin is CoroBase's two-level
   coroutine-to-transaction mapping.

   A transaction runs in four phases:
   1. index lookups — hash every key, record (slot, key) pairs in a
      per-lane scratch area; the manual variant prefetches each home
      slot and yields before touching it (the group prefetch), probe
      continuations live out of line and yield per step;
   2. latch acquisition in sorted key order, spinning with yields on a
      busy latch and aborting to a release-all/retry path past
      [max_spin] observations;
   3. reads/writes against the latched slots;
   4. commit — take the next global commit sequence number, write
      (seq, running checksum) to the lane's record line, release every
      latch, and mark the operation boundary.

   Context switches happen only at yields, so every load→store window
   below (latch take, counter bumps, value updates) is atomic by
   construction, and the instrumentation passes — which insert only
   *before* loads — cannot break that. Shared-word mutation is only
   sound within one core: multi-core runs must give each core its own
   table (its own [make] call), exactly as the kv SMP harness shards.

   The commit-ordering invariant the fuzz oracle leans on: phases 3–4
   are yield-free once the post-acquisition suspension point passes,
   conflicting transactions exclude each other via latches, and
   disjoint transactions commute, so replaying the lanes sequentially
   in commit-sequence order is bit-identical to the interleaved run
   (diagnostics counters aside). *)

let hash_const = 2654435761
let max_spin = 256
let line = Gen_util.line

type layout = {
  table : int;
  slots : int;
  table_end : int;
  stats : int;  (** aborts at +0, latch waits at +8; sits at [table_end] *)
  commit_ctr : int;
  stream_base : int array;
  scratch_base : int array;
  record_base : int array;
  lookups : int;
  direct_hits : int;
      (** lookups whose group-prefetched home slot held the key (no
          probe continuation) — the group-prefetch hit count *)
}

let find image lay key =
  let rec go addr steps =
    if steps > lay.slots then raise Not_found;
    if Address_space.load image addr = key then addr
    else
      let next = addr + line in
      go (if next >= lay.table_end then lay.table else next) (steps + 1)
  in
  go (lay.table + (((key * hash_const) lsr 11) mod lay.slots * line)) 0

let validate ~lanes ~txns ~batch ~mix ~keys ~theta =
  let fail fmt = Printf.ksprintf invalid_arg ("Txn_oltp: " ^^ fmt) in
  if lanes <= 0 then fail "lanes (K, --inflight) must be positive (got %d)" lanes;
  if txns <= 0 then fail "txns must be positive (got %d)" txns;
  if batch < 1 || batch > 8 then fail "batch must be in 1..8 (got %d)" batch;
  if mix < 0 || mix > 100 then fail "mix must be in 0..100 (got %d)" mix;
  if keys < 4 * batch then
    fail "keys must be at least 4 * batch (got keys=%d, batch=%d)" keys batch;
  if not (Float.is_finite theta) then fail "theta must be finite (got %g)" theta

let make ?image ?(manual = false) ?(lanes = 8) ?(txns = 64) ?(batch = 4) ?(mix = 0)
    ?(keys = 4096) ?(theta = 0.8) ~seed () =
  validate ~lanes ~txns ~batch ~mix ~keys ~theta;
  let st = Random.State.make [| seed; 0x5bd1e995 |] in
  let slots = 2 * keys in
  let stream_bytes = Gen_util.round_line (txns * (1 + batch) * 8) in
  let scratch_bytes = Gen_util.round_line (8 + (16 * batch)) in
  let record_bytes = txns * line in
  let bytes =
    (slots * line) + (2 * line)
    + (lanes * (stream_bytes + scratch_bytes + record_bytes))
    + (4 * line)
  in
  let image = match image with Some im -> im | None -> Address_space.create ~bytes in
  let (_ : int) = Address_space.alloc image ~bytes:line in
  let table = Address_space.alloc image ~bytes:(slots * line) in
  let table_end = table + (slots * line) in
  (* The stats line sits exactly at [table_end] so the program reaches
     it through r10 and carries no absolute address: one shared program
     serves every table instance (the SMP leg instruments once and
     rebinds). *)
  let stats = Address_space.alloc image ~bytes:line in
  assert (stats = table_end);
  let commit_ctr = Address_space.alloc image ~bytes:line in
  (* Populate: shuffled insertion through the same linear probe the
     program runs, so host and program agree on every slot address. *)
  let key_vals = Array.init keys (fun i -> (2 * i) + 1) in
  Gen_util.shuffle st key_vals;
  let insert k v =
    let rec go addr steps =
      if steps > slots then failwith "Txn_oltp.make: table full";
      if Address_space.load image addr = 0 then begin
        Address_space.store image addr k;
        Address_space.store image (addr + 8) v
      end
      else
        let next = addr + line in
        go (if next >= table_end then table else next) (steps + 1)
    in
    go (table + (((k * hash_const) lsr 11) mod slots * line)) 0
  in
  Array.iter (fun k -> insert k ((k * 3) + 1)) key_vals;
  let occupied = ref [] in
  for s = 0 to slots - 1 do
    let addr = table + (s * line) in
    if Address_space.load image addr <> 0 then
      occupied := (addr, Address_space.load image (addr + 8)) :: !occupied
  done;
  let occupied = !occupied in
  (* Zipfian batches: [batch] distinct ranks, collisions pushed to the
     next free rank so sampling terminates deterministically. *)
  let cdf = Stallhide_smp.Harness.zipf_cdf ~universe:keys ~skew:theta in
  let pick_batch () =
    let picked = ref [] in
    for _ = 1 to batch do
      let r = ref (Stallhide_smp.Harness.zipf_sample cdf st) in
      while List.mem !r !picked do
        r := (!r + 1) mod keys
      done;
      picked := !r :: !picked
    done;
    List.map (fun r -> key_vals.(r)) !picked |> List.sort compare
  in
  let probe_len k =
    let rec go addr steps =
      if Address_space.load image addr = k then steps
      else
        let next = addr + line in
        go (if next >= table_end then table else next) (steps + 1)
    in
    go (table + (((k * hash_const) lsr 11) mod slots * line)) 0
  in
  let lookups = ref 0 and direct_hits = ref 0 in
  let stream_base = Array.make lanes 0 in
  let scratch_base = Array.make lanes 0 in
  let record_base = Array.make lanes 0 in
  for l = 0 to lanes - 1 do
    stream_base.(l) <- Address_space.alloc image ~bytes:stream_bytes;
    scratch_base.(l) <- Address_space.alloc image ~bytes:scratch_bytes;
    record_base.(l) <- Address_space.alloc image ~bytes:record_bytes;
    for t = 0 to txns - 1 do
      let base = stream_base.(l) + (t * (1 + batch) * 8) in
      let is_put = Random.State.int st 100 < mix in
      Address_space.store image base (if is_put then 1 else 0);
      List.iteri
        (fun i k ->
          Address_space.store image (base + (8 * (i + 1))) k;
          incr lookups;
          if probe_len k = 0 then incr direct_hits)
        (pick_batch ())
    done
  done;
  (* Register plan (all addresses arrive via lane registers):
       r1 stream cursor   r2 transactions left   r3 table base
       r4 scratch base    r5 commit-counter addr r6 record cursor
       r7 slot count      r9 hash constant       r10 table end / stats
       r15 running checksum; r0 r8 r11 r12 r13 r14 temporaries.
     Scratch layout: type word at +0, then per key i a 16-byte entry at
     +8+16i holding the resolved slot address and the key. *)
  let b = Builder.create () in
  let entry_disp i = 8 + (16 * i) in
  let fixups : (unit -> unit) list ref = ref [] in
  let emit_fixup ~addr_reg ~key_reg ~sk_reg ~disp ~fix ~res =
    fixups :=
      (fun () ->
        let chk = Builder.fresh b "chk" in
        Builder.label b fix;
        Builder.addi b addr_reg addr_reg line;
        Builder.branch b Instr.Lt addr_reg (Instr.Reg Reg.r10) chk;
        Builder.mov b addr_reg (Instr.Reg Reg.r3);
        Builder.label b chk;
        if manual then Builder.prefetch b addr_reg 0;
        Builder.yield b Instr.Primary;
        Builder.load b sk_reg addr_reg 0;
        Builder.branch b Instr.Ne sk_reg (Instr.Reg key_reg) fix;
        Builder.store b Reg.r4 disp addr_reg;
        Builder.jump b res)
      :: !fixups
  in
  let hash ~key_reg ~addr_reg =
    Builder.binop b Instr.Mul addr_reg key_reg (Instr.Reg Reg.r9);
    Builder.binop b Instr.Shr addr_reg addr_reg (Instr.Imm 11);
    Builder.binop b Instr.Rem addr_reg addr_reg (Instr.Reg Reg.r7);
    Builder.binop b Instr.Shl addr_reg addr_reg (Instr.Imm 6);
    Builder.binop b Instr.Add addr_reg addr_reg (Instr.Reg Reg.r3)
  in
  Builder.label b "txn";
  Builder.yield b Instr.Primary;
  Builder.load b Reg.r8 Reg.r1 0;
  Builder.store b Reg.r4 0 Reg.r8;
  (* Phase 1: index lookups, two keys at a time so the independent slot
     loads sit adjacent — the shape the primary pass coalesces into one
     group prefetch per pair. The manual variant prefetches each slot
     separately (the expert baseline the coalescer should beat). *)
  let i = ref 0 in
  while !i < batch do
    if !i + 1 < batch then begin
      let i0 = !i and i1 = !i + 1 in
      let fix0 = Builder.fresh b "fix" and res0 = Builder.fresh b "res" in
      let fix1 = Builder.fresh b "fix" and res1 = Builder.fresh b "res" in
      Builder.load b Reg.r11 Reg.r1 (8 * (i0 + 1));
      Builder.load b Reg.r12 Reg.r1 (8 * (i1 + 1));
      hash ~key_reg:Reg.r11 ~addr_reg:Reg.r13;
      hash ~key_reg:Reg.r12 ~addr_reg:Reg.r14;
      Builder.store b Reg.r4 (entry_disp i0) Reg.r13;
      Builder.store b Reg.r4 (entry_disp i0 + 8) Reg.r11;
      Builder.store b Reg.r4 (entry_disp i1) Reg.r14;
      Builder.store b Reg.r4 (entry_disp i1 + 8) Reg.r12;
      if manual then begin
        Builder.prefetch b Reg.r13 0;
        Builder.yield b Instr.Primary
      end;
      Builder.load b Reg.r0 Reg.r13 0;
      if manual then begin
        Builder.prefetch b Reg.r14 0;
        Builder.yield b Instr.Primary
      end;
      Builder.load b Reg.r8 Reg.r14 0;
      Builder.branch b Instr.Ne Reg.r0 (Instr.Reg Reg.r11) fix0;
      Builder.label b res0;
      Builder.branch b Instr.Ne Reg.r8 (Instr.Reg Reg.r12) fix1;
      Builder.label b res1;
      emit_fixup ~addr_reg:Reg.r13 ~key_reg:Reg.r11 ~sk_reg:Reg.r0 ~disp:(entry_disp i0)
        ~fix:fix0 ~res:res0;
      emit_fixup ~addr_reg:Reg.r14 ~key_reg:Reg.r12 ~sk_reg:Reg.r8 ~disp:(entry_disp i1)
        ~fix:fix1 ~res:res1;
      i := !i + 2
    end
    else begin
      let i0 = !i in
      let fix0 = Builder.fresh b "fix" and res0 = Builder.fresh b "res" in
      Builder.load b Reg.r11 Reg.r1 (8 * (i0 + 1));
      hash ~key_reg:Reg.r11 ~addr_reg:Reg.r13;
      Builder.store b Reg.r4 (entry_disp i0) Reg.r13;
      Builder.store b Reg.r4 (entry_disp i0 + 8) Reg.r11;
      if manual then begin
        Builder.prefetch b Reg.r13 0;
        Builder.yield b Instr.Primary
      end;
      Builder.load b Reg.r0 Reg.r13 0;
      Builder.branch b Instr.Ne Reg.r0 (Instr.Reg Reg.r11) fix0;
      Builder.label b res0;
      emit_fixup ~addr_reg:Reg.r13 ~key_reg:Reg.r11 ~sk_reg:Reg.r0 ~disp:(entry_disp i0)
        ~fix:fix0 ~res:res0;
      incr i
    end
  done;
  (* Phase 2: latches, ascending key order (the batch is host-sorted),
     so cross-lane acquisition cannot deadlock. *)
  Builder.label b "acq";
  Builder.movi b Reg.r12 0;
  for k = 0 to batch - 1 do
    let acq_k = Builder.fresh b "acq_k" and got = Builder.fresh b "got" in
    Builder.label b acq_k;
    Builder.load b Reg.r13 Reg.r4 (entry_disp k);
    Builder.load b Reg.r0 Reg.r13 16;
    Builder.branch b Instr.Eq Reg.r0 (Instr.Imm 0) got;
    Builder.load b Reg.r0 Reg.r10 8;
    Builder.binop b Instr.Add Reg.r0 Reg.r0 (Instr.Imm 1);
    Builder.store b Reg.r10 8 Reg.r0;
    Builder.yield b Instr.Primary;
    Builder.binop b Instr.Add Reg.r12 Reg.r12 (Instr.Imm 1);
    Builder.branch b Instr.Lt Reg.r12 (Instr.Imm max_spin) acq_k;
    Builder.movi b Reg.r14 k;
    Builder.jump b "abort";
    Builder.label b got;
    Builder.movi b Reg.r11 1;
    Builder.store b Reg.r13 16 Reg.r11
  done;
  (* The record-access suspension point: every latch is held, so a
     concurrent lane can actually observe a conflict here. *)
  Builder.yield b Instr.Primary;
  (* Phase 3: reads/writes. Puts bump each value by a key-derived
     constant — commutative, so any commit order yields the same
     table. *)
  Builder.load b Reg.r8 Reg.r4 0;
  Builder.branch b Instr.Ne Reg.r8 (Instr.Imm 0) "puts";
  for k = 0 to batch - 1 do
    Builder.load b Reg.r13 Reg.r4 (entry_disp k);
    Builder.load b Reg.r0 Reg.r13 8;
    Builder.binop b Instr.Add Reg.r15 Reg.r15 (Instr.Reg Reg.r0)
  done;
  Builder.jump b "commit";
  Builder.label b "puts";
  for k = 0 to batch - 1 do
    Builder.load b Reg.r13 Reg.r4 (entry_disp k);
    Builder.load b Reg.r11 Reg.r4 (entry_disp k + 8);
    Builder.binop b Instr.And Reg.r11 Reg.r11 (Instr.Imm 63);
    Builder.binop b Instr.Add Reg.r11 Reg.r11 (Instr.Imm 1);
    Builder.load b Reg.r0 Reg.r13 8;
    Builder.binop b Instr.Add Reg.r0 Reg.r0 (Instr.Reg Reg.r11);
    Builder.store b Reg.r13 8 Reg.r0
  done;
  (* Phase 4: commit sequence, record line, latch release. *)
  Builder.label b "commit";
  Builder.load b Reg.r0 Reg.r5 0;
  Builder.store b Reg.r6 0 Reg.r0;
  Builder.binop b Instr.Add Reg.r0 Reg.r0 (Instr.Imm 1);
  Builder.store b Reg.r5 0 Reg.r0;
  Builder.store b Reg.r6 8 Reg.r15;
  Builder.movi b Reg.r11 0;
  for k = 0 to batch - 1 do
    Builder.load b Reg.r13 Reg.r4 (entry_disp k);
    Builder.store b Reg.r13 16 Reg.r11
  done;
  Builder.opmark b;
  Builder.addi b Reg.r1 Reg.r1 (8 * (1 + batch));
  Builder.addi b Reg.r6 Reg.r6 line;
  Builder.binop b Instr.Sub Reg.r2 Reg.r2 (Instr.Imm 1);
  Builder.branch b Instr.Gt Reg.r2 (Instr.Imm 0) "txn";
  (* Temporaries carry schedule-dependent residue (spin counts, busy
     latch observations); zero them so final state depends only on the
     committed schedule. *)
  List.iter
    (fun r -> Builder.movi b r 0)
    [ Reg.r0; Reg.r8; Reg.r11; Reg.r12; Reg.r13; Reg.r14 ];
  Builder.halt b;
  (* Out-of-line continuations, all reached by explicit branches. *)
  Builder.label b "abort";
  Builder.load b Reg.r0 Reg.r10 0;
  Builder.binop b Instr.Add Reg.r0 Reg.r0 (Instr.Imm 1);
  Builder.store b Reg.r10 0 Reg.r0;
  Builder.movi b Reg.r13 0;
  Builder.label b "rel";
  Builder.branch b Instr.Ge Reg.r13 (Instr.Reg Reg.r14) "rel_done";
  Builder.mov b Reg.r8 (Instr.Reg Reg.r13);
  Builder.binop b Instr.Shl Reg.r8 Reg.r8 (Instr.Imm 4);
  Builder.binop b Instr.Add Reg.r8 Reg.r8 (Instr.Reg Reg.r4);
  Builder.load b Reg.r11 Reg.r8 8;
  Builder.movi b Reg.r0 0;
  Builder.store b Reg.r11 16 Reg.r0;
  Builder.yield b Instr.Primary;
  Builder.binop b Instr.Add Reg.r13 Reg.r13 (Instr.Imm 1);
  Builder.jump b "rel";
  Builder.label b "rel_done";
  Builder.yield b Instr.Primary;
  Builder.jump b "acq";
  List.iter (fun f -> f ()) (List.rev !fixups);
  let lane_inits =
    Array.init lanes (fun l ->
        [
          (Reg.r1, stream_base.(l));
          (Reg.r2, txns);
          (Reg.r3, table);
          (Reg.r4, scratch_base.(l));
          (Reg.r5, commit_ctr);
          (Reg.r6, record_base.(l));
          (Reg.r7, slots);
          (Reg.r9, hash_const);
          (Reg.r10, table_end);
        ])
  in
  let reset () =
    List.iter
      (fun (addr, v) ->
        Address_space.store image (addr + 8) v;
        Address_space.store image (addr + 16) 0)
      occupied;
    Address_space.store image commit_ctr 0;
    Address_space.store image stats 0;
    Address_space.store image (stats + 8) 0;
    Array.iter
      (fun rb ->
        for t = 0 to txns - 1 do
          Address_space.store image (rb + (t * line)) 0;
          Address_space.store image (rb + (t * line) + 8) 0
        done)
      record_base
  in
  ( {
      Workload.name = (if manual then "txn-oltp/manual" else "txn-oltp");
      program = Builder.assemble b;
      image;
      lanes = lane_inits;
      ops_per_lane = txns;
      reset;
    },
    {
      table;
      slots;
      table_end;
      stats;
      commit_ctr;
      stream_base;
      scratch_base;
      record_base;
      lookups = !lookups;
      direct_hits = !direct_hits;
    } )

let workload ?manual ?lanes ?txns ?keys ~seed () = fst (make ?manual ?lanes ?txns ?keys ~seed ())
