open Stallhide_isa
open Stallhide_mem

let hash_const = 2654435761

(* each lane's keys: one word per op, whole lines *)
let key_bytes ~ops = Gen_util.round_line (ops * 8)

let image_bytes ~lanes ~table_slots ~ops =
  Gen_util.line + (table_slots * Gen_util.line) + (lanes * key_bytes ~ops)

let make ?image ?(name = "hash-probe") ?(manual = false) ?(lanes = 8) ?(table_slots = 8192)
    ?(fill = 0.5) ?(ops = 2000) ?(compute = 0) ~seed () =
  if lanes <= 0 || table_slots <= 1 || ops <= 0 then invalid_arg "Hash_probe.make: bad parameters";
  if fill <= 0.0 || fill > 0.9 then invalid_arg "Hash_probe.make: fill must be in (0, 0.9]";
  let st = Random.State.make [| seed; 0x517cc1b7 |] in
  let n_keys = int_of_float (float_of_int table_slots *. fill) in
  let bytes = (table_slots * Gen_util.line) + (lanes * key_bytes ~ops) + (4 * Gen_util.line) in
  let image = match image with Some im -> im | None -> Address_space.create ~bytes in
  let (_ : int) = Address_space.alloc image ~bytes:Gen_util.line in
  let table = Address_space.alloc image ~bytes:(table_slots * Gen_util.line) in
  let slot_addr i = table + (i * Gen_util.line) in
  (* Distinct scattered keys: a random permutation of 1..2*slots, truncated. *)
  let pool = Array.init (2 * table_slots) (fun i -> i + 1) in
  Gen_util.shuffle st pool;
  let keys = Array.sub pool 0 n_keys in
  (* Host-side insertion with the same hash and probe order the program uses. *)
  let insert key =
    let h = key * hash_const mod table_slots in
    let rec probe i guard =
      if guard > table_slots then failwith "Hash_probe: table full"
      else if Address_space.load image (slot_addr i) = 0 then begin
        Address_space.store image (slot_addr i) key;
        Address_space.store image (slot_addr i + 8) (key * 7)
      end
      else probe ((i + 1) mod table_slots) (guard + 1)
    in
    probe h 0
  in
  Array.iter insert keys;
  (* every lane's registers but its key cursor, one list for all lanes *)
  let tail =
    [
      (Reg.r2, ops);
      (Reg.r3, table);
      (Reg.r7, table_slots);
      (Reg.r9, hash_const);
      (Reg.r10, table + (table_slots * Gen_util.line));
    ]
  in
  let lane_inits =
    Array.init lanes (fun _ ->
        let base = Address_space.alloc image ~bytes:(key_bytes ~ops) in
        for i = 0 to ops - 1 do
          Address_space.store image (base + (i * 8)) keys.(Random.State.int st n_keys)
        done;
        (Reg.r1, base) :: tail)
  in
  let b = Builder.create () in
  Builder.label b "next_op";
  Builder.load b Reg.r4 Reg.r1 0;
  Builder.addi b Reg.r1 Reg.r1 8;
  Builder.binop b Instr.Mul Reg.r5 Reg.r4 (Instr.Reg Reg.r9);
  Builder.binop b Instr.Rem Reg.r5 Reg.r5 (Instr.Reg Reg.r7);
  Builder.binop b Instr.Shl Reg.r5 Reg.r5 (Instr.Imm 6);
  Builder.binop b Instr.Add Reg.r5 Reg.r5 (Instr.Reg Reg.r3);
  Builder.label b "probe";
  if manual then begin
    Builder.prefetch b Reg.r5 0;
    Builder.yield b Instr.Primary
  end;
  Builder.load b Reg.r6 Reg.r5 0;
  Builder.branch b Instr.Eq Reg.r6 (Instr.Reg Reg.r4) "found";
  Builder.addi b Reg.r5 Reg.r5 Gen_util.line;
  Builder.branch b Instr.Lt Reg.r5 (Instr.Reg Reg.r10) "probe";
  Builder.mov b Reg.r5 (Instr.Reg Reg.r3);
  Builder.jump b "probe";
  Builder.label b "found";
  Builder.load b Reg.r8 Reg.r5 8;
  Builder.binop b Instr.Add Reg.r15 Reg.r15 (Instr.Reg Reg.r8);
  (* service work happens after the value is folded in, on a scratch
     register, so the checksum stays host-predictable *)
  Gen_util.emit_compute b Reg.r14 compute;
  Builder.opmark b;
  Builder.binop b Instr.Sub Reg.r2 Reg.r2 (Instr.Imm 1);
  Builder.branch b Instr.Gt Reg.r2 (Instr.Imm 0) "next_op";
  Builder.halt b;
  {
    Workload.name = (if manual then name ^ "/manual" else name);
    program = Builder.assemble b;
    image;
    lanes = lane_inits;
    ops_per_lane = ops;
    reset = Workload.no_reset;
  }
