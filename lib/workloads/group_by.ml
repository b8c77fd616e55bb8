open Stallhide_isa
open Stallhide_mem

(* key word + value word *)
let tuple_bytes = 16

let image_bytes ~lanes ~groups ~tuples =
  Gen_util.line
  + (lanes * (Gen_util.round_line (tuples * tuple_bytes) + (groups * Gen_util.line)))

let make ?image ?(manual = false) ?(shared = false) ?(lanes = 8) ?(groups = 4096) ?(tuples = 1000)
    ~seed () =
  if lanes <= 0 || groups <= 1 || tuples <= 0 then invalid_arg "Group_by.make: bad parameters";
  let st = Random.State.make [| seed; 0xc2b2ae35 |] in
  let bytes =
    (lanes * ((tuples * tuple_bytes) + (groups * Gen_util.line))) + (8 * Gen_util.line)
  in
  let image = match image with Some im -> im | None -> Address_space.create ~bytes in
  let (_ : int) = Address_space.alloc image ~bytes:Gen_util.line in
  let resets = ref [] in
  (* lane 0's accumulators when [shared]: later lanes aggregate there
     and only reserve their own range, so every address stays put *)
  let acc0 = ref (-1) in
  let lane_inits =
    Array.init lanes (fun lane ->
        let input = Address_space.alloc image ~bytes:(tuples * tuple_bytes) in
        let acc =
          if shared && lane > 0 then begin
            let (_ : int) = Address_space.reserve image ~bytes:(groups * Gen_util.line) in
            !acc0
          end
          else begin
            let acc = Address_space.alloc image ~bytes:(groups * Gen_util.line) in
            acc0 := acc;
            let init () =
              for g = 0 to groups - 1 do
                Address_space.store image (acc + (g * Gen_util.line)) 0
              done
            in
            resets := init :: !resets;
            acc
          end
        in
        for i = 0 to tuples - 1 do
          Address_space.store image (input + (i * 16)) (Random.State.int st 1000000);
          Address_space.store image (input + (i * 16) + 8) (1 + Random.State.int st 100)
        done;
        [ (Reg.r1, input); (Reg.r2, tuples); (Reg.r3, acc); (Reg.r7, groups) ])
  in
  let b = Builder.create () in
  Builder.label b "tuple_loop";
  Builder.load b Reg.r4 Reg.r1 0;
  (* key *)
  Builder.load b Reg.r5 Reg.r1 8;
  (* value *)
  Builder.addi b Reg.r1 Reg.r1 16;
  Builder.binop b Instr.Rem Reg.r6 Reg.r4 (Instr.Reg Reg.r7);
  Builder.binop b Instr.Shl Reg.r6 Reg.r6 (Instr.Imm 6);
  Builder.binop b Instr.Add Reg.r6 Reg.r6 (Instr.Reg Reg.r3);
  if manual then begin
    Builder.prefetch b Reg.r6 0;
    Builder.yield b Instr.Primary
  end;
  Builder.load b Reg.r8 Reg.r6 0;
  (* accumulator: the miss site *)
  Builder.binop b Instr.Add Reg.r8 Reg.r8 (Instr.Reg Reg.r5);
  Builder.store b Reg.r6 0 Reg.r8;
  Builder.opmark b;
  Builder.binop b Instr.Add Reg.r15 Reg.r15 (Instr.Imm 1);
  Builder.binop b Instr.Sub Reg.r2 Reg.r2 (Instr.Imm 1);
  Builder.branch b Instr.Gt Reg.r2 (Instr.Imm 0) "tuple_loop";
  Builder.halt b;
  let resets = !resets in
  {
    Workload.name = (if manual then "group-by/manual" else "group-by");
    program = Builder.assemble b;
    image;
    lanes = lane_inits;
    ops_per_lane = tuples;
    reset = (fun () -> List.iter (fun f -> f ()) resets);
  }

let acc_base (w : Workload.t) ~lane =
  match List.assoc_opt Reg.r3 w.Workload.lanes.(lane) with
  | Some a -> a
  | None -> invalid_arg "Group_by.acc_base: lane has no accumulator register"
