open Stallhide_isa
open Stallhide_util

let groups cfg ~selected ~max_group =
  if max_group < 1 then invalid_arg "Depend.groups: max_group must be >= 1";
  let prog = Cfg.program cfg in
  let out = ref [] in
  let current = ref [] in
  let defined = ref 0 in
  let close () =
    if !current <> [] then out := List.rev !current :: !out;
    current := [];
    defined := 0
  in
  for id = 0 to Cfg.block_count cfg - 1 do
    let b = Cfg.block cfg id in
    for pc = b.Cfg.first to b.Cfg.last do
      let i = Program.instr prog pc in
      match i with
      | Instr.Load (rd, rs, _) when selected pc ->
          if !current <> [] && (Bits.mem !defined rs || List.length !current >= max_group) then
            close ();
          (* the dependence window opens at the group head *)
          if !current = [] then defined := 0;
          current := pc :: !current;
          defined := Bits.add !defined rd
      | Instr.Store _ | Instr.Call _ | Instr.Yield _ | Instr.Yield_cond _ | Instr.Accel_issue _
      | Instr.Accel_wait _ ->
          close ()
      | Instr.Binop _ | Instr.Mov _ | Instr.Load _ | Instr.Prefetch _ | Instr.Branch _
      | Instr.Jump _ | Instr.Ret | Instr.Guard _ | Instr.Opmark | Instr.Nop | Instr.Halt ->
          defined := !defined lor Instr.defs i
    done;
    close ()
  done;
  List.rev !out
