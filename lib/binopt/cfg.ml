open Stallhide_isa

type block = {
  id : int;
  first : int;
  last : int;
  mutable succs : int list;
  mutable preds : int list;
}

type t = { prog : Program.t; blocks : block array; owner : int array }

let build prog =
  let n = Program.length prog in
  let leader = Array.make n false in
  leader.(0) <- true;
  for pc = 0 to n - 1 do
    let i = Program.instr prog pc in
    (match Instr.target i with
    | Some _ -> leader.(Program.resolved_target prog pc) <- true
    | None -> ());
    if Instr.ends_block i && pc + 1 < n then leader.(pc + 1) <- true
  done;
  let firsts = ref [] in
  for pc = n - 1 downto 0 do
    if leader.(pc) then firsts := pc :: !firsts
  done;
  let firsts = Array.of_list !firsts in
  let nb = Array.length firsts in
  let blocks =
    Array.init nb (fun id ->
        let first = firsts.(id) in
        let last = if id + 1 < nb then firsts.(id + 1) - 1 else n - 1 in
        { id; first; last; succs = []; preds = [] })
  in
  let owner = Array.make n 0 in
  Array.iter
    (fun b ->
      for pc = b.first to b.last do
        owner.(pc) <- b.id
      done)
    blocks;
  let add_edge src dst =
    let b = blocks.(src) and b' = blocks.(dst) in
    if not (List.mem dst b.succs) then begin
      b.succs <- dst :: b.succs;
      b'.preds <- src :: b'.preds
    end
  in
  Array.iter
    (fun b ->
      let i = Program.instr prog b.last in
      match i with
      | Instr.Branch _ ->
          add_edge b.id owner.(Program.resolved_target prog b.last);
          if b.last + 1 < n then add_edge b.id owner.(b.last + 1)
      | Instr.Jump _ -> add_edge b.id owner.(Program.resolved_target prog b.last)
      | Instr.Ret | Instr.Halt -> ()
      | Instr.Binop _ | Instr.Mov _ | Instr.Load _ | Instr.Store _ | Instr.Prefetch _
      | Instr.Call _ | Instr.Yield _ | Instr.Yield_cond _ | Instr.Guard _ | Instr.Accel_issue _
      | Instr.Accel_wait _ | Instr.Opmark | Instr.Nop ->
          if b.last + 1 < n then add_edge b.id owner.(b.last + 1))
    blocks;
  { prog; blocks; owner }

let program t = t.prog

let block_count t = Array.length t.blocks

let block t id = t.blocks.(id)

let block_of_pc t pc = t.blocks.(t.owner.(pc))

let is_leader t pc = (block_of_pc t pc).first = pc
