let base = function
  | Instr.Binop ((Instr.Mul | Instr.Shl | Instr.Shr), _, _, _) -> 3
  | Instr.Binop ((Instr.Div | Instr.Rem), _, _, _) -> 12
  | Instr.Binop (_, _, _, _) -> 1
  | Instr.Mov _ -> 1
  | Instr.Load _ -> 1  (* plus memory latency, charged by the engine *)
  | Instr.Store _ -> 1  (* store-buffer model: write latency is hidden *)
  | Instr.Prefetch _ -> 1
  | Instr.Branch _ | Instr.Jump _ | Instr.Call _ | Instr.Ret -> 1
  | Instr.Yield _ -> 0  (* switch cost charged by the scheduler *)
  | Instr.Yield_cond _ -> 0  (* check cost charged by the engine *)
  | Instr.Guard _ -> 1
  | Instr.Accel_issue _ -> 1
  | Instr.Accel_wait _ -> 1  (* plus remaining accelerator latency *)
  | Instr.Opmark -> 0
  | Instr.Nop -> 1
  | Instr.Halt -> 0
