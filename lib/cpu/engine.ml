open Stallhide_isa
open Stallhide_mem

type config = {
  hooks : Events.t;
  cond_check_cost : int;
  ooo_window : int;
  load_block_threshold : int option;
  stall_shape : (pc:int -> stall:int -> int) option;
  fast : bool;
  probe : Probe.t option;
}

let default_config =
  {
    hooks = Events.nop;
    cond_check_cost = 1;
    ooo_window = 0;
    load_block_threshold = None;
    stall_shape = None;
    fast = true;
    probe = None;
  }

let shape_stall cfg ~pc stall =
  match cfg.stall_shape with Some f -> max 0 (f ~pc ~stall) | None -> stall

type stop =
  | Halted
  | Yielded of Instr.yield_kind * int
  | Out_of_budget
  | Fault of string

type step_result = Normal | Blocked_until of int | Stop of stop

(* The accelerator's deterministic transform: tests and workload
   oracles recompute it host-side. *)
let accel_transform v = (v * 2654435761) lxor (v asr 7)

let max_call_depth = 4096

let fault (ctx : Context.t) fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.status <- Context.Faulted msg;
      Stop (Fault msg))
    fmt

let operand_value (ctx : Context.t) = function
  | Instr.Reg r -> ctx.regs.{r}
  | Instr.Imm i -> i

let eval_binop op a b =
  match op with
  | Instr.Add -> Some (a + b)
  | Instr.Sub -> Some (a - b)
  | Instr.Mul -> Some (a * b)
  | Instr.Div -> if b = 0 then None else Some (a / b)
  | Instr.Rem -> if b = 0 then None else Some (a mod b)
  | Instr.And -> Some (a land b)
  | Instr.Or -> Some (a lor b)
  | Instr.Xor -> Some (a lxor b)
  | Instr.Shl -> Some (a lsl (b land 63))
  | Instr.Shr -> Some (a asr (b land 63))

let eval_cond c a b =
  match c with
  | Instr.Eq -> a = b
  | Instr.Ne -> a <> b
  | Instr.Lt -> a < b
  | Instr.Le -> a <= b
  | Instr.Gt -> a > b
  | Instr.Ge -> a >= b

let step cfg hier mem ~clock (ctx : Context.t) =
  let program = ctx.program in
  if ctx.pc < 0 || ctx.pc >= Program.length program then
    fault ctx "pc %d out of range" ctx.pc
  else begin
    if ctx.started_at < 0 then ctx.started_at <- !clock;
    let pc = ctx.pc in
    let i = Program.instr program pc in
    ctx.instructions <- ctx.instructions + 1;
    let id = ctx.id in
    (* front-end: instruction fetch may stall on an icache miss *)
    let fstall = Hierarchy.fetch hier ~now:!clock pc in
    if fstall > 0 then begin
      clock := !clock + fstall;
      ctx.stall_cycles <- ctx.stall_cycles + fstall;
      cfg.hooks.on_frontend_stall ~ctx:id ~pc ~cycles:fstall ~cycle:!clock
    end;
    let advance cost = clock := !clock + cost in
    let retire () = cfg.hooks.on_retire ~ctx:id ~pc ~instr:i ~cycle:!clock in
    let next () = ctx.pc <- pc + 1 in
    (* Demand load: returns the paid cost and remaining stall after the
       OoO window, firing load/stall hooks. *)
    let demand_load addr =
      let r = Hierarchy.access hier ~now:!clock addr in
      (* The stall shape rewrites the miss penalty charged at this pc —
         counterfactual zeroing or ground-truth inflation — without
         touching cache state or control flow. *)
      let stall = shape_stall cfg ~pc r.stall in
      let latency = r.latency + (stall - r.stall) in
      let hidden = min cfg.ooo_window stall in
      let paid_stall = stall - hidden in
      let cost = Cost.base i + latency - hidden in
      (cost, paid_stall, r.level, min r.queued paid_stall)
    in
    match i with
    | Instr.Binop (op, rd, rs, o) -> (
        match eval_binop op ctx.regs.{rs} (operand_value ctx o) with
        | None -> fault ctx "division by zero at pc %d" pc
        | Some v ->
            ctx.regs.{rd} <- v;
            advance (Cost.base i);
            next ();
            retire ();
            Normal)
    | Instr.Mov (rd, o) ->
        ctx.regs.{rd} <- operand_value ctx o;
        advance (Cost.base i);
        next ();
        retire ();
        Normal
    | Instr.Load (rd, rs, disp) ->
        let addr = ctx.regs.{rs} + disp in
        if not (Address_space.valid_addr mem addr) then
          fault ctx "load from invalid address %d at pc %d" addr pc
        else begin
          let cost, paid_stall, level, queue = demand_load addr in
          ctx.regs.{rd} <- Address_space.load mem addr;
          next ();
          match cfg.load_block_threshold with
          | Some thr when paid_stall > thr ->
              (* SMT: charge issue + L1 latency, block until data arrives. *)
              let issue_cost = cost - paid_stall in
              let data_at = !clock + cost in
              advance issue_cost;
              cfg.hooks.on_load
                { ctx = id; pc; addr; level; stall = paid_stall; queue; cycle = !clock };
              retire ();
              Blocked_until data_at
          | Some _ | None ->
              advance cost;
              ctx.stall_cycles <- ctx.stall_cycles + paid_stall;
              cfg.hooks.on_load
                { ctx = id; pc; addr; level; stall = paid_stall; queue; cycle = !clock };
              if paid_stall > 0 then
                cfg.hooks.on_stall ~ctx:id ~pc ~cycles:paid_stall ~cycle:!clock;
              retire ();
              Normal
        end
    | Instr.Store (rs, disp, rv) ->
        let addr = ctx.regs.{rs} + disp in
        if not (Address_space.valid_addr mem addr) then
          fault ctx "store to invalid address %d at pc %d" addr pc
        else begin
          Address_space.store mem addr ctx.regs.{rv};
          Hierarchy.write hier ~now:!clock addr;
          advance (Cost.base i);
          next ();
          retire ();
          Normal
        end
    | Instr.Prefetch (rs, disp) ->
        let addr = ctx.regs.{rs} + disp in
        (* Like hardware, prefetch of a bad address is a silent no-op. *)
        if Address_space.valid_addr mem addr then Hierarchy.prefetch hier ~now:!clock addr;
        advance (Hierarchy.config hier).prefetch_issue_cost;
        next ();
        retire ();
        Normal
    | Instr.Branch (c, rs, o, _) ->
        let taken = eval_cond c ctx.regs.{rs} (operand_value ctx o) in
        let target = Program.resolved_target program pc in
        advance (Cost.base i);
        ctx.pc <- (if taken then target else pc + 1);
        cfg.hooks.on_branch ~ctx:id ~pc ~target:ctx.pc ~taken ~cycle:!clock;
        retire ();
        Normal
    | Instr.Jump _ ->
        let target = Program.resolved_target program pc in
        advance (Cost.base i);
        ctx.pc <- target;
        cfg.hooks.on_branch ~ctx:id ~pc ~target ~taken:true ~cycle:!clock;
        retire ();
        Normal
    | Instr.Call _ ->
        if Context.call_depth ctx >= max_call_depth then
          fault ctx "call stack overflow at pc %d" pc
        else begin
          Context.push_call ctx (pc + 1);
          let target = Program.resolved_target program pc in
          advance (Cost.base i);
          ctx.pc <- target;
          cfg.hooks.on_branch ~ctx:id ~pc ~target ~taken:true ~cycle:!clock;
          retire ();
          Normal
        end
    | Instr.Ret ->
        if Context.call_depth ctx = 0 then fault ctx "ret with empty call stack at pc %d" pc
        else begin
          let ret_pc = Context.pop_call ctx in
          advance (Cost.base i);
          ctx.pc <- ret_pc;
          cfg.hooks.on_branch ~ctx:id ~pc ~target:ret_pc ~taken:true ~cycle:!clock;
          retire ();
          Normal
        end
    | Instr.Yield Instr.Primary ->
        ctx.yields <- ctx.yields + 1;
        next ();
        cfg.hooks.on_yield ~ctx:id ~pc ~kind:Instr.Primary ~fired:true ~cycle:!clock;
        retire ();
        Stop (Yielded (Instr.Primary, pc))
    | Instr.Yield Instr.Scavenger ->
        if ctx.mode = Context.Scavenger then begin
          ctx.yields <- ctx.yields + 1;
          next ();
          cfg.hooks.on_yield ~ctx:id ~pc ~kind:Instr.Scavenger ~fired:true ~cycle:!clock;
          retire ();
          Stop (Yielded (Instr.Scavenger, pc))
        end
        else begin
          (* Conditional yield switched off: pay the check and move on. *)
          ctx.cond_checks <- ctx.cond_checks + 1;
          advance cfg.cond_check_cost;
          next ();
          cfg.hooks.on_yield ~ctx:id ~pc ~kind:Instr.Scavenger ~fired:false ~cycle:!clock;
          retire ();
          Normal
        end
    | Instr.Yield_cond (rs, disp) ->
        let addr = ctx.regs.{rs} + disp in
        ctx.cond_checks <- ctx.cond_checks + 1;
        advance cfg.cond_check_cost;
        let resident =
          (not (Address_space.valid_addr mem addr))
          ||
          match Hierarchy.resident hier ~now:!clock addr with
          | Some (Hierarchy.L1 | Hierarchy.L2) -> true
          | Some (Hierarchy.L3 | Hierarchy.Dram) | None -> false
        in
        next ();
        if resident then begin
          cfg.hooks.on_yield ~ctx:id ~pc ~kind:Instr.Primary ~fired:false ~cycle:!clock;
          retire ();
          Normal
        end
        else begin
          Hierarchy.prefetch hier ~now:!clock addr;
          advance (Hierarchy.config hier).prefetch_issue_cost;
          ctx.yields <- ctx.yields + 1;
          cfg.hooks.on_yield ~ctx:id ~pc ~kind:Instr.Primary ~fired:true ~cycle:!clock;
          retire ();
          Stop (Yielded (Instr.Primary, pc))
        end
    | Instr.Accel_issue (rs, disp) ->
        if ctx.accel_done_at >= 0 then fault ctx "accelerator busy at pc %d" pc
        else
          let addr = ctx.regs.{rs} + disp in
          if not (Address_space.valid_addr mem addr) then
            fault ctx "accelerator operand at invalid address %d (pc %d)" addr pc
          else begin
            advance (Cost.base i);
            ctx.accel_result <- accel_transform (Address_space.load mem addr);
            ctx.accel_done_at <- !clock + (Hierarchy.config hier).accel_latency;
            next ();
            retire ();
            Normal
          end
    | Instr.Accel_wait rd ->
        if ctx.accel_done_at < 0 then fault ctx "accelerator wait with no operation at pc %d" pc
        else begin
          let remaining = shape_stall cfg ~pc (max 0 (ctx.accel_done_at - !clock)) in
          let hidden = min cfg.ooo_window remaining in
          let paid = remaining - hidden in
          ctx.regs.{rd} <- ctx.accel_result;
          ctx.accel_done_at <- -1;
          next ();
          match cfg.load_block_threshold with
          | Some thr when paid > thr ->
              let data_at = !clock + Cost.base i + paid in
              advance (Cost.base i);
              retire ();
              Blocked_until data_at
          | Some _ | None ->
              advance (Cost.base i + paid);
              ctx.stall_cycles <- ctx.stall_cycles + paid;
              if paid > 0 then cfg.hooks.on_stall ~ctx:id ~pc ~cycles:paid ~cycle:!clock;
              retire ();
              Normal
        end
    | Instr.Guard (rs, disp) ->
        let addr = ctx.regs.{rs} + disp in
        advance (Cost.base i);
        let ok =
          match ctx.domain with Some (lo, hi) -> addr >= lo && addr < hi | None -> true
        in
        if ok then begin
          next ();
          retire ();
          Normal
        end
        else fault ctx "sfi violation: address %d outside domain at pc %d" addr pc
    | Instr.Opmark ->
        next ();
        cfg.hooks.on_opmark ~ctx:id ~pc ~cycle:!clock;
        retire ();
        Normal
    | Instr.Nop ->
        advance (Cost.base i);
        next ();
        retire ();
        Normal
    | Instr.Halt ->
        ctx.status <- Context.Done;
        ctx.finished_at <- !clock;
        retire ();
        Stop Halted
  end

let run_reference cfg hier mem ~clock ~deadline (ctx : Context.t) =
  let rec loop () =
    match ctx.status with
    | Context.Done -> Halted
    | Context.Faulted msg -> Fault msg
    | Context.Ready ->
        if !clock >= deadline then Out_of_budget
        else begin
          match step cfg hier mem ~clock ctx with
          | Normal -> loop ()
          | Blocked_until w ->
              (* Single-context fallback: nothing else to run, wait it out. *)
              if w > !clock then begin
                ctx.stall_cycles <- ctx.stall_cycles + (w - !clock);
                clock := w
              end;
              loop ()
          | Stop s -> s
        end
  in
  loop ()

(* Exit of the fast loop on a fault: sync the clock and pc back. *)
let fast_fault ~clock (ctx : Context.t) now pc msg =
  clock := now;
  ctx.pc <- pc;
  ctx.status <- Context.Faulted msg;
  Fault msg

(* A taken control transfer in the fast loop, for the probe's LBRs. *)
let[@inline] probe_branch probe (ctx : Context.t) ~pc ~target ~cycle =
  match probe with
  | Some p -> Probe.branch p ~instructions:ctx.instructions ~from_pc:pc ~to_pc:target ~cycle
  | None -> ()

(* The fast path: one monolithic loop over the decoded micro-op arrays,
   no per-cycle heap allocation (no closures, no tuples, no hook
   records). Engaged by [run] only when every per-instruction hook is
   [Events.nop]'s (by physical equality) and no stall shape is armed, so
   nothing observable differs from [run_reference]: the cycle
   accounting below mirrors the reference instruction-for-instruction,
   and [test_engine_diff] holds the two bit-identical. The one hook it
   does fire is [on_opmark], with the arguments [step] passes.

   [load_block_threshold] needs no special casing here: at run level a
   [Blocked_until] is waited out immediately, which lands the same
   clock and stall_cycles as the unblocked branch (issue cost + wait =
   full cost, paid stall accounted either way) — the split only
   matters to an SMT scheduler driving [step] itself. The probe, which
   does see the split, gets the threshold in [Probe.start].

   A probe is read at loads, paid stalls and taken branches only, with
   the cycle [step] would pass its hooks; without one each of those
   paths pays one test of [probe]. [exec] is allocated per call, so
   every value it captures costs a word per call: read rarely used
   ones through [ctx] or [hier] instead. *)
let run_fast cfg hier mem ~clock ~deadline (ctx : Context.t) =
  let u = Program.uops ctx.program in
  let ops = u.Uop.op
  and ra = u.Uop.a
  and rb = u.Uop.b
  and rc = u.Uop.c
  and ucost = u.Uop.cost
  and utarget = u.Uop.target in
  let plen = u.Uop.len in
  let regs = ctx.regs in
  let on_opmark = cfg.hooks.Events.on_opmark in
  let probe = cfg.probe in
  let mcfg = Hierarchy.config hier in
  let l1_latency = mcfg.Memconfig.l1.latency in
  let pf_cost = mcfg.Memconfig.prefetch_issue_cost in
  let cond_cost = cfg.cond_check_cost in
  let ooo = cfg.ooo_window in
  (* With the icache disabled (the default) [Hierarchy.fetch] always
     returns 0; hoisting the test saves a call per instruction. *)
  let fetch_on = match mcfg.Memconfig.icache with Some _ -> true | None -> false in
  (* [now] and [pc] ride in registers through the tail-recursive loop
     instead of bouncing off the [clock] ref and [ctx.pc] field on
     every instruction; every exit point below syncs them back. *)
  let rec exec now pc =
    if now >= deadline then begin
      clock := now;
      ctx.pc <- pc;
      Out_of_budget
    end
    else if pc < 0 || pc >= plen then
      fast_fault ~clock ctx now pc (Printf.sprintf "pc %d out of range" pc)
    else begin
      if ctx.started_at < 0 then ctx.started_at <- now;
      ctx.instructions <- ctx.instructions + 1;
      let now =
        if fetch_on then begin
          let fstall = Hierarchy.fetch hier ~now pc in
          if fstall > 0 then begin
            ctx.stall_cycles <- ctx.stall_cycles + fstall;
            match probe with
            | Some p -> Probe.frontend p ~pc ~stall:fstall ~cycle:(now + fstall)
            | None -> ()
          end;
          now + fstall
        end
        else now
      in
      let op = Array.unsafe_get ops pc in
      if op < Uop.op_mov_r then begin
        (* binop, register or immediate form *)
        let lhs = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) in
        let c = Array.unsafe_get rc pc in
        let rhs = if op >= Uop.op_binop_imm then c else Bigarray.Array1.unsafe_get regs c in
        let bi = if op >= Uop.op_binop_imm then op - Uop.op_binop_imm else op in
        if bi >= 3 && bi <= 4 && rhs = 0 then
          fast_fault ~clock ctx now pc (Printf.sprintf "division by zero at pc %d" pc)
        else begin
          let v =
            match bi with
            | 0 -> lhs + rhs
            | 1 -> lhs - rhs
            | 2 -> lhs * rhs
            | 3 -> lhs / rhs
            | 4 -> lhs mod rhs
            | 5 -> lhs land rhs
            | 6 -> lhs lor rhs
            | 7 -> lhs lxor rhs
            | 8 -> lhs lsl (rhs land 63)
            | _ -> lhs asr (rhs land 63)
          in
          Bigarray.Array1.unsafe_set regs (Array.unsafe_get ra pc) v;
          exec (now + Array.unsafe_get ucost pc) (pc + 1)
        end
      end
      else if op >= Uop.op_branch_reg && op < Uop.op_jump then begin
        let lhs = Bigarray.Array1.unsafe_get regs (Array.unsafe_get ra pc) in
        let c = Array.unsafe_get rc pc in
        let rhs = if op >= Uop.op_branch_imm then c else Bigarray.Array1.unsafe_get regs c in
        let ci =
          if op >= Uop.op_branch_imm then op - Uop.op_branch_imm else op - Uop.op_branch_reg
        in
        let taken =
          match ci with
          | 0 -> lhs = rhs
          | 1 -> lhs <> rhs
          | 2 -> lhs < rhs
          | 3 -> lhs <= rhs
          | 4 -> lhs > rhs
          | _ -> lhs >= rhs
        in
        let now = now + Array.unsafe_get ucost pc in
        if taken then begin
          let target = Array.unsafe_get utarget pc in
          probe_branch probe ctx ~pc ~target ~cycle:now;
          exec now target
        end
        else exec now (pc + 1)
      end
      else if op = Uop.op_mov_r then begin
        Bigarray.Array1.unsafe_set regs (Array.unsafe_get ra pc)
          (Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc));
        exec (now + Array.unsafe_get ucost pc) (pc + 1)
      end
      else if op = Uop.op_mov_i then begin
        Bigarray.Array1.unsafe_set regs (Array.unsafe_get ra pc) (Array.unsafe_get rc pc);
        exec (now + Array.unsafe_get ucost pc) (pc + 1)
      end
      else if op = Uop.op_load then begin
        let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
        if not (Address_space.valid_addr mem addr) then
          fast_fault ~clock ctx now pc
            (Printf.sprintf "load from invalid address %d at pc %d" addr pc)
        else begin
          let latency = Hierarchy.access_latency hier ~now addr in
          let stall = latency - l1_latency in
          let stall = if stall > 0 then stall else 0 in
          let hidden = if ooo < stall then ooo else stall in
          let paid = stall - hidden in
          Bigarray.Array1.unsafe_set regs (Array.unsafe_get ra pc)
            (Address_space.unsafe_load mem addr);
          ctx.stall_cycles <- ctx.stall_cycles + paid;
          let now = now + Array.unsafe_get ucost pc + latency - hidden in
          (match probe with
          | Some p ->
              Probe.load p ~pc ~addr ~level:(Hierarchy.last_level hier) ~stall:paid ~cycle:now
          | None -> ());
          exec now (pc + 1)
        end
      end
      else if op = Uop.op_store then begin
        let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
        if not (Address_space.valid_addr mem addr) then
          fast_fault ~clock ctx now pc
            (Printf.sprintf "store to invalid address %d at pc %d" addr pc)
        else begin
          Address_space.unsafe_store mem addr
            (Bigarray.Array1.unsafe_get regs (Array.unsafe_get ra pc));
          Hierarchy.write hier ~now addr;
          exec (now + Array.unsafe_get ucost pc) (pc + 1)
        end
      end
      else if op = Uop.op_prefetch then begin
        let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
        if Address_space.valid_addr mem addr then Hierarchy.prefetch hier ~now addr;
        exec (now + pf_cost) (pc + 1)
      end
      else if op = Uop.op_jump then begin
        let target = Array.unsafe_get utarget pc in
        let now = now + Array.unsafe_get ucost pc in
        probe_branch probe ctx ~pc ~target ~cycle:now;
        exec now target
      end
      else if op = Uop.op_call then begin
        if Context.call_depth ctx >= max_call_depth then
          fast_fault ~clock ctx now pc (Printf.sprintf "call stack overflow at pc %d" pc)
        else begin
          Context.push_call ctx (pc + 1);
          let target = Array.unsafe_get utarget pc in
          let now = now + Array.unsafe_get ucost pc in
          probe_branch probe ctx ~pc ~target ~cycle:now;
          exec now target
        end
      end
      else if op = Uop.op_ret then begin
        if Context.call_depth ctx = 0 then
          fast_fault ~clock ctx now pc (Printf.sprintf "ret with empty call stack at pc %d" pc)
        else begin
          let target = Context.pop_call ctx in
          let now = now + Array.unsafe_get ucost pc in
          probe_branch probe ctx ~pc ~target ~cycle:now;
          exec now target
        end
      end
      else if op = Uop.op_yield_primary then begin
        ctx.yields <- ctx.yields + 1;
        clock := now;
        ctx.pc <- pc + 1;
        Yielded (Instr.Primary, pc)
      end
      else if op = Uop.op_yield_scavenger then begin
        if ctx.mode = Context.Scavenger then begin
          ctx.yields <- ctx.yields + 1;
          clock := now;
          ctx.pc <- pc + 1;
          Yielded (Instr.Scavenger, pc)
        end
        else begin
          ctx.cond_checks <- ctx.cond_checks + 1;
          exec (now + cond_cost) (pc + 1)
        end
      end
      else if op = Uop.op_yield_cond then begin
        let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
        ctx.cond_checks <- ctx.cond_checks + 1;
        let now = now + cond_cost in
        let resident =
          (not (Address_space.valid_addr mem addr))
          ||
          let rcode = Hierarchy.resident_code hier ~now addr in
          rcode >= 0 && rcode <= 1
        in
        if resident then exec now (pc + 1)
        else begin
          Hierarchy.prefetch hier ~now addr;
          ctx.yields <- ctx.yields + 1;
          clock := now + pf_cost;
          ctx.pc <- pc + 1;
          Yielded (Instr.Primary, pc)
        end
      end
      else if op = Uop.op_guard then begin
        let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
        let now = now + Array.unsafe_get ucost pc in
        let ok =
          match ctx.domain with Some (lo, hi) -> addr >= lo && addr < hi | None -> true
        in
        if ok then exec now (pc + 1)
        else
          fast_fault ~clock ctx now pc
            (Printf.sprintf "sfi violation: address %d outside domain at pc %d" addr pc)
      end
      else if op = Uop.op_accel_issue then begin
        if ctx.accel_done_at >= 0 then
          fast_fault ~clock ctx now pc (Printf.sprintf "accelerator busy at pc %d" pc)
        else
          let addr = Bigarray.Array1.unsafe_get regs (Array.unsafe_get rb pc) + Array.unsafe_get rc pc in
          if not (Address_space.valid_addr mem addr) then
            fast_fault ~clock ctx now pc
              (Printf.sprintf "accelerator operand at invalid address %d (pc %d)" addr pc)
          else begin
            let now = now + Array.unsafe_get ucost pc in
            ctx.accel_result <- accel_transform (Address_space.unsafe_load mem addr);
            ctx.accel_done_at <- now + (Hierarchy.config hier).accel_latency;
            exec now (pc + 1)
          end
      end
      else if op = Uop.op_accel_wait then begin
        if ctx.accel_done_at < 0 then
          fast_fault ~clock ctx now pc
            (Printf.sprintf "accelerator wait with no operation at pc %d" pc)
        else begin
          let remaining = ctx.accel_done_at - now in
          let remaining = if remaining > 0 then remaining else 0 in
          let hidden = if ooo < remaining then ooo else remaining in
          let paid = remaining - hidden in
          Bigarray.Array1.unsafe_set regs (Array.unsafe_get ra pc) ctx.accel_result;
          ctx.accel_done_at <- -1;
          ctx.stall_cycles <- ctx.stall_cycles + paid;
          let now = now + Array.unsafe_get ucost pc + paid in
          (match probe with Some p -> Probe.wait p ~pc ~stall:paid ~cycle:now | None -> ());
          exec now (pc + 1)
        end
      end
      else if op = Uop.op_opmark then begin
        (* [now] is already past any front-end stall, as [!clock] is
           when [step] fires the hook. *)
        on_opmark ~ctx:ctx.id ~pc ~cycle:now;
        exec now (pc + 1)
      end
      else if op = Uop.op_nop then exec (now + Array.unsafe_get ucost pc) (pc + 1)
      else begin
        (* halt *)
        ctx.status <- Context.Done;
        ctx.finished_at <- now;
        clock := now;
        ctx.pc <- pc;
        Halted
      end
    end
  in
  match ctx.status with
  | Context.Done -> Halted
  | Context.Faulted msg -> Fault msg
  | Context.Ready -> (
      match probe with
      | None -> exec !clock ctx.pc
      | Some p ->
          let block = match cfg.load_block_threshold with Some t -> t | None -> max_int in
          Probe.start p ~instructions:ctx.instructions ~length:plen ~block;
          let stop = exec !clock ctx.pc in
          (* Every fault but "pc out of range" counted an instruction
             that never retired. *)
          let unretired =
            match stop with Fault _ when ctx.pc >= 0 && ctx.pc < plen -> 1 | _ -> 0
          in
          Probe.finish p ~retired:(ctx.instructions - unretired);
          stop)

let fast_engaged cfg =
  let h = cfg.hooks and n = Events.nop in
  cfg.fast
  && h.on_retire == n.on_retire
  && h.on_load == n.on_load
  && h.on_branch == n.on_branch
  && h.on_stall == n.on_stall
  && h.on_frontend_stall == n.on_frontend_stall
  && h.on_yield == n.on_yield
  && match cfg.stall_shape with None -> true | Some _ -> false

(* A probe is read only by the µop loop; anywhere else it would be
   silently ignored. Checked once per call. *)
let refuse_probe name cfg =
  match cfg.probe with
  | Some _ ->
      invalid_arg
        (name
       ^ ": a probe needs the decoded-µop loop (fast, no stall_shape, no per-instruction \
          hook)")
  | None -> ()

let run cfg hier mem ~clock ?(deadline = max_int) (ctx : Context.t) =
  if fast_engaged cfg then run_fast cfg hier mem ~clock ~deadline ctx
  else begin
    refuse_probe "Engine.run" cfg;
    run_reference cfg hier mem ~clock ~deadline ctx
  end

let run_reference cfg hier mem ~clock ?(deadline = max_int) (ctx : Context.t) =
  refuse_probe "Engine.run_reference" cfg;
  run_reference cfg hier mem ~clock ~deadline ctx

let step cfg hier mem ~clock (ctx : Context.t) =
  refuse_probe "Engine.step" cfg;
  step cfg hier mem ~clock ctx

let pp_stop fmt = function
  | Halted -> Format.pp_print_string fmt "halted"
  | Yielded (Instr.Primary, pc) -> Format.fprintf fmt "yielded(primary@%d)" pc
  | Yielded (Instr.Scavenger, pc) -> Format.fprintf fmt "yielded(scavenger@%d)" pc
  | Out_of_budget -> Format.pp_print_string fmt "out-of-budget"
  | Fault m -> Format.fprintf fmt "fault(%s)" m
