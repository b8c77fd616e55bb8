open Stallhide_isa

type mode = Primary | Scavenger

type status = Ready | Done | Faulted of string

type regfile = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  id : int;
  program : Program.t;
  regs : regfile;
  mutable pc : int;
  mutable status : status;
  mutable mode : mode;
  mutable call_stack : int array;
  mutable call_sp : int;
  mutable domain : (int * int) option;
  mutable accel_done_at : int;  (* -1 = no operation outstanding *)
  mutable accel_result : int;
  mutable instructions : int;
  mutable stall_cycles : int;
  mutable cond_checks : int;
  mutable yields : int;
  mutable started_at : int;
  mutable finished_at : int;
}

let make_regs () =
  let r = Bigarray.Array1.create Bigarray.int Bigarray.c_layout Reg.count in
  Bigarray.Array1.fill r 0;
  r

let create ~id ~mode program =
  {
    id;
    program;
    regs = make_regs ();
    pc = 0;
    status = Ready;
    mode;
    call_stack = Array.make 32 0;
    call_sp = 0;
    domain = None;
    accel_done_at = -1;
    accel_result = 0;
    instructions = 0;
    stall_cycles = 0;
    cond_checks = 0;
    yields = 0;
    started_at = -1;
    finished_at = -1;
  }

let set_regs t l = List.iter (fun (r, v) -> t.regs.{r} <- v) l

let regs_array t = Array.init Reg.count (fun i -> t.regs.{i})

let call_depth t = t.call_sp

let push_call t ret_pc =
  if t.call_sp = Array.length t.call_stack then begin
    let grown = Array.make (2 * t.call_sp) 0 in
    Array.blit t.call_stack 0 grown 0 t.call_sp;
    t.call_stack <- grown
  end;
  t.call_stack.(t.call_sp) <- ret_pc;
  t.call_sp <- t.call_sp + 1

(* Returns the popped pc; caller must check [call_sp > 0] first. *)
let pop_call t =
  t.call_sp <- t.call_sp - 1;
  t.call_stack.(t.call_sp)

let is_ready t = match t.status with Ready -> true | Done | Faulted _ -> false

let reset t =
  t.pc <- 0;
  t.status <- Ready;
  t.call_sp <- 0;
  t.accel_done_at <- -1;
  t.accel_result <- 0;
  t.instructions <- 0;
  t.stall_cycles <- 0;
  t.cond_checks <- 0;
  t.yields <- 0;
  t.started_at <- -1;
  t.finished_at <- -1
