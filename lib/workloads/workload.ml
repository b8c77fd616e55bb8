open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu

type t = {
  name : string;
  program : Program.t;
  image : Address_space.t;
  lanes : (Reg.t * int) list array;
  ops_per_lane : int;
  reset : unit -> unit;
}

let lane_count t = Array.length t.lanes

let context t ~lane ~id ~mode =
  if lane < 0 || lane >= lane_count t then invalid_arg "Workload.context: lane out of range";
  let ctx = Context.create ~id ~mode t.program in
  Context.set_regs ctx t.lanes.(lane);
  ctx

let contexts ?(mode = Context.Primary) t =
  Array.init (lane_count t) (fun lane -> context t ~lane ~id:lane ~mode)

let with_program t program = { t with program }

let no_reset () = ()
