open Stallhide_runtime

type t = {
  label : string;
  cycles : int;
  busy : int;
  stall : int;
  switch_cycles : int;
  switches : int;
  instructions : int;
  ops : int;
  efficiency : float;
  throughput : float;
  latency : Latency.summary option;
}

let throughput_of ~ops ~cycles =
  if cycles = 0 then 0.0 else 1000.0 *. float_of_int ops /. float_of_int cycles

let of_sched ~label ~ops ?(latency = None) (r : Scheduler.result) =
  {
    label;
    cycles = r.Scheduler.cycles;
    busy = Scheduler.busy r;
    stall = r.Scheduler.stall;
    switch_cycles = r.Scheduler.switch_cycles;
    switches = r.Scheduler.switches;
    instructions = r.Scheduler.instructions;
    ops;
    efficiency = Scheduler.efficiency r;
    throughput = throughput_of ~ops ~cycles:r.Scheduler.cycles;
    latency;
  }

let of_smt ~label ~ops ~latency (r : Stallhide_cpu.Smt.result) =
  {
    label;
    cycles = r.Stallhide_cpu.Smt.cycles;
    busy = r.Stallhide_cpu.Smt.busy;
    stall = r.Stallhide_cpu.Smt.idle;
    switch_cycles = 0;
    switches = 0;
    instructions = r.Stallhide_cpu.Smt.instructions;
    ops;
    efficiency =
      (if r.Stallhide_cpu.Smt.cycles = 0 then 1.0
       else float_of_int r.Stallhide_cpu.Smt.busy /. float_of_int r.Stallhide_cpu.Smt.cycles);
    throughput = throughput_of ~ops ~cycles:r.Stallhide_cpu.Smt.cycles;
    latency;
  }

let speedup a b = if a.cycles = 0 then infinity else float_of_int b.cycles /. float_of_int a.cycles

let to_json t =
  let open Stallhide_util in
  Json.Obj
    [
      ("label", Json.String t.label);
      ("cycles", Json.Int t.cycles);
      ("busy", Json.Int t.busy);
      ("stall", Json.Int t.stall);
      ("switch_cycles", Json.Int t.switch_cycles);
      ("switches", Json.Int t.switches);
      ("instructions", Json.Int t.instructions);
      ("ops", Json.Int t.ops);
      ("efficiency", Json.Float t.efficiency);
      ("throughput", Json.Float t.throughput);
      ("latency", match t.latency with Some s -> Latency.summary_to_json s | None -> Json.Null);
    ]

let pp fmt t =
  Format.fprintf fmt "%-24s cycles=%-10d eff=%5.3f tput=%7.3f ops/kcyc stall=%d switch=%d" t.label
    t.cycles t.efficiency t.throughput t.stall t.switch_cycles;
  match t.latency with
  | Some s -> Format.fprintf fmt " lat[%a]" Latency.pp_summary s
  | None -> ()
