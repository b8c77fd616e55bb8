(** Run metrics shared by all baselines and experiments.

    CPU efficiency is busy cycles (instruction execution including L1
    hits and condition checks) over total cycles; stalls, context-switch
    cycles and idle time are the inefficiency. Throughput is operations
    per kilocycle. *)

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
  throughput : float;  (** ops per 1000 cycles *)
  latency : Latency.summary option;
}

val of_sched :
  label:string -> ops:int -> ?latency:Latency.summary option -> Scheduler.result -> t

val of_smt :
  label:string -> ops:int -> latency:Latency.summary option -> Stallhide_cpu.Smt.result -> t

(** Speedup of [a] over [b] in completed cycles (b.cycles / a.cycles). *)
val speedup : t -> t -> float

(** Stable machine-readable form: every field of {!t} under its own
    name; [latency] is [null] when absent. *)
val to_json : t -> Stallhide_util.Json.t

val pp : Format.formatter -> t -> unit
