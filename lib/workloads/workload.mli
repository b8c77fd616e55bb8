(** Workload bundles: a program, the memory image it runs against, and
    per-lane initial register values.

    A *lane* is one logical stream of work — one coroutine (or one SMT
    hardware context). All lanes share the program and the image (and
    therefore contend for cache), but start with different registers
    (their own data regions), the way a batch of database lookups or KV
    requests shares code and heap.

    Generators take a [manual] flag: the manual variant carries
    developer-inserted [prefetch; yield] pairs at the loads a domain
    expert would annotate (the CoroBase-style baseline); the default
    variant is clean code for the profile-guided pipeline to
    instrument. *)

open Stallhide_isa
open Stallhide_mem
open Stallhide_cpu

type t = {
  name : string;
  program : Program.t;
  image : Address_space.t;
  lanes : (Reg.t * int) list array;  (** initial registers per lane *)
  ops_per_lane : int;
  reset : unit -> unit;
      (** restore any image state the program mutates (visited flags,
          accumulators); read-only workloads use {!no_reset}. Runners
          call it between a profiling run and the measured run. *)
}

val lane_count : t -> int

(** [context t ~lane ~id ~mode] builds a ready context for one lane.
    @raise Invalid_argument if [lane] is out of range. *)
val context : t -> lane:int -> id:int -> mode:Context.mode -> Context.t

(** Contexts for every lane, ids [0..lanes-1]. *)
val contexts : ?mode:Context.mode -> t -> Context.t array

(** Replace the program (e.g. by its instrumented version). *)
val with_program : t -> Program.t -> t

(** The no-op reset for read-only workloads. *)
val no_reset : unit -> unit
