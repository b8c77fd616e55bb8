(** Seeded typed random-program generator over the ISA.

    Programs are generated under a register/region discipline that makes
    them well-formed {e by construction} — the properties every oracle
    in this library relies on:

    - {b termination}: control flow is forward branches plus
      counted-down loops with reserved counter registers the loop body
      never writes, so every program halts on every input;
    - {b memory safety}: loads and stores only ever address two regions
      of the image — a shared read-only {e pointer arena} whose every
      word holds the base address of some arena node (closed under
      dereference), and a per-lane private {e data region} — so no
      access can fault and no two lanes ever write the same word;
    - {b interleaving independence}: because write sets are
      lane-private and the pointer arena is read-only, the final
      architectural state is the same under any scheduling of the
      lanes — which is exactly what lets the differential oracles
      compare sequential, round-robin and N-core executions;
    - {b no undefined operations}: divide/remainder operands are
      nonzero immediates, so verifier-clean programs never trap.

    Everything is a pure function of the configuration: same [cfg],
    same program, same image contents, same lane registers. *)

open Stallhide_isa
open Stallhide_workloads

(** Register convention (documented so shrunken repro files stay
    readable): [r0] pointer-arena node (read-only), [r1] lane-private
    data base (read-only), [r2]/[r3] pointer registers (always hold a
    valid node base), [r4]–[r7] scratch data registers, [r8]/[r9]
    reserved loop counters. *)

type cfg = {
  lanes : int;  (** concurrent lanes (>= 1) *)
  ops : int;  (** opmark-delimited operations per lane *)
  ptr_nodes : int;  (** pointer-arena nodes (one 64-byte line each) *)
  data_words : int;  (** private data words per lane *)
  max_loop : int;  (** max trip count of generated loops *)
  stores : bool;  (** allow stores (off for scavenger co-runners) *)
  cores : int;  (** SMP-oracle core count for the variant arm *)
  scavenger_interval : int;  (** scavenger-pass target inter-yield interval *)
  policy_ix : int;  (** primary-pass policy: 0 always, 1 cost-benefit, 2 threshold *)
  seed : int;
}

type case = { cfg : cfg; program : Program.t }

(** Deterministic program for this configuration (drawn from
    [cfg.seed], independent of the image stream). *)
val program : cfg -> Program.t

(** [case ~seed] draws a configuration (sizes, shapes, knobs) from
    [seed] and generates its program. *)
val case : ?base:cfg -> seed:int -> unit -> case

(** [workload cfg prog] builds a {e fresh} workload instance: new image
    (pointer arena + per-lane data regions, contents drawn from
    [cfg.seed]), per-lane initial registers, [prog] as the binary.
    Arms of a differential oracle must each call this — runs mutate the
    image. [prog] defaults to {!program}[ cfg], so a shrunken or
    mutated replacement can be rebound to the identical environment. *)
val workload : ?prog:Program.t -> cfg -> Workload.t

val cfg_to_json : cfg -> Stallhide_util.Json.t

(** @raise Invalid_argument on a malformed or incomplete encoding. *)
val cfg_of_json : Stallhide_util.Json.t -> cfg
