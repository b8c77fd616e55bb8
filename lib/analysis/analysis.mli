(** Whole-program static cache analysis: the profile-free answer to
    "software cannot see cache misses".

    Runs the combined value + must/may cache fixpoint over the CFG,
    classifies every load and store as always-hit / always-miss /
    unknown against the configured {!Stallhide_mem.Memconfig}, infers
    counted-loop trip counts, and packages the results for the
    placement layer ({!to_classifier}), the drift defense
    ({!always_miss_pcs}) and the CLI/CI reports ({!to_json},
    {!pp_table}, {!strict_violations}). *)

open Stallhide_isa
open Stallhide_mem
open Stallhide_binopt

type kind = Load | Store

type site = {
  pc : int;
  kind : kind;
  base : Reg.t;  (** syntactic base register of the access *)
  disp : int;
  cls : Cache_domain.cls;
  key : Cache_domain.Key.t option;  (** resolved abstract line, if any *)
  in_loop : bool;  (** inside some natural loop ("hot") *)
}

type t = {
  program : Program.t;
  mem : Memconfig.t;
  converged : bool;
      (** false: fixpoint cap hit; every site degraded to Unknown *)
  sites : site list;  (** ascending pc *)
  loops : Loop_bounds.bound list;
  unbounded_loops : int;  (** loop headers with no proven trip count *)
}

val run : ?mem:Memconfig.t -> Program.t -> t

val load_sites : t -> site list

(** Pcs of loads proven to miss on every execution — sites the drift
    defense must never de-instrument. *)
val always_miss_pcs : t -> int list

(** Unknown loads inside loops: what [analyze --strict] fails on. *)
val strict_violations : t -> site list

(** Package the classification as a {!Gain_cost.classifier} for the
    [Static] / [Hybrid] placement modes. Unproven loads get a miss
    probability prior: 0.85 for a pointer chase, 0.125 for a stream,
    0.55 for an opaque address. *)
val to_classifier : t -> Gain_cost.classifier

(** Loads (always_hit, always_miss, unknown).
    Exported for [test_analysis] only. *)
val cls_counts : t -> int * int * int

val to_json : t -> Stallhide_util.Json.t

val pp_table : Format.formatter -> t -> unit
