(** The quantitative gain/cost model of §3.2 for deciding where to
    place yields.

    Instrumenting a load costs the prefetch issue plus a round trip of
    context switches whether or not the load misses; it gains the
    expected stall it hides. The switch cost is *site-specific*: the
    primary pass annotates its yields with liveness and the runtime
    saves only the live registers, so the model prices each candidate
    site as [switch_base + switch_per_reg * live_regs_at_site].
    Decisions use only profile {i estimates} plus machine
    characteristics. *)

open Stallhide_isa

type machine = {
  switch_base : float;  (** fixed cycles per context switch *)
  switch_per_reg : float;  (** cycles per live register saved+restored *)
  prefetch_cost : float;  (** prefetch issue *)
  default_miss_stall : float;
      (** stall per miss assumed when the profile has no stall samples
          for a pc (machine characteristic, e.g. DRAM − L1 latency) *)
}

val default_machine : machine

type estimates = {
  miss_probability : int -> float option;
  stall_per_miss : int -> float option;
}

(** Estimators backed by a profile database. *)
val of_profile : Stallhide_pmu.Profile.t -> estimates

(** Oracle estimators backed by ground-truth counters, for upper-bound
    comparisons: the table maps pc to (executions, misses, total stall
    cycles), measured exactly. *)
val of_ground_truth : (int, int * int * int) Hashtbl.t -> estimates

(** Per-site verdict of the static must/may cache analysis
    ([Stallhide_analysis] — kept abstract here so the optimizer layer
    does not depend on it). *)
type cls =
  | Hit  (** proven to hit L1/L2 on every execution *)
  | Miss  (** proven to go to L3/DRAM on every execution *)
  | Unknown_ptr  (** unresolved: pointer-chasing base *)
  | Unknown_strided  (** unresolved: induction-variable base *)
  | Unknown_opaque  (** unresolved: no address information *)

type classifier = {
  cls_at : int -> cls option;  (** [None] for pcs that are not loads *)
  static_est : estimates;
      (** profile-free estimators: proven sites at probability 0/1,
          unknown sites at taint-class priors *)
}

type placement =
  | Pgo  (** profile estimates only (the paper's §3 placement) *)
  | Static of classifier  (** static analysis only — no profile needed *)
  | Hybrid of classifier
      (** proven facts override the profile; priors back-fill unsampled
          pcs *)

(** Combine profile estimates with the placement mode's classifier. *)
val place : placement -> estimates -> estimates

type policy =
  | Always  (** instrument every load (dense, expert-free upper bound) *)
  | Threshold of float  (** instrument when estimated miss probability >= t *)
  | Cost_benefit  (** instrument when expected gain is positive *)

(** Modeled cost of one switch at a site with [live_regs] live. *)
val switch_cost : machine -> live_regs:int -> float

(** Expected cycles saved per execution by instrumenting a site.
    Exported for [test_binopt] only. *)
val expected_gain : machine -> live_regs:int -> p_miss:float -> stall:float -> float

(** Load pcs chosen for primary instrumentation, ascending. *)
val select : policy -> machine -> estimates -> Program.t -> int list
