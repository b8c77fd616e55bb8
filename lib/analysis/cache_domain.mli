(** Must/may abstract cache states, the core of the static analysis.

    The must side proves residency: each level maps abstract line keys
    to an upper bound on their LRU age, so presence proves the line
    survives in that level on {i every} execution path. Joins intersect
    with max age, mirroring the classical Ferdinand/Wilhelm must
    analysis; updates mirror [Mem.Cache]'s LRU and [Mem.Hierarchy]'s
    probe/fill protocol exactly (an L1 hit does not refresh L2).

    The may side proves absence: programs start with cold caches, so a
    load whose line provably has no earlier possibly-aliasing access on
    any path is a guaranteed miss. Eviction-based misses are never
    claimed (set indices of symbolic lines are unknown).

    Keys are line-granular and symbolic relative to program entry
    ([Value.Init]-based addresses), so set indices are unknown and the
    must ages over-approximate by counting all competing keys rather
    than per-set ones — strictly conservative. *)

open Stallhide_mem

module Key : sig
  type t = Line of int | Sym of Stallhide_isa.Reg.t * int
      (** [Line l] — concrete line index [l]; [Sym (r, o)] — the line
          containing address [init(r) + o]. Equal keys denote the same
          line on any given run; [Sym] alignment is unknown, so equality
          is the only same-line proof. *)

  val equal : t -> t -> bool

  (** Could the two keys fall on the same cache line?
      Exported for [test_analysis] only. *)
  val may_alias : line_bytes:int -> t -> t -> bool

  val to_string : t -> string
end

module Kmap : Map.S with type key = Key.t

module Kset : Set.S with type elt = Key.t

(** Abstract address of a load/store/prefetch: [None] when the base
    value cannot name a line. *)
val key_of : line_bytes:int -> Value.t -> disp:int -> Key.t option

(** Why a site stays [Unknown] — drives the placement priors. *)
type taint =
  | Ptr  (** base derived from a load: pointer chasing *)
  | Strided  (** base is an induction pointer: streaming access *)
  | Opaque  (** no information *)

val taint_of : Value.t -> taint

type cls = Always_hit | Always_miss | Unknown of taint

val cls_name : cls -> string

type t = {
  l1 : int Kmap.t;
  l2 : int Kmap.t;
  l3 : int Kmap.t;
  seen : Kset.t;  (** keys possibly accessed since entry *)
  seen_top : bool;  (** some unresolvable access may have happened *)
}

(** Program entry: caches cold, nothing seen. *)
val entry : t

(** Effect of a yield or call: all must facts die, may side poisoned. *)
val clobber : t -> t

val join : t -> t -> t

val equal : t -> t -> bool

(** Provably the first-ever access to [k]'s line.
    Exported for [test_analysis] only. *)
val cold : t -> line_bytes:int -> Key.t -> bool

(** Classification of a demand access at this program point (the state
    {i before} the access). [Always_hit] means served from L1 or L2 on
    every run; [Always_miss] means L3-or-beyond on every run. *)
val classify : Memconfig.t -> t -> base:Value.t -> disp:int -> cls

(** Transfer of a demand load (or store probe) of [base + disp]. *)
val load : Memconfig.t -> t -> base:Value.t -> disp:int -> t

(** Transfer of a software prefetch — no-op when must-resident in L1,
    mirroring [Hierarchy.prefetch]. *)
val prefetch : Memconfig.t -> t -> base:Value.t -> disp:int -> t
