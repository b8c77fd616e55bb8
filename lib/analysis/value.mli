(** Abstract register values for the static analyses.

    Addresses in the simulated ISA are [base register + displacement],
    and a program's initial register values (arena bases, table
    pointers) are workload data the static analysis cannot see. Values
    are therefore tracked {i symbolically relative to program entry}:

    - [Const c] — exactly [c] on every execution (constant folding
      mirrors [Engine.eval_binop] exactly);
    - [Init (r, o)] — the entry value of register [r] plus [o]: two
      occurrences of the same [(r, o)] denote the same address on any
      given run, which is what the cache domain keys on;
    - [Affine r] — entry value of [r] plus an unknown offset (the join
      of different [Init (r, _)] — a strided/induction pointer);
    - [Loaded] — the result of a load or anything derived from one
      (pointer-chasing taint);
    - [Top] — anything.

    [Affine]/[Loaded]/[Top] never support hit/miss {i claims}; they only
    feed the placement priors. *)

open Stallhide_isa

type t =
  | Top
  | Const of int
  | Init of Reg.t * int
  | Affine of Reg.t
  | Loaded

(** Environment at program entry: every register holds its own initial
    value, [Init (r, 0)]. *)
val entry_env : unit -> t array

(** Exported for [test_analysis] only. *)
val equal : t -> t -> bool

val env_equal : t array -> t array -> bool

val join : t -> t -> t

(** [join_env dst src] joins [src] into [dst] in place; true when [dst]
    changed. *)
val join_env : t array -> t array -> bool

(** Abstract transfer of one instruction's register effects, in place.
    [Call] clobbers every register (no interprocedural edges). *)
val step : t array -> Instr.t -> unit

type envs = { ins : t array option array; outs : t array option array }

(** Per-block entry/exit environments (value-only fixpoint over the
    CFG), indexed by block id; [None] for unreachable blocks. *)
val block_envs : Stallhide_binopt.Cfg.t -> envs
