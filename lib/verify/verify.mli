(** Translation validation for instrumented binaries.

    The instrumentation passes of [lib/binopt] rewrite programs; this
    module validates the rewrite — independently recomputing CFG,
    liveness, dominators and dataflow on the *output* program and
    checking it against the original (when available) and against the
    passes' contracts. It is run automatically at the end of
    {!Stallhide.Pipeline.instrument_with} (fail-fast via {!Rejected},
    with [~verify:false] as the escape hatch) and drives the
    [stallhide lint] CLI subcommand.

    Check categories (see {!Checks} for the individual analyses):
    cfg-equiv, liveness, pairing, interval, sfi, atomicity. *)

open Stallhide_isa

type outcome = {
  diags : Diagnostic.t list;  (** sorted: errors first, then by pc *)
  checks_run : Diagnostic.check list;
}

val errors : outcome -> int

val warnings : outcome -> int

(** No error-severity diagnostics (warnings allowed). *)
val ok : outcome -> bool

(** No diagnostics at all. *)
val clean : outcome -> bool

val pp_outcome : Format.formatter -> outcome -> unit

val outcome_to_json : outcome -> Stallhide_util.Json.t

exception Rejected of outcome
(** Raised by {!Stallhide.Pipeline.instrument_with} when any
    error-severity diagnostic is found. A printer is registered, so an
    uncaught rejection shows the diagnostics. *)

(** Validate a pass output against its input: cfg-equiv (against
    [orig] through the rewriter's pc map [orig_of_new], [new pc ->
    original pc]), liveness, pairing (findings at inserted pcs are
    errors), atomicity, plus the interval-bound check against
    {!Stallhide_binopt.Scavenger_pass.bound} of [target_interval] and
    the guard-completeness check when [expect_sfi] (default [false]).
    Diagnostics are also counted in [registry] when given (counters
    [verify.programs], [verify.checks],
    [verify.errors]/[warnings]/[infos] and
    [verify.diag.<check-id>]). *)
val validate :
  orig:Program.t ->
  orig_of_new:int array ->
  ?target_interval:int ->
  ?expect_sfi:bool ->
  ?registry:Stallhide_obs.Registry.t ->
  Program.t ->
  outcome

(** A bare program, with no rewrite to check against: liveness,
    pairing and atomicity only.
    Exported for [test_check], [test_verify] only. *)
val run : Program.t -> outcome
