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

type against = {
  orig : Program.t;  (** the pre-instrumentation program *)
  orig_of_new : int array;  (** the rewriter's pc map, [new pc -> original pc] *)
}

type config = {
  against : against option;
      (** enables the cfg-equiv check and upgrades pairing findings at
          inserted pcs to errors *)
  target_interval : int option;
      (** enables the interval-bound check, against
          {!Stallhide_binopt.Scavenger_pass.bound} of this target *)
  expect_sfi : bool;  (** enables the guard-completeness check *)
}

(** Liveness, pairing and atomicity only — the checks meaningful for
    any program. *)
val default_config : config

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

(** Run the configured checks; diagnostics are also counted in
    [registry] when given (counters [verify.programs], [verify.checks],
    [verify.errors]/[warnings]/[infos] and [verify.diag.<check-id>]). *)
val run :
  ?config:config -> ?registry:Stallhide_obs.Registry.t -> Program.t -> outcome

(** Convenience for validating a pass output against its input:
    {!run} with [against] set (and the interval/SFI checks enabled
    when the corresponding argument is given). *)
val validate :
  orig:Program.t ->
  orig_of_new:int array ->
  ?target_interval:int ->
  ?expect_sfi:bool ->
  ?registry:Stallhide_obs.Registry.t ->
  Program.t ->
  outcome
