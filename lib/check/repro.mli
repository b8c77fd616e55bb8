(** Replayable counterexample files.

    A repro bundles everything a deterministic replay needs: the oracle
    that failed, the full generator configuration (which fixes the
    memory image and lane registers — see {!Gen.workload}), the
    (possibly shrunken) program as assembler text, and the diagnostic
    the oracle reported. Saved as JSON so a failure seen in CI can be
    committed next to the fix and replayed forever with
    [stallhide fuzz --replay file.json]. *)

open Stallhide_isa

type t = {
  oracle : Oracle.name;
  cfg : Gen.cfg;
  program_text : string;  (** {!Asm.parse}able listing *)
  detail : string;  (** the oracle's counterexample message *)
}

val make : oracle:Oracle.name -> cfg:Gen.cfg -> program:Program.t -> detail:string -> t

(** Exported for [test_check] only.
    @raise Asm.Parse_error on a corrupted listing. *)
val program : t -> Program.t

(** Exported for [test_check] only. *)
val to_json : t -> Stallhide_util.Json.t

(** Exported for [test_check] only.
    @raise Invalid_argument on a malformed encoding. *)
val of_json : Stallhide_util.Json.t -> t

(** [save ~dir t] writes [repro-<oracle>-seed<seed>.json] under [dir]
    (created if missing) and returns the path. *)
val save : dir:string -> t -> string

(** @raise Sys_error / Invalid_argument on unreadable or malformed files. *)
val load : string -> t

(** Re-run the saved oracle on the saved program and configuration. *)
val replay : t -> Oracle.verdict
