(** The fuzz campaign driver behind [stallhide fuzz].

    Draws [cases] configurations+programs from consecutive seeds
    ([seed], [seed+1], ...), runs every requested oracle on each, and
    collects counterexamples. Each counterexample is greedily shrunken
    (unless disabled) with the failing oracle itself as the shrinker's
    test, and optionally saved as a replayable {!Repro} file.

    Everything is a pure function of [opts] — a CI fuzz job with a
    fixed seed is a regression test, not a lottery ticket. *)

type opts = {
  cases : int;
  seed : int;  (** first seed; case [i] uses [seed + i] *)
  oracles : Oracle.name list;
  shrink : bool;
  repro_dir : string option;
}

(** 100 cases, seed 42, {!Oracle.all}, shrinking on, no repro dir. *)
val default_opts : opts

type counterexample = {
  oracle : Oracle.name;
  case_seed : int;
  detail : string;  (** the (post-shrink) oracle diagnostic *)
  instructions : int;  (** original program size *)
  shrunk_instructions : int option;  (** [None] when shrinking is off *)
  program_text : string;  (** the minimal failing program *)
  repro_path : string option;
}

type report = {
  cases : int;
  oracles : Oracle.name list;
  checks : int;  (** oracle runs executed (cases x oracles) *)
  counterexamples : counterexample list;
  invalid : (Oracle.name * int * string) list;
      (** (oracle, case seed, why) for cases that could not be
          evaluated — always a finding worth looking at, never hidden *)
}

val ok : report -> bool

(** Execute the campaign.
    @raise Invalid_argument if [cases < 1]: an empty campaign checks
    nothing, so it must not report a pass. *)
val run : opts -> report

val report_to_json : report -> Stallhide_util.Json.t

val pp_report : Format.formatter -> report -> unit
