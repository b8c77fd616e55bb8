(** Structured findings of the translation validator ({!Verify}).

    A diagnostic pins one defect (or lint smell) to a check category, a
    severity, a pc in the program under inspection, and a witness — the
    pcs (or, for the liveness check, register numbers) substantiating
    the finding. Diagnostics render as one-line text for the CLI and as
    JSON for machine consumers. *)

type severity = Error | Warning | Info

type check =
  | Cfg_equiv  (** instrumented CFG ≠ original modulo inserted instructions *)
  | Liveness  (** a liveness-limited context save drops a live register *)
  | Pairing  (** a prefetch/cyield without a dominated same-address load *)
  | Interval  (** a yield-free path exceeds the scavenger target interval *)
  | Sfi  (** a memory op not dominated by a guard for its line *)
  | Atomicity  (** a yield splits a read-modify-write window *)

(** Stable identifier used in text output, JSON, and the obs registry:
    ["cfg-equiv"], ["liveness"], ["pairing"], ["interval"], ["sfi"],
    ["atomicity"]. *)
val check_id : check -> string

val severity_name : severity -> string

type t = {
  check : check;
  severity : severity;
  pc : int;  (** location in the inspected program; [-1] = whole program *)
  message : string;
  witness : int list;
}

val error : check -> ?pc:int -> ?witness:int list -> string -> t

val warning : check -> ?pc:int -> ?witness:int list -> string -> t

val info : check -> ?pc:int -> ?witness:int list -> string -> t

(** Severity first (errors before warnings before infos), then pc. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val to_json : t -> Stallhide_util.Json.t
