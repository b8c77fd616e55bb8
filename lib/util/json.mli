(** Minimal JSON values: enough to emit the telemetry schemas and to
    parse them back in tests. No external dependency; numbers are kept
    as OCaml [int]/[float] and non-finite floats serialize as [null]
    (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact one-line rendering with full string escaping. *)
val to_string : t -> string

(** Pretty rendering (2-space indent) — what the exporters write to
    disk so traces stay diffable. *)
val to_string_pretty : t -> string

val write : path:string -> t -> unit

exception Parse_error of string

(** Strict-enough parser for round-trip tests: objects, arrays,
    strings (with escapes), numbers, booleans, null.
    @raise Parse_error on malformed input. *)
val of_string : string -> t

(** Accessors used by the tests; [None] on shape mismatch. *)
val member : string -> t -> t option

val to_int_opt : t -> int option

val to_string_opt : t -> string option
