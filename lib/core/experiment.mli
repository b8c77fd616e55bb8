(** Plain-text table rendering for the benchmark harness, plus a JSON
    artifact sink so every printed table is also captured
    machine-readably. *)

(** [table ~title ~header rows] prints an aligned table to stdout.
    An optional [note] line follows the title. When a recording group
    is open (see {!group}), the table is also captured for
    {!write_json}. *)
val table : title:string -> ?note:string -> header:string list -> string list list -> unit

(** {2 JSON artifact}

    [group id] opens a bucket named [id] (e.g. the experiment id);
    subsequent {!table} calls and {!record}ed values land in it until
    the next [group]. Without an open group, recording is off — the
    print-only behaviour. *)

val group : string -> unit

(** Attach an extra named value (raw metrics, attribution reports, ...)
    to the current group. No-op without an open group. *)
val record : string -> Stallhide_util.Json.t -> unit

(** Write everything recorded since startup:
    [{schema_version; tool; groups: {<id>: {tables; ...extras}}}]. *)
val write_json : path:string -> unit

(** Format helpers: fixed-point float, percentage, integer with
    thousands separators. *)
val ff : ?decimals:int -> float -> string

val pct : float -> string

val fi : int -> string

(** Row from a metrics record: label, cycles, efficiency, throughput,
    stall%, switch%, and p50/p99 latency when present. *)
val metrics_header : string list

val metrics_row : Metrics.t -> string list
