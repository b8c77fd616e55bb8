(** Chrome/Perfetto [trace_event] exporter.

    Renders a {!Stream.t} as the JSON object format both
    [chrome://tracing] and [ui.perfetto.dev] load: one track (tid) per
    simulated context, [Dispatch] spans as complete ("X") events, and
    yields, context switches, scavenger escalations, steals and missing
    loads as instants, and request-lifetime [Span_open]/[Span_close]
    pairs as async ("b"/"e") events keyed by context id — async spans
    may overlap on one track, which concurrent requests on a core do.
    Timestamps are simulated cycles (declared as ns — the unit
    Perfetto displays; cycles are the only clock the simulator has). *)

(** Exported for [test_obs] only. *)
val to_json : Stream.t -> Stallhide_util.Json.t

val write : path:string -> Stream.t -> unit

(** Multi-core export: one named track per (label, stream) pair, in
    order — track [i] gets [tid = i], so an SMP trace renders as N
    parallel core lanes instead of one interleaved lane. Dispatch spans
    keep their context id in the event {e name} ("ctx 7"), which is how
    a migrated (stolen) coroutine shows up on two different lanes'
    labels but only ever runs on one.
    Exported for [test_smp] only. *)
val to_json_tracks : (string * Stream.t) list -> Stallhide_util.Json.t

val write_tracks : path:string -> (string * Stream.t) list -> unit
