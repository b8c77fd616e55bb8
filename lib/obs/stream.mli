(** The trace-event stream: a bounded in-memory buffer of {!Event.t}
    plus a {!Registry.t} maintained incrementally as events arrive.

    Zero-cost discipline: nothing in the simulator ever *requires* a
    stream. The engine's probe defaults to none, schedulers take
    [?obs:Stream.t option] defaulting to [None], and no observer ever
    touches the simulated clock — so cycle counts are identical with
    telemetry on or off (asserted by the obs tests). When the buffer
    fills, later events are counted in {!dropped} rather than recorded
    (the registry and the per-pc views keep counting — only the raw
    event log is bounded). *)

type t

(** [create ?capacity ()] — default capacity [1 lsl 18] events. *)
val create : ?capacity:int -> unit -> t

val record : t -> Event.t -> unit

(** Events in recording order (cycle-monotone per context). *)
val events : t -> Event.t list

val iter : (Event.t -> unit) -> t -> unit

val length : t -> int

val dropped : t -> int

(** The registry fed by this stream (yield fired/skipped and load-level
    counters; stall, switch-cost and dispatch-length histograms). *)
val registry : t -> Registry.t

(** [attach t p] records the engine's events from probe [p]: a
    [Cache_access] per retired load, then a [Stall] when it paid one,
    and [Stall] (accelerator waits), [Frontend_stall], [Yield] and
    [Op_retired] events, each as either interpreter reaches it. Set
    [p] in [Engine.config.probe]; attach a stream to one probe. *)
val attach : t -> Stallhide_cpu.Probe.t -> unit

(** {2 Derived views used by attribution and exporters}

    The three per-pc views read tallies kept as every event arrives, so
    they count exactly whatever the buffer dropped. *)

(** Per-pc totals of back-end stall cycles ([Stall] events), optionally
    re-keyed through [map] (e.g. new-pc to original-pc). *)
val stall_by_pc : ?map:(int -> int) -> t -> (int, int) Hashtbl.t

(** Per-yield-site (fires, skips) from [Yield] events, keyed by pc. *)
val yields_by_pc : t -> (int, int * int) Hashtbl.t

(** Per-yield-site total switch cycles charged ([Context_switch] events
    with [at_pc >= 0]). *)
val switch_cycles_by_pc : t -> (int, int) Hashtbl.t

(** Dispatch spans as [(ctx, start, stop)], recording order.
    Exported for [test_runtime] only. *)
val spans : t -> (int * int * int) list

(** [timeline ?width t] draws the dispatch spans as an ASCII Gantt
    chart, one row per context and time left to right over [width]
    columns (default 72), so interleaving (round-robin fairness,
    dual-mode detours, scavenger scaling) is directly visible; a
    ["(+N dropped)"] line follows when the buffer overflowed. [""] when
    [t] holds no span.

    {v
    ctx 0  ##....##....##....
    ctx 1  ..##....##....##..
    v} *)
val timeline : ?width:int -> t -> string
