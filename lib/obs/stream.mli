(** The trace-event stream: a bounded in-memory buffer of {!Event.t}
    plus a {!Registry.t} maintained incrementally as events arrive.

    Zero-cost discipline: nothing in the simulator ever *requires* a
    stream. The engine's probe defaults to none, schedulers take
    [?obs:Stream.t option] defaulting to [None], and no observer ever
    touches the simulated clock — so cycle counts are identical with
    telemetry on or off (asserted by the obs tests). When the buffer
    fills, later events are counted in {!dropped} rather than recorded
    (the registry keeps counting — only the raw event log is
    bounded). *)

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
