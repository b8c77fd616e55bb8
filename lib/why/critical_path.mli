(** Per-request critical-path extraction.

    Given the merged event timeline of an SMP run and each served
    {!Stallhide_smp.Machine.request} (arrival, completion, serving
    context), decompose its sojourn into the components a tail-latency
    investigation needs:

    - [queueing] — arrival to first dispatch (waiting in a backlog);
    - [stall] — back-end memory/accelerator stall paid on core;
    - [contention] — the slice of those stalls spent queued at the
      shared-L3 port (coherence/bandwidth pressure from other cores);
    - [switch] — context-switch cycles charged to the request;
    - [compute] — remaining on-core cycles;
    - [offcore] — gaps between dispatch spans after first dispatch
      (yielded away while other coroutines held the core).

    All components are exact sums over the request's [Dispatch],
    [Stall], [Cache_access] and [Context_switch] events, so
    [latency = queueing + compute + stall + switch + offcore] holds by
    construction ([contention] is a sub-slice of [stall], not an
    additional term). *)

type breakdown = {
  rid : int;
  latency : int;
  queueing : int;
  compute : int;
  stall : int;
  contention : int;  (** part of [stall] queued at the shared L3 *)
  switch : int;
  offcore : int;
}

(** [breakdown ~events request] — [events] is the run's merged event
    list (any order; filtered by the request's context id internally).
    Requests that never finished yield [None], and so do finished
    requests with no [Dispatch] slice in [events]: their run was
    untraced or their events were dropped. *)
val breakdown :
  events:Stallhide_obs.Event.t list -> Stallhide_smp.Machine.request -> breakdown option

type totals = {
  n : int;
  latency : int;
  queueing : int;
  compute : int;
  stall : int;
  contention : int;
  switch : int;
  offcore : int;
}

val totals : breakdown list -> totals

(** The slowest [frac] of requests (by latency, ties broken by rid for
    determinism); [frac = 0.01] isolates the p99 tail. Always at least
    one request when the input is non-empty. *)
val tail : frac:float -> breakdown list -> breakdown list

val pp_totals : Format.formatter -> totals -> unit

val to_json : totals -> Stallhide_util.Json.t
