(** Fault × workload experiment harness.

    For each fault the harness runs three arms on the same seeded
    workload and reports one {!row} per arm:

    - ["fault-free"] — the clean reference (no fault armed, no defense);
    - ["undefended"] — the fault armed, every defense off;
    - ["defended"] — the fault armed and the matching defense on
      (drift/pebs → {!Stallhide.Drift} de-instrumentation; rogue →
      the {!Stallhide_runtime.Dual_mode} watchdog; spike → server
      overload protection calibrated off the fault-free p99).

    [hidden_cycles] is measured against the arm's no-hiding reference
    (sequential or run-to-completion under the same fault setting), so
    a stale profile that *costs* cycles shows up negative. *)

type opts = {
  lanes : int;  (** lanes for drift/pebs/rogue scenarios *)
  ops : int;  (** per-lane operations *)
  seed : int;  (** master seed; injector sub-seeds derive from it *)
}

(** lanes 8, ops 1000, seed 42. The spike scenario always runs 40
    open-loop requests of 6 operations, one every 600 cycles, every
    4th latency-class. *)
val default_opts : opts

val workload_names : string list

(** Build a named workload at [1/ws_scale] of its standard working set.
    The program is identical at every scale (only image contents and
    register inits differ) — the invariant the drift injector relies on
    to transplant a stale binary onto a shrunken working set. *)
val make :
  workload:string ->
  lanes:int ->
  ops:int ->
  manual:bool ->
  seed:int ->
  ws_scale:int ->
  unit ->
  Stallhide_workloads.Workload.t

type row = {
  scenario : string;  (** {!Faults.name} of the fault under test *)
  workload : string;
  arm : string;  (** ["fault-free" | "undefended" | "defended"] *)
  fault : Faults.fault option;  (** [None] on the fault-free arm *)
  cycles : int;
  completed : int;  (** operations (drift/pebs/rogue) or requests (spike) *)
  hidden_cycles : int;  (** vs the no-hiding reference; negative = net loss *)
  latency : Stallhide_runtime.Latency.summary;
      (** request scenarios (spike, cluster): the {e full} offered-load
          summary with dropped requests censored at the deadline —
          shedding work no longer flatters the percentiles. Other
          scenarios: operation latency as before. *)
  split : Stallhide_runtime.Latency.split option;
      (** goodput vs offered split for scenarios that can drop requests
          ([Some] for spike and the cluster rows); [None] where request
          dropping cannot occur *)
  counters : (string * int) list;  (** defense counters ([watchdog.*], [drift.*], [server.*]) *)
}

val rows_to_json : row list -> Stallhide_util.Json.t

(** Three rows (fault-free, undefended, defended) for one fault on one
    workload.
    @raise Invalid_argument on an unknown workload name. *)
val run : ?opts:opts -> workload:string -> Faults.fault -> row list

(** The full matrix: every fault of the plan on every workload, with
    [opts.seed] overridden by the plan's seed. *)
val run_plan : ?opts:opts -> workloads:string list -> Faults.plan -> row list
