(** Client/LB defense configuration: the knobs every resilience
    mechanism in the cluster reads.

    - [timeout] — per-attempt client timeout; firing costs the target
      machine a health strike and may trigger a retry. It may not
      exceed the cluster's [slo_deadline] ({!Cluster.validate}), the
      end-to-end per-request SLO that expires a request;
    - [max_retries]/[retry_budget_pct]/[backoff] — jittered exponential
      backoff retries ([backoff * 2^attempt] plus uniform jitter of the
      same magnitude), at most [max_retries] per request and at most
      [retry_budget_pct]% of offered load cluster-wide ({!retry_budget});
    - [hedge_after]/[hedge_max] — after [hedge_after] cycles without a
      response (tuned to the fault-free p90 by the harness), send up to
      [hedge_max] duplicate attempts to other machines; the first
      response wins and later ones are discarded. [hedge_after <= 0]
      disables hedging;
    - [probe_interval]/[strike_threshold] — LB health checks: a machine
      collecting [strike_threshold] consecutive strikes (attempt
      timeouts or missed probes) is quarantined; a successful probe
      re-admits it;
    - [brownout_depth] — when the mean healthy-machine backlog exceeds
      this, the cluster browns out: scavengers are demoted on every
      core, hedging is suppressed, and requests that cannot meet their
      deadline are shed at the front end. [<= 0] disables. *)

type t = {
  timeout : int;
  max_retries : int;
  retry_budget_pct : int;
  backoff : int;
  hedge_after : int;
  hedge_max : int;
  probe_interval : int;
  strike_threshold : int;
  brownout_depth : int;
}

val default : t

(** @raise Invalid_argument on non-positive windows or an out-of-range
    budget. *)
val validate : t -> unit

(** [backoff_delay t ~seed ~rid ~attempt] — exponential base with
    uniform jitter, a pure function of its arguments (replay-stable,
    decorrelated across requests). *)
val backoff_delay : t -> seed:int -> rid:int -> attempt:int -> int

(** Cluster-wide retry token pool for [offered] requests. *)
val retry_budget : t -> offered:int -> int

val to_json : t -> Stallhide_util.Json.t
