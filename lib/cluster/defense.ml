open Stallhide_util

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

let default =
  {
    timeout = 6_000;
    max_retries = 2;
    retry_budget_pct = 20;
    backoff = 500;
    hedge_after = 0;
    hedge_max = 1;
    probe_interval = 2_000;
    strike_threshold = 3;
    brownout_depth = 0;
  }

let validate t =
  if t.timeout <= 0 then invalid_arg "Defense: timeout must be positive";
  if t.max_retries < 0 then invalid_arg "Defense: max_retries must be >= 0";
  if t.retry_budget_pct < 0 || t.retry_budget_pct > 100 then
    invalid_arg "Defense: retry_budget_pct must be in [0,100]";
  if t.backoff <= 0 then invalid_arg "Defense: backoff must be positive";
  if t.hedge_max < 0 then invalid_arg "Defense: hedge_max must be >= 0";
  if t.probe_interval <= 0 then invalid_arg "Defense: probe_interval must be positive";
  if t.strike_threshold < 1 then invalid_arg "Defense: strike_threshold must be >= 1"

(* Jitter is a pure function of (seed, rid, attempt): replaying a plan
   replays every backoff to the cycle, and concurrent requests'
   delays are decorrelated without sharing a mutable stream. *)
let backoff_delay t ~seed ~rid ~attempt =
  let base = t.backoff lsl min attempt 20 in
  let st = Random.State.make [| seed; rid; attempt; 0xbac0ff |] in
  base + Random.State.int st base

let retry_budget t ~offered =
  if t.max_retries = 0 || t.retry_budget_pct = 0 then 0
  else max 1 (offered * t.retry_budget_pct / 100)

let to_json t =
  Json.Obj
    [
      ("timeout", Json.Int t.timeout);
      ("max_retries", Json.Int t.max_retries);
      ("retry_budget_pct", Json.Int t.retry_budget_pct);
      ("backoff", Json.Int t.backoff);
      ("hedge_after", Json.Int t.hedge_after);
      ("hedge_max", Json.Int t.hedge_max);
      ("probe_interval", Json.Int t.probe_interval);
      ("strike_threshold", Json.Int t.strike_threshold);
      ("brownout_depth", Json.Int t.brownout_depth);
    ]
