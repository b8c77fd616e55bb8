(** A deterministic discrete-event cluster: [machines] replicas, each a
    full {!Stallhide_smp.Machine} (reused unchanged through its
    incremental [Live] API), fronted by an {!Lb} and driven by open-loop
    clients over a cycle-priced {!Stallhide_net} link.

    Determinism: the event heap pops in (time, submission-sequence)
    order and every random draw (link loss/reorder, P2c placement,
    backoff jitter) comes from a seed derived from [config.seed] — the
    same config and request trace replay bit-identically.

    The simulation always acts at the globally smallest timestamp:
    either the earliest pending event, or the machine whose
    {!Stallhide_smp.Machine.Live.next_action} is soonest. A machine
    whose cores ran ahead of a delivery serves it at its current clock
    (bounded anachronism — the rx queue absorbs the skew), so arrivals
    stay monotone per machine.

    Faults (the {!Stallhide_faults.Faults.is_net} vocabulary): [Crash]
    kills a replica mid-run (its in-flight requests are lost; with
    [down > 0] a {e fresh} replica restarts from the node factory),
    [Slownode] multiplies one machine's L3/DRAM latencies, [Netloss]
    drops/reorders messages, [Nicdrop] shrinks every rx ring.

    Defenses (when [defense] is set): per-attempt timeouts that strike
    the target's health record; jittered-exponential-backoff retries
    under a cluster-wide token budget; hedged duplicates after
    [hedge_after] cycles with first-response-wins; probe-driven
    quarantine/re-admission; and brownout — above [brownout_depth] mean
    backlog the cluster demotes scavengers everywhere, suppresses
    hedges, and sheds requests that cannot meet their deadline.
    Retries and hedges always target machines the request has not yet
    tried. *)

type spec = { rid : int; key : int; send : int }

type attempt_kind = First | Retry | Hedge

type attempt = {
  a_ix : int;
  a_machine : int;
  a_kind : attempt_kind;
  a_sent : int;
  mutable a_ctx : Stallhide_cpu.Context.t option;
  mutable a_done : bool;
  mutable a_timed : bool;
}

(** [Unanswered]: still pending when nothing was left to run (its
    attempts were lost). [Truncated]: still pending when the run stopped
    at [config.horizon] with work left. *)
type outcome = Pending | Acked | Expired | Shed | Unanswered | Truncated

type rq = {
  spec : spec;
  mutable attempts : attempt list;
  mutable tried : int list;
  mutable retries : int;
  mutable hedges : int;
  mutable done_at : int;
  mutable winner : int;  (** machine id of the winning attempt *)
  mutable winner_attempt : int;
  mutable winner_ctx : Stallhide_cpu.Context.t option;
  mutable outcome : outcome;
}

(** One replica incarnation recipe. The factory is called again with a
    higher [restart] after each crash recovery — a fresh image (one no
    other incarnation writes), fresh contexts, same logical service. *)
type node_impl = {
  config : Stallhide_smp.Machine.config;
  mem : Stallhide_mem.Address_space.t;
  scavengers : Stallhide_cpu.Context.t list array;
  make_ctx : rid:int -> attempt:int -> Stallhide_cpu.Context.t;
}

type node_view = {
  id : int;
  crashed : bool;
  restarts : int;
  completed : int;
  cycles : int;
  nic_rx : int;
  nic_fast : int;
  nic_overflow : int;
  nic_tx : int;
  result : Stallhide_smp.Machine.result option;
}

type config = {
  machines : int;
  policy : Stallhide_sched.Dispatch.policy;  (** intra-machine steering *)
  lb : Lb.policy;
  net : Stallhide_net.Netconfig.t;
  defense : Defense.t option;  (** [None] = undefended arm *)
  slo_deadline : int;  (** censor point for dropped requests *)
  seed : int;
  faults : Stallhide_faults.Faults.fault list;
  horizon : int;
      (** hard stop in cycles; requests it cuts off count as
          [truncated], and as dropped in the latency split *)
}

type result = {
  cycles : int;
  offered : int;
  acked : int;
  expired : int;
  shed : int;
  unanswered : int;
  truncated : int;  (** pending when the run stopped at the horizon *)
  lost_acked : int;
      (** acked requests whose winning context did not actually run to
          [Done] — must be 0 (the failover-correctness invariant) *)
  split : Stallhide_runtime.Latency.split;
  requests : rq array;
  nodes : node_view array;
  brownout_engaged : int;
  counters : (string * int) list;
}

(** [run config ~node ~requests] — requests must be sorted by [send]
    with distinct [rid]s; [node ~machine ~restart] builds replica
    incarnations.
    @raise Invalid_argument on unsorted/duplicate requests, a
    single-machine fault in [config.faults], a crash aimed past
    [machines], or an invalid defense. *)
val run :
  config -> node:(machine:int -> restart:int -> node_impl) -> requests:spec list -> result

val to_json : result -> Stallhide_util.Json.t
