(** Typed trace events — the single vocabulary every telemetry consumer
    (timeline rendering, Perfetto export, yield-site attribution, the
    counter registry) reads.

    Producers: the execution engine (via {!Stream.attach}); the
    schedulers ([Scheduler], [Core_sched]), which push scheduling-level
    events ([Context_switch], [Dispatch], [Scavenger_escalation],
    [Watchdog]) directly; and [Machine], which records request spans
    and steals.
    All cycle stamps come from the shared simulated clock, so events of
    one context are monotone in recording order. *)

open Stallhide_isa
open Stallhide_mem

(** Scheduler-watchdog verdicts on a misbehaving scavenger (the
    fault-injection self-defense loop): a [Strike] is one dispatch
    caught past its cycle bound; [Demote] benches the context after K
    strikes; [Quarantine] retires a repeat offender for good; [Readmit]
    lets a demoted context back in after its backoff expires. *)
type watchdog_action = Strike | Demote | Quarantine | Readmit

val watchdog_action_name : watchdog_action -> string

type t =
  | Yield of { ctx : int; pc : int; kind : Instr.yield_kind; fired : bool; cycle : int }
      (** a yield-family instruction retired; [fired = false] means the
          conditional check fell through and the core was kept *)
  | Cache_access of {
      ctx : int;
      pc : int;
      addr : int;
      level : Hierarchy.level;  (** level that served the demand load *)
      stall : int;  (** stall cycles actually paid (after OoO overlap) *)
      queue : int;
          (** of those, cycles queued at the shared-L3 port — contention
              the critical-path extractor separates from service time *)
      cycle : int;
    }
  | Stall of { ctx : int; pc : int; cycles : int; cycle : int }
      (** back-end stall paid at [pc] (demand load or accelerator wait) *)
  | Frontend_stall of { ctx : int; pc : int; cycles : int; cycle : int }
  | Op_retired of { ctx : int; pc : int; cycle : int }
      (** an application-level operation completed ([Opmark]) *)
  | Context_switch of {
      from_ctx : int;
      to_ctx : int;  (** [-1] when the scheduler has not picked yet *)
      at_pc : int;  (** yield site charged, [-1] for halt/fault switches *)
      cost : int;
      cycle : int;
    }
  | Scavenger_escalation of { ctx : int; pc : int; cycle : int }
      (** a scavenger hit its own miss inside a primary's stall window
          and the core was handed to the next one (§3.3) *)
  | Watchdog of { ctx : int; action : watchdog_action; cycle : int }
      (** the scheduler watchdog acted on scavenger [ctx] *)
  | Dispatch of { ctx : int; start : int; stop : int }
      (** one scheduler dispatch span: [ctx] held the core over
          [start, stop) *)
  | Span_open of { ctx : int; name : string; cycle : int }
      (** start of a named logical interval on [ctx] — e.g. a request's
          lifetime from enqueue to completion. Spans of the same ctx may
          overlap across cores (migration), so they need not nest. *)
  | Span_close of { ctx : int; name : string; cycle : int }
  | Steal of { ctx : int; from_core : int; to_core : int; cycle : int }
      (** [ctx] migrated from [from_core]'s backlog to [to_core]
          (scavenger work stealing or donation) *)

(** Context the event belongs to ([from_ctx] for switches). *)
val ctx_of : t -> int

(** ["primary"] or ["scavenger"]. *)
val kind_name : Instr.yield_kind -> string

(** Exported for [test_baselines_diff_a], [test_baselines_diff_b],
    [test_engine_diff], [test_runtime], [test_smp] only. *)
val pp : Format.formatter -> t -> unit
