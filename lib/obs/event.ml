open Stallhide_isa
open Stallhide_mem

type watchdog_action = Strike | Demote | Quarantine | Readmit

let watchdog_action_name = function
  | Strike -> "strike"
  | Demote -> "demote"
  | Quarantine -> "quarantine"
  | Readmit -> "readmit"

type t =
  | Yield of { ctx : int; pc : int; kind : Instr.yield_kind; fired : bool; cycle : int }
  | Cache_access of {
      ctx : int;
      pc : int;
      addr : int;
      level : Hierarchy.level;
      stall : int;
      queue : int;
      cycle : int;
    }
  | Stall of { ctx : int; pc : int; cycles : int; cycle : int }
  | Frontend_stall of { ctx : int; pc : int; cycles : int; cycle : int }
  | Op_retired of { ctx : int; pc : int; cycle : int }
  | Context_switch of { from_ctx : int; to_ctx : int; at_pc : int; cost : int; cycle : int }
  | Scavenger_escalation of { ctx : int; pc : int; cycle : int }
  | Watchdog of { ctx : int; action : watchdog_action; cycle : int }
  | Dispatch of { ctx : int; start : int; stop : int }
  | Span_open of { ctx : int; name : string; cycle : int }
  | Span_close of { ctx : int; name : string; cycle : int }
  | Steal of { ctx : int; from_core : int; to_core : int; cycle : int }

let ctx_of = function
  | Yield { ctx; _ }
  | Cache_access { ctx; _ }
  | Stall { ctx; _ }
  | Frontend_stall { ctx; _ }
  | Op_retired { ctx; _ }
  | Scavenger_escalation { ctx; _ }
  | Watchdog { ctx; _ }
  | Dispatch { ctx; _ }
  | Span_open { ctx; _ }
  | Span_close { ctx; _ }
  | Steal { ctx; _ } ->
      ctx
  | Context_switch { from_ctx; _ } -> from_ctx

let kind_name = function Instr.Primary -> "primary" | Instr.Scavenger -> "scavenger"

let pp fmt = function
  | Yield { ctx; pc; kind; fired; cycle } ->
      Format.fprintf fmt "@%d ctx%d yield(%s)@%d %s" cycle ctx (kind_name kind) pc
        (if fired then "fired" else "skipped")
  | Cache_access { ctx; pc; addr; level; stall; queue; cycle } ->
      Format.fprintf fmt "@%d ctx%d load@%d addr=%d %s stall=%d%s" cycle ctx pc addr
        (Hierarchy.level_name level) stall
        (if queue > 0 then Printf.sprintf " queued=%d" queue else "")
  | Stall { ctx; pc; cycles; cycle } ->
      Format.fprintf fmt "@%d ctx%d stall@%d %d cyc" cycle ctx pc cycles
  | Frontend_stall { ctx; pc; cycles; cycle } ->
      Format.fprintf fmt "@%d ctx%d fe-stall@%d %d cyc" cycle ctx pc cycles
  | Op_retired { ctx; pc; cycle } -> Format.fprintf fmt "@%d ctx%d op@%d" cycle ctx pc
  | Context_switch { from_ctx; to_ctx; at_pc; cost; cycle } ->
      Format.fprintf fmt "@%d switch ctx%d->ctx%d at pc %d (%d cyc)" cycle from_ctx to_ctx at_pc
        cost
  | Scavenger_escalation { ctx; pc; cycle } ->
      Format.fprintf fmt "@%d ctx%d scavenger-escalation@%d" cycle ctx pc
  | Watchdog { ctx; action; cycle } ->
      Format.fprintf fmt "@%d ctx%d watchdog-%s" cycle ctx (watchdog_action_name action)
  | Dispatch { ctx; start; stop } -> Format.fprintf fmt "@%d ctx%d dispatch %d cyc" start ctx (stop - start)
  | Span_open { ctx; name; cycle } -> Format.fprintf fmt "@%d ctx%d span-open %s" cycle ctx name
  | Span_close { ctx; name; cycle } ->
      Format.fprintf fmt "@%d ctx%d span-close %s" cycle ctx name
  | Steal { ctx; from_core; to_core; cycle } ->
      Format.fprintf fmt "@%d ctx%d stolen core%d->core%d" cycle ctx from_core to_core
