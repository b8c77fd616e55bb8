(** Architectural-state capture for differential oracles.

    A capture is everything the ISA semantics can observe at the end of
    a run: per-context status and register file, plus the full memory
    image (every allocated word). Two arms of a differential oracle are
    semantically equivalent iff their captures are equal — timing,
    yield counts and cache contents are deliberately excluded, because
    they are exactly what instrumentation is {e allowed} to change. *)

open Stallhide_cpu
open Stallhide_mem

type t

(** [capture ~mem ctxs] snapshots the contexts (id, status, registers)
    and the image's allocated words. Order of [ctxs] is irrelevant —
    contexts are keyed by id. *)
val capture : mem:Address_space.t -> Context.t array -> t

(** First observable difference, human-readable — [None] when equal.
    The order of comparison (statuses, then registers, then memory) is
    stable so shrunken counterexamples report the same mismatch. *)
val diff : t -> t -> string option
