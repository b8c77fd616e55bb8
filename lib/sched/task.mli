(** Tasks for the µs-scale scheduling experiments (§4.2).

    A task wraps a context with an arrival time and a service class:
    [Latency] tasks are request-like and judged by sojourn time;
    [Batch] tasks are throughput fodder. *)

open Stallhide_cpu

type class_ = Latency | Batch

type t = {
  id : int;
  ctx : Context.t;
  class_ : class_;
  arrival : int;
  mutable started_at : int;  (** first dispatch; -1 before *)
  mutable finished_at : int;  (** completion; -1 before *)
}

val create : id:int -> class_:class_ -> arrival:int -> Context.t -> t

(** [finished - arrival]; [None] until completion. *)
val sojourn : t -> int option
