open Stallhide_cpu

type class_ = Latency | Batch

type t = {
  id : int;
  ctx : Context.t;
  class_ : class_;
  arrival : int;
  mutable started_at : int;
  mutable finished_at : int;
}

let create ~id ~class_ ~arrival ctx =
  if arrival < 0 then invalid_arg "Task.create: negative arrival";
  { id; ctx; class_; arrival; started_at = -1; finished_at = -1 }

let sojourn t = if t.finished_at < 0 then None else Some (t.finished_at - t.arrival)
