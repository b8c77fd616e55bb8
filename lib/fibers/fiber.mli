(** Real light-weight coroutines on OCaml 5 effect handlers.

    This is the host-level counterpart of the paper's premise: a
    cooperative user-space context switch costs nanoseconds, orders of
    magnitude below OS threads. The simulator charges a *modeled* switch
    cost; this module lets the benchmark harness measure a *real* one
    (see bench table C2).

    The scheduler is a single-threaded run queue: [yield] suspends the
    current fiber and resumes the next runnable one. *)

(** [yield ()] suspends the calling fiber.
    Exported for [test_fibers] only.
    @raise Failure if called outside {!run}. *)
val yield : unit -> unit

(** [run fns] drives all fibers to completion, round-robin at yields.
    Exported for [test_fibers] only. *)
val run : (unit -> unit) list -> unit

(** [ping_pong ~rounds] runs two fibers that alternately yield to each
    other [rounds] times each — [2 * rounds] context switches, the
    standard switch-cost microbenchmark shape. *)
val ping_pong : rounds:int -> unit

(** Number of yields executed since the program started (test hook).
    Exported for [test_fibers] only. *)
val yield_count : unit -> int
