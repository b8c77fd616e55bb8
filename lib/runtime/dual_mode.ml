open Stallhide_cpu

type config = {
  engine : Engine.config;
  switch : Switch_cost.t;
  drain : bool;
  watchdog : Core_sched.watchdog option;
}

let default_config =
  {
    engine = Engine.default_config;
    switch = Switch_cost.coroutine;
    drain = true;
    watchdog = None;
  }

type result = { sched : Scheduler.result; primary_done_at : int; stats : Core_sched.stats }

let run ?(config = default_config) ?(max_cycles = max_int) ?obs hier mem ~primary ~scavengers =
  let core =
    Core_sched.create ?obs ~rotate:true
      ~config:
        { Core_sched.default_config with Core_sched.engine = config.engine; switch = config.switch }
      hier mem
  in
  Array.iter (Core_sched.add_scavenger core) scavengers;
  Option.iter (Core_sched.set_watchdog core) config.watchdog;
  let primary_done_at = ref (-1) in
  Core_sched.set_on_complete core (fun _ ~now -> primary_done_at := now);
  Core_sched.submit core primary;
  let step () = Core_sched.step core ~deadline:max_cycles = Core_sched.Worked in
  let rec serve () = if (not (Core_sched.quiescent core)) && step () then serve () in
  let rec drain () = if step () then drain () in
  serve ();
  if config.drain then drain ();
  let stats = Core_sched.stats core in
  {
    sched =
      Scheduler.collect
        (Array.append [| primary |] scavengers)
        ~clock:(Core_sched.clock core) ~switches:stats.Core_sched.switches
        ~switch_cycles:stats.Core_sched.switch_cycles ~faults:(Core_sched.faults core);
    primary_done_at = !primary_done_at;
    stats;
  }
