(* §4.2 scheduler integration: a single core serving an open-loop mix
   of latency-critical KV requests (25%) and batch analytics tasklets,
   under the three scheduling policies:

   - run-to-completion: an event-agnostic scheduler; stalls exposed;
   - side-integration: the scheduler exposes its ready set, so every
     yield has a switch target;
   - event-aware: the scheduler also classifies tasks — batch tasklets
     run in scavenger mode and return the core at their bounded yields.

   Run with: dune exec examples/task_server.exe *)

open Stallhide
open Stallhide_mem
open Stallhide_cpu
open Stallhide_runtime
open Stallhide_sched
open Stallhide_workloads

let seed = 17

let make_tasks ~interarrival =
  let im = Address_space.create ~bytes:(1 lsl 25) in
  let kv = Kv_server.make ~image:im ~lanes:8 ~requests:25 ~service_compute:60 ~seed () in
  let kv', _ = Pipeline.place ~scavenger_interval:150 kv in
  let an =
    Pointer_chase.make ~image:im ~lanes:24 ~nodes_per_lane:512 ~hops:50 ~compute:150 ~seed ()
  in
  let an', _ = Pipeline.place ~scavenger_interval:150 an in
  let tasks = ref [] in
  let kv_lane = ref 0 and an_lane = ref 0 in
  for i = 0 to 31 do
    let id = i in
    if i mod 4 = 0 && !kv_lane < 8 then begin
      let ctx = Workload.context kv' ~lane:!kv_lane ~id ~mode:Context.Primary in
      tasks := Task.create ~id ~class_:Task.Latency ~arrival:(i * interarrival) ctx :: !tasks;
      incr kv_lane
    end
    else begin
      let ctx = Workload.context an' ~lane:!an_lane ~id ~mode:Context.Primary in
      tasks := Task.create ~id ~class_:Task.Batch ~arrival:(i * interarrival) ctx :: !tasks;
      incr an_lane
    end
  done;
  (im, List.rev !tasks)

let () =
  let interarrival = 2000 in
  let rows =
    List.map
      (fun policy ->
        let im, tasks = make_tasks ~interarrival in
        let config = { Server.default_config with Server.policy; max_active = 12 } in
        let r = Server.run ~config (Hierarchy.create Memconfig.default) im tasks in
        let p q xs = match xs with [] -> "-" | _ -> Experiment.fi (Latency.percentile xs q) in
        [
          Server.policy_name policy;
          p 0.5 r.Server.latency_sojourns;
          p 0.99 r.Server.latency_sojourns;
          p 0.99 r.Server.batch_sojourns;
          Experiment.pct (Server.efficiency r);
        ])
      [ Server.Run_to_completion; Server.Side_integration; Server.Event_aware ]
  in
  Experiment.table
    ~title:(Printf.sprintf "One core, 32 tasks arriving every %d cycles" interarrival)
    ~note:"latency-class = KV requests; batch = analytics tasklets"
    ~header:[ "policy"; "KV p50"; "KV p99"; "batch p99"; "core efficiency" ]
    rows;
  print_endline
    "\nThe ready-queue exposure recovers the stalled cycles; classifying tasks\n\
     additionally protects the latency class — the paper's two §4.2 options."
