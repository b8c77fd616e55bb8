(* Command-line driver: profile / instrument / run the bundled
   workloads under any mechanism.

     stallhide_cli run --workload btree --mechanism pgo --lanes 16
     stallhide_cli disasm --workload hash-join --instrument
     stallhide_cli profile --workload pointer-chase *)

open Cmdliner
open Stallhide
open Stallhide_binopt
module Scavenger_pass = Stallhide_analysis.Scavenger_pass
open Stallhide_workloads

let workload_names =
  [
    "pointer-chase"; "hash-probe"; "btree"; "array-scan"; "hash-join"; "kv-server"; "graph-bfs";
    "group-by"; "offload"; "txn-oltp";
  ]

let make_workload name ~lanes ~ops ~manual ~seed =
  match name with
  | "pointer-chase" -> Pointer_chase.make ~manual ~lanes ~nodes_per_lane:2048 ~hops:ops ~seed ()
  | "hash-probe" -> Hash_probe.make ~manual ~lanes ~table_slots:16384 ~ops ~seed ()
  | "btree" -> Btree.make ~manual ~lanes ~keys:16384 ~ops ~seed ()
  | "array-scan" -> Array_scan.make ~manual ~lanes ~block_words:64 ~ops ~seed ()
  | "hash-join" -> Hash_join.make ~manual ~lanes ~build_rows:16384 ~ops ~seed ()
  | "kv-server" -> Kv_server.make ~manual ~lanes ~requests:ops ~seed ()
  | "graph-bfs" -> Graph_bfs.make ~manual ~lanes ~vertices:(ops * 32) ~degree:4 ~seed ()
  | "group-by" -> Group_by.make ~manual ~lanes ~groups:16384 ~tuples:ops ~seed ()
  | "offload" -> Offload.make ~manual ~lanes ~ops ~overlap:24 ~seed ()
  | "txn-oltp" -> Stallhide_txn.Txn_oltp.workload ~manual ~lanes ~txns:ops ~seed ()
  | other -> invalid_arg ("unknown workload " ^ other)

(* Bad input is a user error, not a library exception: one
   [stallhide:] line and exit 2, instead of a cmdliner usage error or a
   raw exception. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("stallhide: " ^ msg);
      exit 2)
    fmt

(* A serving command's input rules live in the library's [validate],
   which runs before anything is simulated; its refusal is a usage
   error. The run itself stays outside any handler, so an exception a
   bug raises mid-run is never mistaken for bad input. *)
let usage validate x = try validate x with Invalid_argument m -> usage_error "%s" m

let policy_of_string = function
  | "always" -> Gain_cost.Always
  | "cost-benefit" -> Gain_cost.Cost_benefit
  | s -> (
      match float_of_string_opt s with
      | Some t -> Gain_cost.Threshold t
      | None -> usage_error "--policy must be always | cost-benefit | <threshold float> (got %S)" s)

(* common options *)

let workload_arg =
  let doc = "Workload: " ^ String.concat " | " workload_names ^ "." in
  (* plain string, checked by hand: an unknown name exits 2 with the
     list *)
  Arg.(value & opt string "pointer-chase" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let check_workload name =
  if not (List.mem name workload_names) then
    usage_error "unknown workload %S (available: %s)" name (String.concat ", " workload_names)

(* The workload generators and the scavenger pass raise on a size below
   1; the single-core subcommands check first. *)
let check_sizes ?interval ~lanes ~ops () =
  if lanes < 1 then usage_error "--lanes must be at least 1 (got %d)" lanes;
  if ops < 1 then usage_error "--ops must be at least 1 (got %d)" ops;
  match interval with
  | Some i when i < 1 -> usage_error "--scavenger-interval must be at least 1 (got %d)" i
  | _ -> ()

(* Output files are user input too: fail cleanly, not with a backtrace. *)
let write_file path f =
  try f path
  with Sys_error msg ->
    Printf.eprintf "stallhide: cannot write %s\n" msg;
    exit 1

let lanes_arg =
  Arg.(value & opt int 16 & info [ "lanes" ] ~docv:"N" ~doc:"Concurrent lanes (coroutines).")

let ops_arg =
  Arg.(value & opt int 300 & info [ "ops" ] ~docv:"N" ~doc:"Operations per lane.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let policy_arg =
  Arg.(value & opt string "cost-benefit"
       & info [ "policy" ] ~docv:"POLICY" ~doc:"always | cost-benefit | <miss-prob threshold>.")

let interval_arg =
  Arg.(value & opt (some int) None
       & info [ "scavenger-interval" ] ~docv:"CYCLES"
           ~doc:"Run the scavenger pass with this target inter-yield interval.")

let no_verify_arg =
  Arg.(value & flag
       & info [ "no-verify" ]
           ~doc:"Skip translation validation of the instrumented binary (escape hatch).")

(* Shared by [disasm --instrument] and [instrument]: build the
   instrumented program, from a saved profile when given (the
   offline-build half of the AutoFDO-style flow). *)
let instrument_workload ?profile_file ?scavenger_interval ~primary ~verify w =
  match profile_file with
  | Some path ->
      let profile =
        try
          Stallhide_pmu.Profile.load ~program:w.Workload.program
            (In_channel.with_open_bin path In_channel.input_all)
        with Sys_error msg | Failure msg -> usage_error "cannot load profile: %s" msg
      in
      let estimates = Gain_cost.of_profile profile in
      let pc_cycles pc = Stallhide_pmu.Profile.pc_cycles profile pc in
      let wait_stalls pc = Stallhide_pmu.Profile.stalls_at profile pc in
      Pipeline.instrument_with ~estimates ~pc_cycles ~wait_stalls ~primary ?scavenger_interval
        ~verify w.Workload.program
  | None -> snd (Pipeline.place ~primary ?scavenger_interval ~verify w)

(* run *)

let mechanisms = [ "none"; "manual"; "pgo"; "smt"; "os-threads"; "ooo" ]

let mechanism_arg =
  let doc = "Mechanism: " ^ String.concat " | " mechanisms ^ "." in
  Arg.(value & opt (enum (List.map (fun m -> (m, m)) mechanisms)) "pgo"
       & info [ "m"; "mechanism" ] ~docv:"MECH" ~doc)

let placements =
  Arg.enum
    (List.map (fun p -> (Pipeline.placement_name p, p)) Pipeline.[ Pgo; Static; Hybrid ])

let placement_arg =
  Arg.(value
       & opt placements Pipeline.Pgo
       & info [ "placement" ] ~docv:"MODE"
           ~doc:
             "Yield-site placement evidence for the pgo mechanism: $(b,pgo) \
              (profile-guided, the default), $(b,static) (must/may cache analysis, no \
              profiling run at all), $(b,hybrid) (profile plus proven static overrides).")

(* A nonzero drop counter means the trace buffer wrapped: counters are
   exact but the event timeline (and anything derived from it —
   Perfetto tracks, critical paths) under-reports. Always warn;
   silence would masquerade as a complete trace. *)
let warn_dropped label stream =
  let d = Stallhide_obs.Stream.dropped stream in
  if d > 0 then
    Printf.eprintf
      "stallhide: warning: %s trace stream dropped %d event(s) (buffer full) — timeline-derived \
       views are incomplete\n"
      label d

let run_cmd =
  let run workload mechanism placement lanes ops seed policy interval json trace_out prom_out
      attribution no_verify =
    check_workload workload;
    check_sizes ?interval ~lanes ~ops ();
    if attribution && mechanism <> "pgo" then
      usage_error "--attribution needs --mechanism pgo (got %s)" mechanism;
    if attribution && placement <> Pipeline.Pgo then
      usage_error "--attribution needs --placement pgo (got %s)"
        (Pipeline.placement_name placement);
    if placement <> Pipeline.Pgo && mechanism <> "pgo" then
      usage_error "--placement applies to --mechanism pgo (got %s)" mechanism;
    let module Obs = Stallhide_obs in
    let stream =
      if json || trace_out <> None || prom_out <> None then Some (Obs.Stream.create ())
      else None
    in
    let opts = { Baselines.default_opts with Baselines.obs = stream } in
    let w manual = make_workload workload ~lanes ~ops ~manual ~seed in
    let primary =
      { Primary_pass.default_opts with Primary_pass.policy = policy_of_string policy }
    in
    let metrics, inst, attr =
      match mechanism with
      | "none" -> (Baselines.run_sequential ~opts (w false), None, None)
      | "manual" ->
          (Baselines.run_round_robin ~label:(workload ^ "/manual") ~opts (w true), None, None)
      | "smt" -> (Baselines.run_smt ~opts (w false), None, None)
      | "ooo" -> (Baselines.run_ooo ~opts ~window:48 (w false), None, None)
      | "os-threads" ->
          ( Baselines.run_round_robin ~label:(workload ^ "/os-threads")
              ~opts:{ opts with Baselines.switch = Stallhide_runtime.Switch_cost.os_process }
              (w true),
            None,
            None )
      | "pgo" when attribution ->
          let a =
            Baselines.run_pgo_attributed ~opts ~primary ?scavenger_interval:interval
              ~verify:(not no_verify) (w false)
          in
          (a.Baselines.pgo_metrics, Some a.Baselines.inst, Some a.Baselines.attribution)
      | "pgo" ->
          let m, i =
            Baselines.run_pgo ~opts ~placement ~primary ?scavenger_interval:interval
              ~verify:(not no_verify) (w false)
          in
          (m, Some i, None)
      | other -> invalid_arg other
    in
    (match stream with Some s -> warn_dropped "run" s | None -> ());
    (match trace_out with
    | Some path -> write_file path (fun path -> Obs.Perfetto.write ~path (Option.get stream))
    | None -> ());
    (match prom_out with
    | Some path ->
        write_file path (fun path ->
            let oc = open_out path in
            output_string oc (Obs.Registry.to_prometheus (Obs.Stream.registry (Option.get stream)));
            close_out oc)
    | None -> ());
    if json then begin
      let telemetry =
        match stream with
        | Some s ->
            [
              ( "telemetry",
                Stallhide_util.Json.Obj
                  [
                    ("events", Stallhide_util.Json.Int (Obs.Stream.length s));
                    ("dropped", Stallhide_util.Json.Int (Obs.Stream.dropped s));
                    ("registry", Obs.Registry.to_json (Obs.Stream.registry s));
                  ] );
            ]
        | None -> []
      in
      let attr_json =
        match attr with Some a -> [ ("attribution", Attribution.to_json a) ] | None -> []
      in
      print_endline
        (Stallhide_util.Json.to_string_pretty
           (Stallhide_util.Json.Obj
              ([
                 ("schema_version", Stallhide_util.Json.Int 1);
                 ("workload", Stallhide_util.Json.String workload);
                 ("mechanism", Stallhide_util.Json.String mechanism);
                 ("placement", Stallhide_util.Json.String (Pipeline.placement_name placement));
                 ("metrics", Metrics.to_json metrics);
               ]
              @ telemetry @ attr_json)))
    end
    else begin
      (match inst with
      | Some i ->
          Printf.printf "instrumentation: %d loads selected, %d yield sites, %d coalesced groups\n"
            (List.length i.Pipeline.primary.Primary_pass.selected)
            i.Pipeline.primary.Primary_pass.yield_sites
            i.Pipeline.primary.Primary_pass.coalesced_groups;
          (match i.Pipeline.scavenger with
          | Some r ->
              Printf.printf "scavenger pass: %d conditional yields\n" r.Scavenger_pass.inserted
          | None -> ())
      | None -> ());
      Format.printf "%a@." Metrics.pp metrics;
      (match attr with
      | Some a -> Format.printf "@.yield-site attribution:@.%a" Attribution.pp_report a
      | None -> ());
      match trace_out with
      | Some path -> Printf.printf "trace written to %s\n" path
      | None -> ()
    end
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the metrics (and any telemetry) as JSON on stdout.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write a Chrome/Perfetto trace_event JSON of the run to $(docv).")
  in
  let attribution_arg =
    Arg.(value & flag
         & info [ "attribution" ]
             ~doc:"With --mechanism pgo: report per-yield-site predicted vs measured gain.")
  in
  let prom_out_arg =
    Arg.(value & opt (some string) None
         & info [ "prom-out" ] ~docv:"FILE"
             ~doc:"Write the run's counter registry in Prometheus text exposition format to $(docv).")
  in
  let term =
    Term.(
      const run $ workload_arg $ mechanism_arg $ placement_arg $ lanes_arg $ ops_arg $ seed_arg
      $ policy_arg $ interval_arg $ json_arg $ trace_out_arg $ prom_out_arg $ attribution_arg
      $ no_verify_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a workload under a stall-hiding mechanism and print metrics.")
    term

(* analyze *)

let analyze_cmd =
  let module A = Stallhide_analysis.Analysis in
  let analyze workload lanes ops seed json strict =
    check_workload workload;
    check_sizes ~lanes ~ops ();
    let w = make_workload workload ~lanes ~ops ~manual:false ~seed in
    let a = A.run w.Workload.program in
    if json then print_endline (Stallhide_util.Json.to_string_pretty (A.to_json a))
    else Format.printf "%a@." A.pp_table a;
    if strict then begin
      let v = A.strict_violations a in
      if (not a.A.converged) || v <> [] then begin
        Printf.eprintf
          "stallhide: analyze --strict: %d unknown load(s) inside loops%s\n"
          (List.length v)
          (if a.A.converged then "" else " (analysis did not converge)");
        exit 1
      end
    end
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Emit the per-site classification, loop bounds and summary counts as JSON \
                (schema_version 1).")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:
               "Exit nonzero when any load inside a loop is classified $(b,unknown) (or the \
                fixpoint failed to converge) — the CI gate for provably-placed binaries.")
  in
  let term =
    Term.(const analyze $ workload_arg $ lanes_arg $ ops_arg $ seed_arg $ json_arg $ strict_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the static must/may cache analysis on a workload's program: classify every \
          load/store as always-hit / always-miss / unknown, infer counted-loop trip counts, \
          and report the proof obligations behind profile-free yield placement.")
    term

(* disasm *)

let profile_file_arg =
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"FILE" ~doc:"Instrument from a saved profile instead of re-profiling.")

let disasm_cmd =
  let disasm workload lanes ops seed instrument profile_file policy interval no_verify =
    check_workload workload;
    check_sizes ?interval ~lanes ~ops ();
    let w = make_workload workload ~lanes ~ops ~manual:false ~seed in
    if instrument then begin
      let primary =
        { Primary_pass.default_opts with Primary_pass.policy = policy_of_string policy }
      in
      let inst =
        instrument_workload ?profile_file ?scavenger_interval:interval ~primary
          ~verify:(not no_verify) w
      in
      Format.printf "%a" Stallhide_isa.Program.pp inst.Pipeline.program
    end
    else Format.printf "%a" Stallhide_isa.Program.pp w.Workload.program
  in
  let instrument_arg =
    Arg.(value & flag & info [ "instrument" ] ~doc:"Show the profile-instrumented binary.")
  in
  let term =
    Term.(
      const disasm $ workload_arg $ lanes_arg $ ops_arg $ seed_arg $ instrument_arg
      $ profile_file_arg $ policy_arg $ interval_arg $ no_verify_arg)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Print a workload's program, optionally after instrumentation.")
    term

(* instrument *)

let instrument_cmd =
  let instrument workload lanes ops seed profile_file policy interval no_verify output =
    check_workload workload;
    check_sizes ?interval ~lanes ~ops ();
    let w = make_workload workload ~lanes ~ops ~manual:false ~seed in
    let primary =
      { Primary_pass.default_opts with Primary_pass.policy = policy_of_string policy }
    in
    let inst =
      instrument_workload ?profile_file ?scavenger_interval:interval ~primary
        ~verify:(not no_verify) w
    in
    let text = Format.asprintf "%a" Stallhide_isa.Program.pp inst.Pipeline.program in
    (* [Program.pp] emits Asm syntax; reparse as a self-check so the
       emitted file is guaranteed assemblable *)
    (match Stallhide_isa.Asm.parse text with
    | (_ : Stallhide_isa.Program.t) -> ()
    | exception Stallhide_isa.Asm.Parse_error (line, msg) ->
        Printf.eprintf "stallhide: internal error: emitted program does not reassemble (line %d: %s)\n"
          line msg;
        exit 1);
    match output with
    | Some path ->
        write_file path (fun path ->
            let oc = open_out path in
            output_string oc text;
            close_out oc);
        Printf.printf "instrumented program written to %s (%d instructions, %d yield sites)\n"
          path
          (Stallhide_isa.Program.length inst.Pipeline.program)
          inst.Pipeline.primary.Primary_pass.yield_sites
    | None -> print_string text
  in
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the rewritten program to $(docv) instead of stdout.")
  in
  let term =
    Term.(
      const instrument $ workload_arg $ lanes_arg $ ops_arg $ seed_arg $ profile_file_arg
      $ policy_arg $ interval_arg $ no_verify_arg $ output_arg)
  in
  Cmd.v
    (Cmd.info "instrument"
       ~doc:
         "Emit the instrumented (rewritten) program as assemblable text. Unlike disasm, the \
          output is validated to round-trip through the assembler.")
    term

(* lint *)

let lint_passes = [ "primary"; "scavenger"; "sfi"; "pgo" ]

let lint_cmd =
  let module V = Stallhide_verify.Verify in
  let module D = Stallhide_verify.Diagnostic in
  let lint workload passes lanes ops seed policy interval strict json =
    let workloads =
      if workload = "all" then workload_names
      else begin
        check_workload workload;
        [ workload ]
      end
    in
    check_sizes ?interval ~lanes ~ops ();
    let passes = match passes with [] -> lint_passes | ps -> ps in
    let interval = match interval with Some i -> i | None -> 50 in
    let primary =
      { Primary_pass.default_opts with Primary_pass.policy = policy_of_string policy }
    in
    let registry = Stallhide_obs.Registry.create () in
    let lint_one name pass =
      let w = make_workload name ~lanes ~ops ~manual:false ~seed in
      let orig = w.Workload.program in
      (* full-trace estimates: lint grades the passes, not the profiler *)
      let estimates = lazy (Pipeline.oracle_estimates w) in
      match pass with
      | "primary" ->
          let prog, map, _ = Primary_pass.run primary (Lazy.force estimates) orig in
          V.validate ~orig ~orig_of_new:map ~registry prog
      | "scavenger" ->
          let opts =
            { Scavenger_pass.default_opts with Scavenger_pass.target_interval = interval }
          in
          let prog, map, _ = Scavenger_pass.run opts orig in
          V.validate ~orig ~orig_of_new:map ~target_interval:interval ~registry prog
      | "sfi" ->
          let prog, map, _ = Sfi_pass.run Sfi_pass.default_opts orig in
          V.validate ~orig ~orig_of_new:map ~expect_sfi:true ~registry prog
      | "pgo" ->
          let inst =
            Pipeline.instrument_with ~estimates:(Lazy.force estimates) ~primary
              ~scavenger_interval:interval ~verify:false orig
          in
          V.validate ~orig ~orig_of_new:inst.Pipeline.orig_of_new ~target_interval:interval
            ~registry inst.Pipeline.program
      | other -> invalid_arg ("unknown pass " ^ other)
    in
    let results =
      List.concat_map
        (fun name -> List.map (fun pass -> (name, pass, lint_one name pass)) passes)
        workloads
    in
    let total f = List.fold_left (fun acc (_, _, o) -> acc + f o) 0 results in
    let total_errors = total V.errors and total_warnings = total V.warnings in
    if json then
      print_endline
        (Stallhide_util.Json.to_string_pretty
           (Stallhide_util.Json.Obj
              [
                ("schema_version", Stallhide_util.Json.Int 1);
                ("strict", Stallhide_util.Json.Bool strict);
                ( "results",
                  Stallhide_util.Json.List
                    (List.map
                       (fun (wname, pass, o) ->
                         Stallhide_util.Json.Obj
                           [
                             ("workload", Stallhide_util.Json.String wname);
                             ("pass", Stallhide_util.Json.String pass);
                             ("verify", V.outcome_to_json o);
                           ])
                       results) );
                ("registry", Stallhide_obs.Registry.to_json registry);
              ]))
    else begin
      List.iter
        (fun (wname, pass, o) ->
          if V.clean o then Printf.printf "%-14s %-10s clean\n" wname pass
          else begin
            Printf.printf "%-14s %-10s %d error(s), %d warning(s)\n" wname pass (V.errors o)
              (V.warnings o);
            List.iter (fun d -> Format.printf "  %a@." D.pp d) o.V.diags
          end)
        results;
      Printf.printf "lint: %d combination(s), %d error(s), %d warning(s)%s\n"
        (List.length results) total_errors total_warnings
        (if strict then " [strict]" else "")
    end;
    if total_errors > 0 || (strict && total_warnings > 0) then exit 1
  in
  let lint_workload_arg =
    let doc = "Workload to lint, or $(b,all): " ^ String.concat " | " workload_names ^ "." in
    Arg.(value & opt string "all" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)
  in
  let passes_arg =
    let doc = "Pass combination to lint (repeatable; default all): "
              ^ String.concat " | " lint_passes ^ "." in
    Arg.(value & opt_all (enum (List.map (fun p -> (p, p)) lint_passes)) []
         & info [ "p"; "pass" ] ~docv:"PASS" ~doc)
  in
  let strict_arg =
    Arg.(value & flag & info [ "strict" ] ~doc:"Exit nonzero on warnings too, not just errors.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit results (and the counter registry) as JSON.")
  in
  let lint_ops_arg =
    Arg.(value & opt int 60 & info [ "ops" ] ~docv:"N" ~doc:"Operations per lane.")
  in
  let lint_lanes_arg =
    Arg.(value & opt int 4 & info [ "lanes" ] ~docv:"N" ~doc:"Concurrent lanes (coroutines).")
  in
  let term =
    Term.(
      const lint $ lint_workload_arg $ passes_arg $ lint_lanes_arg $ lint_ops_arg $ seed_arg
      $ policy_arg $ interval_arg $ strict_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Translation-validate instrumented binaries: run each workload through each pass \
          combination and report every verifier diagnostic.")
    term

(* trace *)

let trace_cmd =
  let trace workload lanes ops seed interval width cycles format output =
    check_workload workload;
    check_sizes ?interval ~lanes ~ops ();
    if width < 1 then usage_error "--width must be at least 1 (got %d)" width;
    if cycles < 1 then usage_error "--cycles must be at least 1 (got %d)" cycles;
    let module Obs = Stallhide_obs in
    let w = make_workload workload ~lanes ~ops ~manual:false ~seed in
    let w', _ = Pipeline.place ?scavenger_interval:interval w in
    (* the stream carries both the engine and the scheduler events; the
       ASCII chart is a view over it *)
    let stream = Obs.Stream.create () in
    let opts = { Baselines.default_opts with Baselines.obs = Some stream; max_cycles = cycles } in
    let (_ : Metrics.t) = Baselines.run_round_robin ~opts w' in
    match format with
    | "perfetto" ->
        let path = match output with Some p -> p | None -> "trace.json" in
        write_file path (fun path -> Obs.Perfetto.write ~path stream);
        Printf.printf "trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n" path
    | _ -> (
        let chart = Obs.Stream.timeline ~width stream in
        match output with
        | Some path ->
            write_file path (fun path ->
                let oc = open_out path in
                output_string oc chart;
                close_out oc);
            Printf.printf "timeline written to %s\n" path
        | None -> print_string chart)
  in
  let width_arg =
    Arg.(value & opt int 100 & info [ "width" ] ~docv:"COLS" ~doc:"Chart width in columns.")
  in
  let cycles_arg =
    Arg.(value & opt int 5000 & info [ "cycles" ] ~docv:"N" ~doc:"Simulated cycles to trace.")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("ascii", "ascii"); ("perfetto", "perfetto") ]) "ascii"
         & info [ "format" ] ~docv:"FMT"
             ~doc:"ascii draws a Gantt chart; perfetto writes trace_event JSON.")
  in
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write to $(docv) instead of stdout (perfetto default: trace.json).")
  in
  let term =
    Term.(
      const trace $ workload_arg $ lanes_arg $ ops_arg $ seed_arg $ interval_arg $ width_arg
      $ cycles_arg $ format_arg $ output_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace the instrumented workload under round-robin: ASCII timeline or Chrome/Perfetto \
          JSON.")
    term

(* profile *)

let profile_cmd =
  let profile workload lanes ops seed output =
    check_workload workload;
    check_sizes ~lanes ~ops ();
    let w = make_workload workload ~lanes ~ops ~manual:false ~seed in
    let profiled = Pipeline.profile w in
    Printf.printf "profiling run: %d cycles, %d samples (est. overhead %.2f%%)\n"
      profiled.Pipeline.run_cycles profiled.Pipeline.samples
      (100.0
      *. float_of_int profiled.Pipeline.overhead_cycles
      /. float_of_int (max 1 profiled.Pipeline.run_cycles));
    Format.printf "%a" Stallhide_pmu.Profile.pp_summary profiled.Pipeline.profile;
    match output with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Stallhide_pmu.Profile.save profiled.Pipeline.profile);
        close_out oc;
        Printf.printf "profile written to %s\n" path
  in
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Persist the profile (AutoFDO-style).")
  in
  let term = Term.(const profile $ workload_arg $ lanes_arg $ ops_arg $ seed_arg $ output_arg) in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run sample-based profiling, print the per-load estimates, optionally save them.")
    term

(* inject *)

let inject_cmd =
  let module F = Stallhide_faults.Faults in
  let module H = Stallhide_faults.Harness in
  let inject specs workload lanes ops seed json output =
    check_sizes ~lanes ~ops ();
    let workloads =
      if workload = "all" then H.workload_names
      else begin
        if not (List.mem workload H.workload_names || workload = "kv-cluster") then
          usage_error "inject supports workloads %s, kv-cluster (or all), got %S"
            (String.concat ", " H.workload_names) workload;
        [ workload ]
      end
    in
    (* -w all with no explicit specs covers the cluster faults too;
       explicit net-fault specs always route to the cluster harness *)
    let specs =
      if specs <> [] then specs
      else if workload = "all" then F.fault_names @ F.net_fault_names
      else if workload = "kv-cluster" then F.net_fault_names
      else F.fault_names
    in
    let faults =
      try List.map F.parse_spec specs with Invalid_argument msg -> usage_error "%s" msg
    in
    let net_faults, machine_faults = List.partition F.is_net faults in
    let module CH = Stallhide_cluster.Harness in
    let cluster = { CH.default_params with seed } in
    (* the kv-cluster takes every fault, so [CH.validate] refuses a
       single-machine one *)
    let cluster_faults = if workload = "kv-cluster" then faults else net_faults in
    if cluster_faults <> [] then usage CH.validate { cluster with faults = cluster_faults };
    let machine_rows =
      if machine_faults = [] then []
      else H.run_plan ~opts:{ H.lanes; ops; seed } ~workloads { F.faults = machine_faults; seed }
    in
    let cluster_rows = if net_faults = [] then [] else CH.fault_rows cluster net_faults in
    let rows = machine_rows @ cluster_rows in
    let doc =
      Stallhide_util.Json.Obj
        [
          ("schema_version", Stallhide_util.Json.Int 1);
          ("seed", Stallhide_util.Json.Int seed);
          ("rows", H.rows_to_json rows);
        ]
    in
    if json then print_endline (Stallhide_util.Json.to_string_pretty doc)
    else begin
      Printf.printf "%-6s %-13s %-10s %10s %9s %7s %7s %7s  %s\n" "fault" "workload" "arm"
        "cycles" "hidden" "p50" "p99" "p999" "defense counters";
      List.iter
        (fun (r : H.row) ->
          let fired = List.filter (fun (_, v) -> v > 0) r.H.counters in
          Printf.printf "%-6s %-13s %-10s %10d %9d %7d %7d %7d  %s\n" r.H.scenario r.H.workload
            r.H.arm r.H.cycles r.H.hidden_cycles
            r.H.latency.Stallhide_runtime.Latency.p50 r.H.latency.Stallhide_runtime.Latency.p99
            r.H.latency.Stallhide_runtime.Latency.p999
            (if fired = [] then "-"
             else
               String.concat " "
                 (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fired)))
        rows
    end;
    match output with
    | None -> ()
    | Some path ->
        write_file path (fun path -> Stallhide_util.Json.write ~path doc);
        if not json then Printf.printf "rows written to %s\n" path
  in
  let inject_arg =
    let doc =
      "Fault spec (repeatable): drift[:shrink=N] | pebs[:loss=F,skid=N,misattr=F] | \
       spike[:at=N,for=N,l3=N,dram=N] | rogue[:count=N,compute=N] | cluster-level \
       crash[:m=N,at=N%,down=N] | slownode[:m=N,mult=N] | netloss[:p=F,reorder=F] | \
       nicdrop[:depth=N] (run on the kv-cluster). Default: all single-machine faults, plus \
       the net faults with -w all."
    in
    Arg.(value & opt_all string [] & info [ "i"; "inject" ] ~docv:"SPEC" ~doc)
  in
  let inject_workload_arg =
    let doc =
      "Workload: " ^ String.concat " | " Stallhide_faults.Harness.workload_names
      ^ " | all (the full matrix)."
    in
    Arg.(value & opt string "pointer-chase" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)
  in
  let inject_lanes_arg =
    Arg.(value & opt int 8 & info [ "lanes" ] ~docv:"N" ~doc:"Concurrent lanes (coroutines).")
  in
  let inject_ops_arg =
    Arg.(value & opt int 1000 & info [ "ops" ] ~docv:"N" ~doc:"Operations per lane.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the full row matrix as JSON on stdout.")
  in
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Also write the JSON rows to $(docv).")
  in
  let term =
    Term.(
      const inject $ inject_arg $ inject_workload_arg $ inject_lanes_arg $ inject_ops_arg
      $ seed_arg $ json_arg $ output_arg)
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Run the fault-injection matrix: each fault on each workload, fault-free vs \
          undefended vs defended, reporting hidden cycles, latency tails and defense \
          counters.")
    term

(* smp *)

let smp_cmd =
  let module Smp = Stallhide_smp in
  let module Obs = Stallhide_obs in
  let module J = Stallhide_util.Json in
  let smp workload cores policy steal pgo placement seed requests_per_core interarrival skew
      json trace_out =
    (* the multi-core harness serves the sharded kv-server; other
       workloads keep their single-core `run` path *)
    (match workload with
    | "kv-server" | "kv_server" -> ()
    | other -> usage_error "smp serves the sharded kv-server (got %S)" other);
    let policy =
      match Stallhide_sched.Dispatch.policy_of_string policy with
      | Some p -> p
      | None -> usage_error "unknown policy %S (available: d-fcfs, jbsq)" policy
    in
    let params =
      {
        Smp.Harness.default_params with
        Smp.Harness.cores;
        policy;
        steal;
        pgo;
        placement;
        seed;
        requests_per_core;
        interarrival;
        skew;
        (* the per-core streams are read only for the Perfetto export *)
        trace = trace_out <> None;
      }
    in
    usage Smp.Harness.validate params;
    let r = Smp.Harness.run params in
    (* single-core reference of the same config, for scaling numbers *)
    let base =
      if cores = 1 then r
      else Smp.Harness.run { (Smp.Harness.reference_params params) with trace = false }
    in
    let speedup = Smp.Harness.speedup ~base r in
    let efficiency = Smp.Harness.efficiency ~base r in
    (match trace_out with
    | Some path ->
        Array.iter
          (fun (c : Smp.Machine.core_result) ->
            warn_dropped (Printf.sprintf "core%d" c.Smp.Machine.core_id) c.Smp.Machine.stream)
          r.Smp.Harness.result.Smp.Machine.per_core;
        write_file path (fun path ->
            Obs.Perfetto.write_tracks ~path
              (Array.to_list
                 (Array.map
                    (fun (c : Smp.Machine.core_result) ->
                      (Printf.sprintf "core%d" c.Smp.Machine.core_id, c.Smp.Machine.stream))
                    r.Smp.Harness.result.Smp.Machine.per_core)))
    | None -> ());
    if json then begin
      let fields =
        match Smp.Harness.to_json r with J.Obj fields -> fields | _ -> assert false
      in
      print_endline
        (J.to_string_pretty
           (J.Obj
              (("schema_version", J.Int 1)
               :: fields
              @ [
                  ( "scaling",
                    J.Obj
                      [
                        ("base_cores", J.Int 1);
                        ("base_throughput_rpk", J.Float base.Smp.Harness.throughput);
                        ("speedup", J.Float speedup);
                        ("efficiency", J.Float efficiency);
                      ] );
                  ( "registry",
                    J.Obj [ ("core", Smp.Machine.counters_json r.Smp.Harness.result) ] );
                ])))
    end
    else begin
      let res = r.Smp.Harness.result in
      let s = res.Smp.Machine.summary in
      Printf.printf "smp: %d core(s), policy %s, steal %s, pgo %s (%s placement), seed %d\n"
        cores
        (Stallhide_sched.Dispatch.policy_name policy)
        (if steal then "on" else "off")
        (if pgo then "on" else "off")
        (Pipeline.placement_name placement)
        seed;
      Printf.printf "requests: %d completed, %d faulted in %d cycles (%.3f req/kcycle)\n"
        res.Smp.Machine.completed res.Smp.Machine.faulted res.Smp.Machine.cycles
        r.Smp.Harness.throughput;
      Printf.printf "latency: mean=%.0f p50=%d p90=%d p99=%d p999=%d max=%d\n"
        s.Stallhide_runtime.Latency.mean s.Stallhide_runtime.Latency.p50
        s.Stallhide_runtime.Latency.p90 s.Stallhide_runtime.Latency.p99
        s.Stallhide_runtime.Latency.p999 s.Stallhide_runtime.Latency.max;
      let l3 = res.Smp.Machine.l3 in
      Printf.printf
        "shared l3: %d admitted, %d queued (%d cycles), %d writes, %d invalidations\n"
        l3.Stallhide_mem.Shared_l3.admitted l3.Stallhide_mem.Shared_l3.queued
        l3.Stallhide_mem.Shared_l3.queue_cycles l3.Stallhide_mem.Shared_l3.writes
        l3.Stallhide_mem.Shared_l3.invalidations;
      Printf.printf "steals: %d (%d donated)\n" res.Smp.Machine.steals
        res.Smp.Machine.donations;
      Printf.printf "%-5s %9s %6s %6s %7s %8s %6s %6s %6s %6s\n" "core" "cycles" "disp"
        "scav" "switch" "swcyc" "steal" "don" "esc" "compl";
      Array.iter
        (fun (c : Smp.Machine.core_result) ->
          let st = c.Smp.Machine.stats in
          Printf.printf "%-5d %9d %6d %6d %7d %8d %6d %6d %6d %6d\n" c.Smp.Machine.core_id
            c.Smp.Machine.cycles st.Stallhide_runtime.Core_sched.dispatches
            st.Stallhide_runtime.Core_sched.scav_dispatches
            st.Stallhide_runtime.Core_sched.switches
            st.Stallhide_runtime.Core_sched.switch_cycles
            st.Stallhide_runtime.Core_sched.steals st.Stallhide_runtime.Core_sched.donated
            st.Stallhide_runtime.Core_sched.escalations
            st.Stallhide_runtime.Core_sched.completions)
        res.Smp.Machine.per_core;
      if cores > 1 then
        Printf.printf "scaling vs 1 core: speedup %.2f, efficiency %.2f\n" speedup efficiency;
      Printf.printf "verify: %d program(s), %d error(s), %d warning(s)\n"
        r.Smp.Harness.verify_programs r.Smp.Harness.verify_errors
        r.Smp.Harness.verify_warnings;
      match trace_out with
      | Some path -> Printf.printf "trace written to %s\n" path
      | None -> ()
    end
  in
  let smp_workload_arg =
    Arg.(value & opt string "kv-server"
         & info [ "w"; "workload" ] ~docv:"NAME"
             ~doc:"Workload to serve; the multi-core harness supports kv-server.")
  in
  let cores_arg =
    Arg.(value & opt int 4 & info [ "cores" ] ~docv:"N" ~doc:"Number of simulated cores.")
  in
  let smp_policy_arg =
    Arg.(value & opt string "jbsq"
         & info [ "policy" ] ~docv:"POLICY" ~doc:"Dispatch policy: d-fcfs | jbsq.")
  in
  let steal_arg =
    Arg.(value & vflag true
           [
             (true, info [ "steal" ] ~doc:"Enable cross-core scavenger stealing (default).");
             (false, info [ "no-steal" ] ~doc:"Disable cross-core scavenger stealing.");
           ])
  in
  let pgo_arg =
    Arg.(value & vflag true
           [
             (true, info [ "pgo" ] ~doc:"Serve instrumented programs (default).");
             (false, info [ "no-pgo" ] ~doc:"Serve uninstrumented programs (no stall hiding).");
           ])
  in
  let smp_placement_arg =
    Arg.(value
         & opt placements Pipeline.Pgo
         & info [ "placement" ] ~docv:"MODE"
             ~doc:
               "Site-selection evidence for the served programs: $(b,pgo) | $(b,static) | \
                $(b,hybrid) (see $(b,run --placement)). Ignored under --no-pgo.")
  in
  let requests_arg =
    Arg.(value & opt int Stallhide_smp.Harness.default_params.Stallhide_smp.Harness.requests_per_core
         & info [ "requests-per-core" ] ~docv:"N" ~doc:"Offered requests per core.")
  in
  let interarrival_arg =
    Arg.(value & opt int Stallhide_smp.Harness.default_params.Stallhide_smp.Harness.interarrival
         & info [ "interarrival" ] ~docv:"CYCLES"
             ~doc:"Mean per-core cycles between request arrivals (open loop).")
  in
  let skew_arg =
    Arg.(value & opt float Stallhide_smp.Harness.default_params.Stallhide_smp.Harness.skew
         & info [ "skew" ] ~docv:"S" ~doc:"Zipf exponent over the key universe.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit machine totals, per-core rows, scaling and the counter registry as JSON.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:
               "Trace the run (every core's engine events through its probe) and write a \
                Perfetto trace with one named track per core to $(docv).")
  in
  let term =
    Term.(
      const smp $ smp_workload_arg $ cores_arg $ smp_policy_arg $ steal_arg $ pgo_arg
      $ smp_placement_arg $ seed_arg $ requests_arg $ interarrival_arg $ skew_arg $ json_arg
      $ trace_out_arg)
  in
  Cmd.v
    (Cmd.info "smp"
       ~doc:
         "Serve the sharded kv-server on an N-core machine (shared L3, d-FCFS or JBSQ \
          dispatch, cross-core scavenger stealing) and report throughput, tail latency and \
          scaling vs a single core.")
    term

(* cluster *)

let cluster_cmd =
  let module CH = Stallhide_cluster.Harness in
  let module Cl = Stallhide_cluster.Cluster in
  let module Lb = Stallhide_cluster.Lb in
  let module F = Stallhide_faults.Faults in
  let module L = Stallhide_runtime.Latency in
  let module J = Stallhide_util.Json in
  let cluster machines cores lb policy specs defend pgo requests interarrival skew seed json
      output =
    let lb =
      match Lb.policy_of_string lb with
      | Some l -> l
      | None -> usage_error "unknown LB policy %S (available: hash, least, p2c)" lb
    in
    let policy =
      match Stallhide_sched.Dispatch.policy_of_string policy with
      | Some p -> p
      | None -> usage_error "unknown policy %S (available: d-fcfs, jbsq)" policy
    in
    let faults =
      try List.map F.parse_spec specs with Invalid_argument msg -> usage_error "%s" msg
    in
    let params =
      {
        CH.default_params with
        CH.machines;
        cores;
        lb;
        policy;
        pgo;
        requests;
        interarrival;
        skew;
        seed;
        faults;
      }
    in
    usage CH.validate params;
    let params =
      if not defend then params
      else begin
        let d, slo = CH.calibrate params in
        { params with CH.defense = Some d; slo_deadline = slo }
      end
    in
    let r = CH.run params in
    let res = r.CH.result in
    if res.Cl.truncated > 0 then
      Printf.eprintf
        "stallhide: warning: %d of %d request(s) still pending at the %d-cycle horizon \
         (truncated, not answered)\n"
        res.Cl.truncated res.Cl.offered params.CH.horizon;
    let doc =
      J.Obj
        (("schema_version", J.Int 1)
        ::
        (match CH.to_json r with J.Obj fields -> fields | _ -> assert false))
    in
    if json then print_endline (J.to_string_pretty doc)
    else begin
      let split = res.Cl.split in
      Printf.printf
        "cluster: %d machine(s) x %d core(s), lb %s, policy %s, pgo %s, %s, seed %d\n" machines
        cores (Lb.policy_name lb)
        (Stallhide_sched.Dispatch.policy_name policy)
        (if pgo then "on" else "off")
        (if defend then "defended" else "undefended")
        seed;
      (match faults with
      | [] -> Printf.printf "faults: none\n"
      | fs -> Printf.printf "faults: %s\n" (String.concat ", " (List.map F.describe fs)));
      Printf.printf
        "requests: %d offered -> %d acked, %d expired, %d shed, %d unanswered, %d truncated (%d \
         cycles, %.3f acked/kcycle)\n"
        res.Cl.offered res.Cl.acked res.Cl.expired res.Cl.shed res.Cl.unanswered res.Cl.truncated
        res.Cl.cycles r.CH.goodput_rpk;
      Printf.printf "slo: %.2f%% violations (deadline %d cycles); lost acked: %d\n"
        (100.0 *. L.violation_rate split)
        params.CH.slo_deadline res.Cl.lost_acked;
      Printf.printf "latency (goodput): mean=%.0f p50=%d p90=%d p99=%d p999=%d max=%d\n"
        split.L.goodput.L.mean split.L.goodput.L.p50 split.L.goodput.L.p90
        split.L.goodput.L.p99 split.L.goodput.L.p999 split.L.goodput.L.max;
      Printf.printf "latency (offered, censored): p50=%d p90=%d p99=%d p999=%d\n"
        split.L.full.L.p50 split.L.full.L.p90 split.L.full.L.p99 split.L.full.L.p999;
      let fired = List.filter (fun (_, v) -> v > 0) res.Cl.counters in
      if fired <> [] then
        Printf.printf "counters: %s\n"
          (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) fired));
      Printf.printf "%-8s %9s %6s %9s %6s %6s %6s %8s\n" "machine" "cycles" "compl" "restarts"
        "rx" "fast" "ovfl" "state";
      Array.iter
        (fun (v : Cl.node_view) ->
          Printf.printf "%-8d %9d %6d %9d %6d %6d %6d %8s\n" v.Cl.id v.Cl.cycles v.Cl.completed
            v.Cl.restarts v.Cl.nic_rx v.Cl.nic_fast v.Cl.nic_overflow
            (if v.Cl.crashed then "down" else "up"))
        res.Cl.nodes
    end;
    match output with
    | None -> ()
    | Some path ->
        write_file path (fun path -> J.write ~path doc);
        if not json then Printf.printf "result written to %s\n" path
  in
  let machines_arg =
    Arg.(value & opt int 4 & info [ "machines" ] ~docv:"M" ~doc:"Number of machines.")
  in
  let cores_arg =
    Arg.(value & opt int 4 & info [ "cores" ] ~docv:"N" ~doc:"Cores per machine.")
  in
  let lb_arg =
    Arg.(value & opt string "p2c"
         & info [ "lb" ] ~docv:"POLICY"
             ~doc:"Front-end placement: hash (consistent) | least (least-loaded) | p2c.")
  in
  let policy_arg =
    Arg.(value & opt string "jbsq"
         & info [ "policy" ] ~docv:"POLICY" ~doc:"Intra-machine dispatch: d-fcfs | jbsq.")
  in
  let fault_arg =
    Arg.(value & opt_all string []
         & info [ "fault" ] ~docv:"SPEC"
             ~doc:
               "Cluster fault (repeatable): crash[:m=N,at=N%,down=N] | slownode[:m=N,mult=N] \
                | netloss[:p=F,reorder=F] | nicdrop[:depth=N].")
  in
  let defend_arg =
    Arg.(value & flag
         & info [ "defend" ]
             ~doc:
               "Enable the defenses (timeouts, retries, hedging, health-check failover, \
                brownout), auto-tuned against the fault-free run.")
  in
  let pgo_arg =
    Arg.(value & vflag true
           [
             (true, info [ "pgo" ] ~doc:"Serve instrumented programs (default).");
             (false, info [ "no-pgo" ] ~doc:"Serve uninstrumented programs (no stall hiding).");
           ])
  in
  let requests_arg =
    Arg.(value & opt int CH.default_params.CH.requests
         & info [ "requests" ] ~docv:"N" ~doc:"Total offered requests.")
  in
  let interarrival_arg =
    Arg.(value & opt int CH.default_params.CH.interarrival
         & info [ "interarrival" ] ~docv:"CYCLES"
             ~doc:"Mean per-core cycles between arrivals (open loop).")
  in
  let skew_arg =
    Arg.(value & opt float CH.default_params.CH.skew
         & info [ "skew" ] ~docv:"S" ~doc:"Zipf exponent over the key universe.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the full cluster result as JSON on stdout.")
  in
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Also write the JSON result to $(docv).")
  in
  let term =
    Term.(
      const cluster $ machines_arg $ cores_arg $ lb_arg $ policy_arg $ fault_arg $ defend_arg
      $ pgo_arg $ requests_arg $ interarrival_arg $ skew_arg $ seed_arg $ json_arg $ output_arg)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Serve the kv-cluster: M kv-server machines behind a load balancer over a \
          cycle-priced NIC/RPC model, with injectable cluster faults (crash, slow node, \
          packet loss, NIC overflow) and auto-tuned defenses (retries, hedging, failover, \
          brownout).")
    term

(* why *)

let why_cmd =
  let module Sweep = Stallhide_why.Sweep in
  let module Why = Stallhide_why.Why in
  let module J = Stallhide_util.Json in
  let why workload lanes ops seed repeats metric injection sweep critical json =
    check_workload workload;
    check_sizes ~lanes ~ops ();
    (* [Why] raises on fewer than one repeat; say which flag *)
    if repeats < 1 then usage_error "--repeats must be at least 1 (got %d)" repeats;
    let metric =
      match Sweep.metric_of_string metric with
      | Some m -> m
      | None -> usage_error "unknown metric %S (mean | p50 | p90 | p99 | p999)" metric
    in
    let injection =
      match injection with
      | None -> None
      | Some s -> (
          match Why.injection_of_string s with
          | Ok i -> Some i
          | Error msg -> usage_error "%s" msg)
    in
    if sweep && critical then usage_error "--sweep and --critical-path are mutually exclusive";
    let cfg = { Why.workload; lanes; ops; seed; repeats; metric; injection } in
    let emit mode payload = print_endline
        (J.to_string_pretty
           (J.Obj (("schema_version", J.Int 1) :: ("mode", J.String mode) :: payload)))
    in
    if sweep then begin
      let r = Why.sweep cfg in
      if json then emit "sweep" [ ("sweep", Sweep.to_json r) ]
      else Format.printf "%a@." (Sweep.pp ~metric) r
    end
    else if critical then begin
      match Why.critical cfg with
      | Some c ->
          if json then emit "critical" [ ("critical", Why.critical_to_json c) ]
          else Format.printf "%a@." Why.pp_critical c
      | None -> usage_error "--critical-path decomposes the SMP kv-server run (got %S)" workload
    end
    else begin
      let a = Why.analyze cfg in
      if json then
        emit "causal"
          (match Why.analysis_to_json a with J.Obj fields -> fields | _ -> assert false)
      else Format.printf "%a@." Why.pp_analysis a
    end
  in
  let why_workload_arg =
    let doc = "Workload: " ^ String.concat " | " workload_names ^ "." in
    Arg.(value & opt string Why.default_config.Why.workload
         & info [ "w"; "workload" ] ~docv:"NAME" ~doc)
  in
  let lanes_arg =
    Arg.(value & opt int Why.default_config.Why.lanes
         & info [ "lanes" ] ~docv:"N" ~doc:"Concurrent lanes (coroutines).")
  in
  let ops_arg =
    Arg.(value & opt int Why.default_config.Why.ops
         & info [ "ops" ] ~docv:"N"
             ~doc:"Operations per lane (enough reuse to populate every cache level).")
  in
  let repeats_arg =
    Arg.(value & opt int Why.default_config.Why.repeats
         & info [ "repeats" ] ~docv:"N"
             ~doc:"Seeds per arm (seed, seed+1, ...) for confidence intervals.")
  in
  let metric_arg =
    Arg.(value & opt string "p99"
         & info [ "metric" ] ~docv:"M" ~doc:"Ranking metric: mean | p50 | p90 | p99 | p999.")
  in
  let inject_arg =
    Arg.(value & opt (some string) None
         & info [ "inject" ] ~docv:"CAUSE"
             ~doc:
               "Inject a known ground-truth cause and report whether the causal table ranks it \
                first: l3 | dram | site | spike:l3=N,dram=M.")
  in
  let sweep_arg =
    Arg.(value & flag
         & info [ "sweep" ]
             ~doc:"One-factor-at-a-time sensitivity sweep over machine knobs instead of \
                   counterfactual attribution.")
  in
  let critical_arg =
    Arg.(value & flag
         & info [ "critical-path" ]
             ~doc:"Decompose per-request latency of the SMP kv-server run into queueing / \
                   compute / stall / contention / switch / offcore.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")
  in
  let term =
    Term.(
      const why $ why_workload_arg $ lanes_arg $ ops_arg $ seed_arg $ repeats_arg $ metric_arg
      $ inject_arg $ sweep_arg $ critical_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Causal performance debugging: rank memory levels and yield sites by their causal \
          contribution to a latency metric (counterfactual re-runs), sweep machine knobs, or \
          extract per-request critical paths.")
    term

(* txn *)

let txn_cmd =
  let module R = Stallhide_txn.Runner in
  let module L = Stallhide_runtime.Latency in
  let module Obs = Stallhide_obs in
  let module J = Stallhide_util.Json in
  let txn mode inflight txns batch mix keys theta seed smp cores json =
    let mode =
      match R.mode_of_string mode with
      | Some m -> m
      | None -> usage_error "unknown mode %S (available: seq, interleaved, interleaved-pgo)" mode
    in
    let p = { R.inflight; txns; batch; mix; keys; theta; seed } in
    usage (R.validate ?cores:(if smp then Some cores else None)) p;
    let params_json =
      J.Obj
        [
          ("inflight", J.Int inflight);
          ("txns", J.Int txns);
          ("batch", J.Int batch);
          ("mix", J.Int mix);
          ("keys", J.Int keys);
          ("theta", J.Float theta);
          ("seed", J.Int seed);
        ]
    in
    let counters_json (c : R.counters) =
      J.Obj
        [
          ("commits", J.Int c.R.commits);
          ("aborts", J.Int c.R.aborts);
          ("latch_waits", J.Int c.R.latch_waits);
          ("group_prefetch_hits", J.Int c.R.group_prefetch_hits);
          ("lookups", J.Int c.R.lookups);
        ]
    in
    let pp_counters (c : R.counters) =
      Printf.printf
        "txn counters: commits=%d aborts=%d latch_waits=%d group_prefetch_hits=%d/%d\n"
        c.R.commits c.R.aborts c.R.latch_waits c.R.group_prefetch_hits c.R.lookups
    in
    if smp then begin
      let o = R.run_smp ~cores mode p in
      let s = o.R.summary in
      if json then
        print_endline
          (J.to_string_pretty
             (J.Obj
                [
                  ("schema_version", J.Int 1);
                  ("mode", J.String (R.mode_to_string mode));
                  ("smp", J.Bool true);
                  ("cores", J.Int cores);
                  ("params", params_json);
                  ("cycles", J.Int o.R.cycles);
                  ("completed", J.Int o.R.completed);
                  ("txn_throughput_tpk", J.Float o.R.txn_throughput);
                  ("latency", L.summary_to_json s);
                  ("counters", counters_json o.R.smp_counters);
                  ("scav_dispatches", J.Int o.R.scav_dispatches);
                ]))
      else begin
        Printf.printf "txn (smp): %d core(s), mode %s, batch=%d, mix=%d%%, seed %d\n" cores
          (R.mode_to_string mode) batch mix seed;
        Printf.printf "transactions: %d committed in %d cycles (%.3f txn/kcycle)\n"
          o.R.completed o.R.cycles o.R.txn_throughput;
        Printf.printf "per-txn latency: mean=%.0f p50=%d p90=%d p99=%d p999=%d max=%d\n"
          s.L.mean s.L.p50 s.L.p90 s.L.p99 s.L.p999 s.L.max;
        Printf.printf "scavenger dispatches into txn stall windows: %d\n" o.R.scav_dispatches;
        pp_counters o.R.smp_counters
      end
    end
    else begin
      let o = R.run mode p in
      let reg = Obs.Registry.create () in
      R.counters_into reg o;
      if json then
        print_endline
          (J.to_string_pretty
             (J.Obj
                [
                  ("schema_version", J.Int 1);
                  ("mode", J.String (R.mode_to_string mode));
                  ("smp", J.Bool false);
                  ("params", params_json);
                  ("metrics", Metrics.to_json o.R.metrics);
                  ("counters", counters_json o.R.counters);
                  ("registry", Obs.Registry.to_json reg);
                ]))
      else begin
        Printf.printf "txn: mode %s, K=%d, txns/coroutine=%d, batch=%d, mix=%d%%, seed %d\n"
          (R.mode_to_string mode) inflight txns batch mix seed;
        Format.printf "%a@." Metrics.pp o.R.metrics;
        (match o.R.metrics.Metrics.latency with
        | Some s ->
            Printf.printf "per-txn latency: mean=%.0f p50=%d p90=%d p99=%d p999=%d max=%d\n"
              s.L.mean s.L.p50 s.L.p90 s.L.p99 s.L.p999 s.L.max
        | None -> ());
        pp_counters o.R.counters
      end
    end
  in
  let mode_arg =
    Arg.(value & opt string "interleaved-pgo"
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Execution mode: seq | interleaved | interleaved-pgo.")
  in
  let inflight_arg =
    Arg.(value & opt int R.default_params.R.inflight
         & info [ "inflight" ] ~docv:"K"
             ~doc:
               "In-flight transaction coroutines per core (the two-level mapping's K). The \
                $(b,--smp) leg serves one transaction per request and reads no K.")
  in
  let txns_arg =
    Arg.(value & opt int R.default_params.R.txns
         & info [ "txns" ] ~docv:"N" ~doc:"Transactions per coroutine.")
  in
  let batch_arg =
    Arg.(value & opt int R.default_params.R.batch
         & info [ "batch" ] ~docv:"B" ~doc:"Keys per multi-get/multi-put transaction (1-8).")
  in
  let mix_arg =
    Arg.(value & opt int R.default_params.R.mix
         & info [ "mix" ] ~docv:"PCT"
             ~doc:"Multi-put percentage (0 = pure batch-of-gets, 100 = pure multi-put).")
  in
  let keys_arg =
    Arg.(value & opt int R.default_params.R.keys
         & info [ "keys" ] ~docv:"N" ~doc:"Populated keys in the table.")
  in
  let theta_arg =
    Arg.(value & opt float R.default_params.R.theta
         & info [ "theta" ] ~docv:"T" ~doc:"Zipfian skew over the key universe.")
  in
  let smp_arg =
    Arg.(value & flag
         & info [ "smp" ]
             ~doc:"Run on the multi-core machine (one transaction per request, per-core \
                   tables, scan scavengers under the interleaved modes).")
  in
  let cores_arg =
    Arg.(value & opt int 4 & info [ "cores" ] ~docv:"N" ~doc:"Cores for --smp.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit metrics and txn counters as JSON.")
  in
  let term =
    Term.(
      const txn $ mode_arg $ inflight_arg $ txns_arg $ batch_arg $ mix_arg $ keys_arg
      $ theta_arg $ seed_arg $ smp_arg $ cores_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "txn"
       ~doc:
         "Run the CoroBase-style transaction engine: K in-flight multi-key transactions \
          per core as coroutines, sequential vs interleaved vs interleaved+PGO, reporting \
          throughput, per-transaction latency and txn.* counters.")
    term

(* fuzz *)

let fuzz_cmd =
  let module Check = Stallhide_check in
  let module J = Stallhide_util.Json in
  let fuzz cases seed oracles no_shrink json repro_dir replay =
    match replay with
    | Some path ->
        (* replay a saved counterexample and report its verdict *)
        let repro =
          try Check.Repro.load path
          with Sys_error m | Invalid_argument m -> usage_error "cannot load repro %s: %s" path m
        in
        let verdict = Check.Repro.replay repro in
        if json then
          print_endline
            (J.to_string_pretty
               (J.Obj
                  [
                    ("repro", J.String path);
                    ("oracle", J.String (Check.Oracle.to_string repro.Check.Repro.oracle));
                    ("seed", J.Int repro.Check.Repro.cfg.Check.Gen.seed);
                    ("verdict", J.String (Check.Oracle.verdict_to_string verdict));
                    ( "reproduced",
                      J.Bool
                        (match verdict with Check.Oracle.Counterexample _ -> true | _ -> false)
                    );
                  ]))
        else
          Printf.printf "replay %s [%s]: %s\n" path
            (Check.Oracle.to_string repro.Check.Repro.oracle)
            (Check.Oracle.verdict_to_string verdict);
        (* a replay that still fails exits 1, like the campaign *)
        (match verdict with Check.Oracle.Counterexample _ -> exit 1 | _ -> ())
    | None ->
        (* [Fuzz.run] rejects an empty campaign; say which flag *)
        if cases < 1 then usage_error "--cases must be at least 1 (got %d)" cases;
        let oracles =
          match oracles with
          | [] | [ "all" ] -> Check.Oracle.all
          | names ->
              List.map
                (fun n ->
                  match Check.Oracle.of_string n with
                  | Some o -> o
                  | None ->
                      usage_error
                        "unknown oracle %S (available: primary, scavenger, smp, fault, \
                         soundness, cluster, txn, mutant, all)"
                        n)
                names
        in
        let opts =
          {
            Check.Fuzz.cases;
            seed;
            oracles;
            shrink = not no_shrink;
            repro_dir;
          }
        in
        let report = Check.Fuzz.run opts in
        if json then print_endline (J.to_string_pretty (Check.Fuzz.report_to_json report))
        else Format.printf "%a" Check.Fuzz.pp_report report;
        if not (Check.Fuzz.ok report) then exit 1
  in
  let cases_arg =
    Arg.(value & opt int Check.Fuzz.default_opts.Check.Fuzz.cases
         & info [ "cases" ] ~docv:"N" ~doc:"Generated cases per oracle.")
  in
  let seed_arg =
    Arg.(value & opt int Check.Fuzz.default_opts.Check.Fuzz.seed
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"First seed; case $(i,i) uses SEED+$(i,i). Same seed, same campaign.")
  in
  let oracle_arg =
    Arg.(value & opt_all string []
         & info [ "oracle" ] ~docv:"NAME"
             ~doc:
               "Oracle(s) to run: $(b,primary), $(b,scavenger), $(b,smp), $(b,fault), \
                $(b,soundness) (static cache analysis vs simulator ground truth), \
                $(b,cluster), $(b,txn) (interleaved transactions bit-identical to a \
                sequential replay of the committed schedule), $(b,mutant) (deliberately \
                broken pass, for shrinker demos), or $(b,all) (the real ones). Repeatable; \
                default all.")
  in
  let no_shrink_arg =
    Arg.(value & flag
         & info [ "no-shrink" ] ~doc:"Report counterexamples without minimizing them.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the campaign report as JSON.")
  in
  let repro_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "repro-dir" ] ~docv:"DIR"
             ~doc:"Write a replayable JSON repro file per counterexample under $(docv).")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay one saved repro file instead of running a campaign.")
  in
  let term =
    Term.(
      const fuzz $ cases_arg $ seed_arg $ oracle_arg $ no_shrink_arg $ json_arg
      $ repro_dir_arg $ replay_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential/metamorphic fuzzing of the instrumentation passes: generated \
          programs run uninstrumented vs instrumented (and 1-core vs N-core, clean vs \
          fault-injected); any architectural-state divergence is shrunk to a minimal \
          replayable counterexample.")
    term

let () =
  let doc = "hide L2/L3-miss stalls in software: coroutines + profile-guided yields" in
  let info = Cmd.info "stallhide" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ run_cmd; analyze_cmd; disasm_cmd; instrument_cmd; lint_cmd; profile_cmd; trace_cmd; inject_cmd; smp_cmd; cluster_cmd; txn_cmd; why_cmd; fuzz_cmd ]
  in
  (* Fail-fast contract of the pipeline: a rewrite the verifier rejects
     never runs. Render the diagnostics instead of a backtrace; any
     other exception is a bug, reported as cmdliner would. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Stallhide_verify.Verify.Rejected outcome ->
      Format.eprintf "stallhide: instrumented binary rejected by the verifier@.%a"
        Stallhide_verify.Verify.pp_outcome outcome;
      exit 1
  | exception e ->
      Printf.eprintf "stallhide: internal error, uncaught exception:\n%s\n" (Printexc.to_string e);
      exit Cmd.Exit.internal_error
