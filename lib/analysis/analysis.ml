open Stallhide_isa
open Stallhide_util
open Stallhide_mem
open Stallhide_binopt

type kind = Load | Store

let kind_name = function Load -> "load" | Store -> "store"

type site = {
  pc : int;
  kind : kind;
  base : Reg.t;
  disp : int;
  cls : Cache_domain.cls;
  key : Cache_domain.Key.t option;
  in_loop : bool;
}

type t = {
  program : Program.t;
  mem : Memconfig.t;
  converged : bool;
  sites : site list;
  loops : Loop_bounds.bound list;
  unbounded_loops : int;  (** natural loops with no proven trip count *)
}

(* --- combined value + cache fixpoint --- *)

type state = { env : Value.t array; cache : Cache_domain.t }

(* One pass over a block. [record] sees each memory site with the
   abstract state *before* the access — the state the classification
   is defined against. *)
let walk_block mem prog (b : Cfg.block) st ~record =
  let env = Array.copy st.env in
  let cache = ref st.cache in
  for pc = b.Cfg.first to b.Cfg.last do
    let i = Program.instr prog pc in
    (match i with
    | Instr.Load (_, rs, disp) ->
        record pc Load env.(rs) disp !cache;
        cache := Cache_domain.load mem !cache ~base:env.(rs) ~disp
    | Instr.Store (rs, disp, _) ->
        (* single-core stores write through the store buffer without
           touching cache state (Hierarchy.write): classified for the
           report, no transfer *)
        record pc Store env.(rs) disp !cache
    | Instr.Prefetch (rs, disp) ->
        cache := Cache_domain.prefetch mem !cache ~base:env.(rs) ~disp
    | Instr.Yield _ | Instr.Yield_cond _ | Instr.Call _ ->
        (* another lane (or unmodeled callee) runs: all residency facts
           die. Yield_cond's own probe/prefetch is subsumed. *)
        cache := Cache_domain.clobber !cache
    | Instr.Binop _ | Instr.Mov _ | Instr.Branch _ | Instr.Jump _ | Instr.Ret
    | Instr.Guard _ | Instr.Accel_issue _ | Instr.Accel_wait _ | Instr.Opmark
    | Instr.Nop | Instr.Halt ->
        ());
    Value.step env i
  done;
  { env; cache = !cache }

let no_record _ _ _ _ _ = ()

let run ?(mem = Memconfig.default) prog =
  let cfg = Cfg.build prog in
  let doms = Dominators.compute cfg in
  let nb = Cfg.block_count cfg in
  let ins : state option array = Array.make nb None in
  let entry_id = (Cfg.block_of_pc cfg 0).Cfg.id in
  ins.(entry_id) <- Some { env = Value.entry_env (); cache = Cache_domain.entry };
  let outs : state option array = Array.make nb None in
  (* The may side ([seen]) only grows and stabilizes first; once it
     does, the must maps follow the classical LRU must analysis, which
     converges. The cap is a defensive backstop: hitting it degrades
     every classification to Unknown rather than trusting a
     half-converged state. *)
  let max_rounds = (16 * nb) + 256 in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed && !rounds < max_rounds do
    changed := false;
    incr rounds;
    for id = 0 to nb - 1 do
      let b = Cfg.block cfg id in
      match ins.(id) with
      | None -> ()
      | Some st ->
          let out = walk_block mem prog b st ~record:no_record in
          let out_changed =
            match outs.(id) with
            | Some prev ->
                if Value.env_equal prev.env out.env && Cache_domain.equal prev.cache out.cache
                then false
                else begin
                  outs.(id) <- Some out;
                  true
                end
            | None ->
                outs.(id) <- Some out;
                true
          in
          if out_changed then begin
            changed := true;
            List.iter
              (fun s ->
                match ins.(s) with
                | None ->
                    ins.(s) <-
                      Some { env = Array.copy out.env; cache = out.cache }
                | Some dst ->
                    let ec = Value.join_env dst.env out.env in
                    let joined = Cache_domain.join dst.cache out.cache in
                    let cc = not (Cache_domain.equal joined dst.cache) in
                    if cc then ins.(s) <- Some { dst with cache = joined };
                    ignore (ec : bool))
              b.Cfg.succs
          end
    done
  done;
  let converged = not !changed in
  (* loop membership for the hot-load report *)
  let in_loop = Array.make (Program.length prog) false in
  let loops_raw = Dominators.natural_loops cfg doms in
  List.iter
    (fun (l : Dominators.loop) ->
      List.iter (fun pc -> in_loop.(pc) <- true)
        (Loop_bounds.body_pcs cfg l.Dominators.body))
    loops_raw;
  (* final recording pass over the converged in-states *)
  let sites = ref [] in
  let record pc kind base disp cache =
    let cls =
      if converged then Cache_domain.classify mem cache ~base ~disp
      else Cache_domain.Unknown (Cache_domain.taint_of base)
    in
    let key = Cache_domain.key_of ~line_bytes:mem.Memconfig.line_bytes base ~disp in
    let breg =
      match Program.instr prog pc with
      | Instr.Load (_, rs, _) | Instr.Store (rs, _, _) -> rs
      | _ -> 0
    in
    sites := { pc; kind; base = breg; disp; cls; key; in_loop = in_loop.(pc) } :: !sites
  in
  for id = 0 to nb - 1 do
    match ins.(id) with
    | None -> ()
    | Some st -> ignore (walk_block mem prog (Cfg.block cfg id) st ~record)
  done;
  let sites = List.sort (fun a b -> compare a.pc b.pc) !sites in
  let venvs = Value.block_envs cfg in
  let loops = Loop_bounds.infer cfg doms venvs in
  let bounded = List.length loops in
  (* count distinct headers, not back edges, so merged loops count once *)
  let headers = Hashtbl.create 8 in
  List.iter
    (fun (l : Dominators.loop) -> Hashtbl.replace headers l.Dominators.header ())
    loops_raw;
  { program = prog; mem; converged; sites; loops;
    unbounded_loops = Hashtbl.length headers - bounded }

(* --- consumers --- *)

let load_sites t = List.filter (fun s -> s.kind = Load) t.sites

let always_miss_pcs t =
  List.filter_map
    (fun s ->
      if s.kind = Load && s.cls = Cache_domain.Always_miss then Some s.pc else None)
    t.sites

(* Loads the analysis cannot resolve inside loops — the hot sites where
   "profile-free" still needs either a profile or the ROADMAP's
   residency probe. [--strict] fails on these. *)
let strict_violations t =
  List.filter
    (fun s ->
      s.kind = Load
      && s.in_loop
      && match s.cls with Cache_domain.Unknown _ -> true | _ -> false)
    t.sites

(* Miss-probability priors. Pointer chases miss nearly always in the
   paper's workloads; streams miss once per line (64B line / 8B
   element); opaque splits the difference. These only steer the cost
   model when nothing is proven, and the Cost_benefit policy prices
   them against switch costs. *)
let to_classifier t =
  let cls_tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.kind = Load then
        Hashtbl.replace cls_tbl s.pc
          (match s.cls with
          | Cache_domain.Always_hit -> Gain_cost.Hit
          | Cache_domain.Always_miss -> Gain_cost.Miss
          | Cache_domain.Unknown Cache_domain.Ptr -> Gain_cost.Unknown_ptr
          | Cache_domain.Unknown Cache_domain.Strided -> Gain_cost.Unknown_strided
          | Cache_domain.Unknown Cache_domain.Opaque -> Gain_cost.Unknown_opaque))
    t.sites;
  let cls_at pc = Hashtbl.find_opt cls_tbl pc in
  let stall =
    float_of_int
      (t.mem.Memconfig.dram_latency - t.mem.Memconfig.l1.Memconfig.latency)
  in
  let miss_probability pc =
    match cls_at pc with
    | Some Gain_cost.Hit -> Some 0.0
    | Some Gain_cost.Miss -> Some 1.0
    | Some Gain_cost.Unknown_ptr -> Some 0.85
    | Some Gain_cost.Unknown_strided -> Some 0.125
    | Some Gain_cost.Unknown_opaque -> Some 0.55
    | None -> None
  in
  {
    Gain_cost.cls_at;
    static_est =
      { Gain_cost.miss_probability; stall_per_miss = (fun _ -> Some stall) };
  }

(* --- reports --- *)

let cls_counts t =
  List.fold_left
    (fun (h, m, u) s ->
      if s.kind <> Load then (h, m, u)
      else
        match s.cls with
        | Cache_domain.Always_hit -> (h + 1, m, u)
        | Cache_domain.Always_miss -> (h, m + 1, u)
        | Cache_domain.Unknown _ -> (h, m, u + 1))
    (0, 0, 0) t.sites

let to_json t =
  let site_json s =
    Json.Obj
      [
        ("pc", Json.Int s.pc);
        ("kind", Json.String (kind_name s.kind));
        ("instr", Json.String (Instr.to_string (Program.instr t.program s.pc)));
        ("class", Json.String (Cache_domain.cls_name s.cls));
        ( "key",
          match s.key with
          | Some k -> Json.String (Cache_domain.Key.to_string k)
          | None -> Json.Null );
        ("in_loop", Json.Bool s.in_loop);
      ]
  in
  let loop_json (l : Loop_bounds.bound) =
    Json.Obj
      [
        ("header_pc", Json.Int l.Loop_bounds.header_pc);
        ("induction", Json.String (Reg.name l.Loop_bounds.induction));
        ("init", Json.Int l.Loop_bounds.init);
        ("step", Json.Int l.Loop_bounds.step);
        ("limit", Json.Int l.Loop_bounds.limit);
        ("trips", Json.Int l.Loop_bounds.trips);
      ]
  in
  let hits, misses, unknown = cls_counts t in
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("converged", Json.Bool t.converged);
      ( "summary",
        Json.Obj
          [
            ("always_hit", Json.Int hits);
            ("always_miss", Json.Int misses);
            ("unknown", Json.Int unknown);
            ("loops_bounded", Json.Int (List.length t.loops));
            ("loops_unbounded", Json.Int t.unbounded_loops);
          ] );
      ("sites", Json.List (List.map site_json t.sites));
      ("loops", Json.List (List.map loop_json t.loops));
    ]

let pp_table fmt t =
  let hits, misses, unknown = cls_counts t in
  Format.fprintf fmt "%-5s %-6s %-24s %-18s %-6s %s@."
    "pc" "kind" "instr" "class" "loop" "key";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-5d %-6s %-24s %-18s %-6s %s@." s.pc
        (kind_name s.kind)
        (Instr.to_string (Program.instr t.program s.pc))
        (Cache_domain.cls_name s.cls)
        (if s.in_loop then "hot" else "-")
        (match s.key with Some k -> Cache_domain.Key.to_string k | None -> "-"))
    t.sites;
  Format.fprintf fmt "@.loads: %d always-hit, %d always-miss, %d unknown@." hits
    misses unknown;
  if t.loops <> [] then begin
    Format.fprintf fmt "@.%-9s %-9s %-6s %-6s %-6s %s@." "header" "induction"
      "init" "step" "limit" "trips";
    List.iter
      (fun (l : Loop_bounds.bound) ->
        Format.fprintf fmt "%-9d %-9s %-6d %-6d %-6d %d@." l.Loop_bounds.header_pc
          (Reg.name l.Loop_bounds.induction)
          l.Loop_bounds.init l.Loop_bounds.step l.Loop_bounds.limit
          l.Loop_bounds.trips)
      t.loops
  end;
  if t.unbounded_loops > 0 then
    Format.fprintf fmt "@.%d loop(s) with no proven bound@." t.unbounded_loops;
  if not t.converged then
    Format.fprintf fmt "@.warning: fixpoint did not converge; all sites degraded to unknown@."
