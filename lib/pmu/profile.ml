open Stallhide_isa

type load_stat = {
  mutable exec_samples : int;
  mutable miss_samples : int;
  mutable stall_sampled : int;  (* stall cycles represented by samples at this pc *)
  mutable frontend_sampled : int;  (* known front-end portion, to subtract *)
}

type t = {
  program : Program.t;
  loads : (int, load_stat) Hashtbl.t;
  exec_period : int;
  miss_period : int;
  stall_period : int;
  lbr_cycles : float array;  (* attributed cycles per pc *)
  lbr_execs : float array;  (* attributed executions per pc *)
  edges : (int * int, int ref) Hashtbl.t;
  mutable samples : int;
}

let stat t pc =
  match Hashtbl.find_opt t.loads pc with
  | Some s -> s
  | None ->
      let s = { exec_samples = 0; miss_samples = 0; stall_sampled = 0; frontend_sampled = 0 } in
      Hashtbl.add t.loads pc s;
      s

let add_run t ~head ~tail ~latency =
  (* A straight-line run [head..tail]: every instruction gets its static
     base cost, and the run's excess latency (the memory time) is
     attributed to the loads, which is where it was spent. *)
  let n = Program.length t.program in
  if head >= 0 && tail >= head && tail < n then begin
    let base_sum = ref 0 in
    let loads = ref 0 in
    for pc = head to tail do
      let i = Program.instr t.program pc in
      base_sum := !base_sum + max 1 (Cost.base i);
      if Instr.is_load i then incr loads
    done;
    let excess = float_of_int (max 0 (latency - !base_sum)) in
    let per_load = if !loads = 0 then 0.0 else excess /. float_of_int !loads in
    let scale =
      (* no loads to blame: spread the excess over everything *)
      if !loads = 0 && !base_sum > 0 then
        float_of_int (max latency !base_sum) /. float_of_int !base_sum
      else 1.0
    in
    for pc = head to tail do
      let i = Program.instr t.program pc in
      let b = float_of_int (max 1 (Cost.base i)) *. scale in
      let attributed = if Instr.is_load i then b +. per_load else b in
      t.lbr_cycles.(pc) <- t.lbr_cycles.(pc) +. attributed;
      t.lbr_execs.(pc) <- t.lbr_execs.(pc) +. 1.0
    done
  end

let add_edge t from_pc to_pc =
  match Hashtbl.find_opt t.edges (from_pc, to_pc) with
  | Some r -> incr r
  | None -> Hashtbl.add t.edges (from_pc, to_pc) (ref 1)

let build ~program ?exec ?miss ?stall ?frontend ?lbr () =
  let n = Program.length program in
  let t =
    {
      program;
      loads = Hashtbl.create 64;
      exec_period = (match exec with Some p -> Pebs.period p | None -> 1);
      miss_period = (match miss with Some p -> Pebs.period p | None -> 1);
      stall_period = (match stall with Some p -> Pebs.period p | None -> 1);
      lbr_cycles = Array.make n 0.0;
      lbr_execs = Array.make n 0.0;
      edges = Hashtbl.create 64;
      samples = 0;
    }
  in
  let eat unit f =
    match unit with
    | None -> ()
    | Some p ->
        List.iter
          (fun s ->
            t.samples <- t.samples + 1;
            f s)
          (Pebs.samples p)
  in
  eat exec (fun (s : Pebs.sample) -> (stat t s.pc).exec_samples <- (stat t s.pc).exec_samples + 1);
  eat miss (fun (s : Pebs.sample) -> (stat t s.pc).miss_samples <- (stat t s.pc).miss_samples + 1);
  eat stall (fun (s : Pebs.sample) ->
      (stat t s.pc).stall_sampled <- (stat t s.pc).stall_sampled + t.stall_period);
  (match frontend with
  | None -> ()
  | Some p ->
      List.iter
        (fun (s : Pebs.sample) ->
          t.samples <- t.samples + 1;
          (stat t s.Pebs.pc).frontend_sampled <-
            (stat t s.Pebs.pc).frontend_sampled + Pebs.period p)
        (Pebs.samples p));
  (match lbr with
  | None -> ()
  | Some l ->
      List.iter
        (fun snap ->
          t.samples <- t.samples + 1;
          let len = Array.length snap in
          for i = 0 to len - 2 do
            let r1 = snap.(i) and r2 = snap.(i + 1) in
            add_edge t r1.Lbr.from_pc r1.Lbr.to_pc;
            if r2.Lbr.from_pc >= r1.Lbr.to_pc then
              add_run t ~head:r1.Lbr.to_pc ~tail:r2.Lbr.from_pc
                ~latency:(r2.Lbr.cycle - r1.Lbr.cycle)
          done;
          if len > 0 then
            let last = snap.(len - 1) in
            add_edge t last.Lbr.from_pc last.Lbr.to_pc)
        (Lbr.snapshots l));
  t

let miss_probability t pc =
  match Hashtbl.find_opt t.loads pc with
  | None -> None
  | Some s ->
      if s.exec_samples = 0 then None
      else
        let execs = float_of_int (s.exec_samples * t.exec_period) in
        let misses = float_of_int (s.miss_samples * t.miss_period) in
        Some (min 1.0 (misses /. execs))

(* The generic stalled-cycles event counts front-end stalls too; when a
   FRONTEND_STALLS unit ran, subtract its estimate (§3.2's filtering). *)
let memory_stall (s : load_stat) = max 0 (s.stall_sampled - s.frontend_sampled)

let stall_per_miss t pc =
  match Hashtbl.find_opt t.loads pc with
  | None -> None
  | Some s ->
      let misses = s.miss_samples * t.miss_period in
      if misses = 0 || memory_stall s = 0 then None
      else Some (float_of_int (memory_stall s) /. float_of_int misses)

let stalls_at t pc =
  match Hashtbl.find_opt t.loads pc with Some s -> memory_stall s | None -> 0

let raw_stalls_at t pc =
  match Hashtbl.find_opt t.loads pc with Some s -> s.stall_sampled | None -> 0

let candidate_loads t =
  Hashtbl.fold (fun pc s acc -> if s.miss_samples > 0 then pc :: acc else acc) t.loads []
  |> List.sort compare

let pc_cycles t pc =
  if pc < 0 || pc >= Array.length t.lbr_cycles || t.lbr_execs.(pc) = 0.0 then None
  else Some (t.lbr_cycles.(pc) /. t.lbr_execs.(pc))

let edge_heat t from_pc to_pc =
  match Hashtbl.find_opt t.edges (from_pc, to_pc) with Some r -> !r | None -> 0

let total_samples t = t.samples

let pp_summary fmt t =
  let cands = candidate_loads t in
  Format.fprintf fmt "profile: %d samples, %d candidate loads@." t.samples (List.length cands);
  List.iter
    (fun pc ->
      let p = match miss_probability t pc with Some p -> p | None -> nan in
      let st = match stall_per_miss t pc with Some s -> s | None -> nan in
      Format.fprintf fmt "  pc %4d  %-28s p_miss=%.3f stall/miss=%.1f@." pc
        (Instr.to_string (Program.instr t.program pc))
        p st)
    cands

let save t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "stallhide-profile v1\n";
  Buffer.add_string buf
    (Printf.sprintf "meta program_length=%d samples=%d\n" (Program.length t.program) t.samples);
  Buffer.add_string buf
    (Printf.sprintf "periods exec=%d miss=%d stall=%d\n" t.exec_period t.miss_period
       t.stall_period);
  let pcs = List.sort compare (Hashtbl.fold (fun pc _ acc -> pc :: acc) t.loads []) in
  List.iter
    (fun pc ->
      let s = Hashtbl.find t.loads pc in
      Buffer.add_string buf
        (Printf.sprintf "load pc=%d exec=%d miss=%d stall=%d frontend=%d\n" pc s.exec_samples
           s.miss_samples s.stall_sampled s.frontend_sampled))
    pcs;
  Array.iteri
    (fun pc execs ->
      if execs > 0.0 then
        Buffer.add_string buf
          (Printf.sprintf "lbr pc=%d cycles=%h execs=%h\n" pc t.lbr_cycles.(pc) execs))
    t.lbr_execs;
  let edges = List.sort compare (Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.edges []) in
  List.iter
    (fun ((f, to_), c) ->
      Buffer.add_string buf (Printf.sprintf "edge from=%d to=%d count=%d\n" f to_ c))
    edges;
  Buffer.contents buf

let load ~program text =
  let fail fmt = Printf.ksprintf failwith fmt in
  let n = Program.length program in
  let t =
    {
      program;
      loads = Hashtbl.create 64;
      exec_period = 1;
      miss_period = 1;
      stall_period = 1;
      lbr_cycles = Array.make n 0.0;
      lbr_execs = Array.make n 0.0;
      edges = Hashtbl.create 64;
      samples = 0;
    }
  in
  let exec_period = ref 1 and miss_period = ref 1 and stall_period = ref 1 in
  let field line kv key =
    match String.split_on_char '=' kv with
    | [ k; v ] when k = key -> v
    | _ -> fail "Profile.load: expected %s= in %S" key line
  in
  let lines = String.split_on_char '\n' text in
  (match lines with
  | magic :: _ when String.trim magic = "stallhide-profile v1" -> ()
  | _ -> fail "Profile.load: bad magic");
  List.iteri
    (fun idx line ->
      let line = String.trim line in
      if idx > 0 && line <> "" then
        match String.split_on_char ' ' line with
        | [ "meta"; len; samples ] ->
            let plen = int_of_string (field line len "program_length") in
            if plen <> n then
              fail "Profile.load: profile is for a %d-instruction program, got %d" plen n;
            t.samples <- int_of_string (field line samples "samples")
        | [ "periods"; e; m; st ] ->
            exec_period := int_of_string (field line e "exec");
            miss_period := int_of_string (field line m "miss");
            stall_period := int_of_string (field line st "stall")
        | [ "load"; pc; e; m; st; fe ] ->
            let pc = int_of_string (field line pc "pc") in
            if pc < 0 || pc >= n then fail "Profile.load: load pc %d out of range" pc;
            let s = stat t pc in
            s.exec_samples <- int_of_string (field line e "exec");
            s.miss_samples <- int_of_string (field line m "miss");
            s.stall_sampled <- int_of_string (field line st "stall");
            s.frontend_sampled <- int_of_string (field line fe "frontend")
        | [ "lbr"; pc; cyc; ex ] ->
            let pc = int_of_string (field line pc "pc") in
            if pc < 0 || pc >= n then fail "Profile.load: lbr pc %d out of range" pc;
            t.lbr_cycles.(pc) <- float_of_string (field line cyc "cycles");
            t.lbr_execs.(pc) <- float_of_string (field line ex "execs")
        | [ "edge"; f; to_; c ] ->
            Hashtbl.replace t.edges
              (int_of_string (field line f "from"), int_of_string (field line to_ "to"))
              (ref (int_of_string (field line c "count")))
        | _ -> fail "Profile.load: cannot parse line %S" line)
    lines;
  { t with exec_period = !exec_period; miss_period = !miss_period; stall_period = !stall_period }
