open Stallhide_isa

(* Per-pc load statistics, flat, one row per instruction. A pc has a
   [load] line in [save] once any unit sampled it (or a loaded profile
   listed it): [seen]. *)
type t = {
  program : Program.t;
  seen : bool array;
  exec_samples : int array;
  miss_samples : int array;
  stall_sampled : int array;  (* stall cycles represented by samples at this pc *)
  frontend_sampled : int array;  (* known front-end portion, to subtract *)
  exec_period : int;
  miss_period : int;
  stall_period : int;
  lbr_cycles : float array;  (* attributed cycles per pc *)
  lbr_execs : float array;  (* attributed executions per pc *)
  mutable samples : int;
}

let make ~program ~exec_period ~miss_period ~stall_period =
  let n = Program.length program in
  {
    program;
    seen = Array.make n false;
    exec_samples = Array.make n 0;
    miss_samples = Array.make n 0;
    stall_sampled = Array.make n 0;
    frontend_sampled = Array.make n 0;
    exec_period;
    miss_period;
    stall_period;
    lbr_cycles = Array.make n 0.0;
    lbr_execs = Array.make n 0.0;
    samples = 0;
  }

(* Static per-pc facts [add_run] needs: each instruction's base cost
   (at least 1) and whether it loads, with prefix sums of both so a
   run's totals cost two subtractions. *)
type statics = {
  cost : int array;
  is_load : bool array;
  cost_upto : int array;
  loads_upto : int array;
}

let statics program =
  let n = Program.length program in
  let cost = Array.make n 0 and is_load = Array.make n false in
  let cost_upto = Array.make (n + 1) 0 and loads_upto = Array.make (n + 1) 0 in
  for pc = 0 to n - 1 do
    let i = Program.instr program pc in
    cost.(pc) <- max 1 (Cost.base i);
    is_load.(pc) <- Instr.is_load i;
    cost_upto.(pc + 1) <- cost_upto.(pc) + cost.(pc);
    loads_upto.(pc + 1) <- (loads_upto.(pc) + if is_load.(pc) then 1 else 0)
  done;
  { cost; is_load; cost_upto; loads_upto }

let add_run t st ~head ~tail ~latency =
  (* A straight-line run [head..tail]: every instruction gets its static
     base cost, and the run's excess latency (the memory time) is
     attributed to the loads, which is where it was spent. *)
  let n = Program.length t.program in
  if head >= 0 && tail >= head && tail < n then begin
    let base_sum = st.cost_upto.(tail + 1) - st.cost_upto.(head) in
    let loads = st.loads_upto.(tail + 1) - st.loads_upto.(head) in
    let excess = float_of_int (max 0 (latency - base_sum)) in
    let per_load = if loads = 0 then 0.0 else excess /. float_of_int loads in
    let scale =
      (* no loads to blame: spread the excess over everything *)
      if loads = 0 && base_sum > 0 then
        float_of_int (max latency base_sum) /. float_of_int base_sum
      else 1.0
    in
    (* [head..tail] lies in the program, as every array here does *)
    for pc = head to tail do
      let b = float_of_int (Array.unsafe_get st.cost pc) *. scale in
      let attributed = if Array.unsafe_get st.is_load pc then b +. per_load else b in
      Array.unsafe_set t.lbr_cycles pc (Array.unsafe_get t.lbr_cycles pc +. attributed);
      Array.unsafe_set t.lbr_execs pc (Array.unsafe_get t.lbr_execs pc +. 1.0)
    done
  end

let build ~program ?exec ?miss ?stall ?frontend ?lbr () =
  let period = function Some p -> Pebs.period p | None -> 1 in
  let t =
    make ~program ~exec_period:(period exec) ~miss_period:(period miss)
      ~stall_period:(period stall)
  in
  let n = Program.length program in
  (* each sample adds [weight] to its pc's [column]; a sample that skid
     carried past the last pc counts, but has no row *)
  let eat unit column weight =
    Option.iter
      (fun p ->
        for i = 0 to Pebs.sample_count p - 1 do
          let pc = Pebs.sample_pc p i in
          t.samples <- t.samples + 1;
          if pc < n then begin
            t.seen.(pc) <- true;
            column.(pc) <- column.(pc) + weight
          end
        done)
      unit
  in
  eat exec t.exec_samples 1;
  eat miss t.miss_samples 1;
  eat stall t.stall_sampled t.stall_period;
  eat frontend t.frontend_sampled (period frontend);
  (match lbr with
  | None -> ()
  | Some l ->
      let st = statics program in
      for s = 0 to Lbr.snapshot_count l - 1 do
        t.samples <- t.samples + 1;
        (* consecutive records [r], [r + 1] of one snapshot *)
        let first = Lbr.snapshot_start l s in
        let last = first + Lbr.snapshot_length l s - 1 in
        for r = first to last do
          let from_pc = Lbr.from_pc l r and head = Lbr.to_pc l r in
          (* a branch leaves a pc of the program for a pc of it or one
             past its end (a return to the call after the last
             instruction) *)
          if from_pc < 0 || from_pc >= n || head < 0 || head > n then
            invalid_arg
              (Printf.sprintf "Profile: LBR record %d -> %d outside a %d-instruction program"
                 from_pc head n);
          if r < last then begin
            let tail = Lbr.from_pc l (r + 1) in
            if tail >= head then
              add_run t st ~head ~tail ~latency:(Lbr.cycle l (r + 1) - Lbr.cycle l r)
          end
        done
      done);
  t

let in_table t pc = pc >= 0 && pc < Program.length t.program

let miss_probability t pc =
  if (not (in_table t pc)) || t.exec_samples.(pc) = 0 then None
  else
    let execs = float_of_int (t.exec_samples.(pc) * t.exec_period) in
    let misses = float_of_int (t.miss_samples.(pc) * t.miss_period) in
    Some (min 1.0 (misses /. execs))

(* The generic stalled-cycles event counts front-end stalls too; when a
   FRONTEND_STALLS unit ran, subtract its estimate (§3.2's filtering). *)
let stalls_at t pc =
  if in_table t pc then max 0 (t.stall_sampled.(pc) - t.frontend_sampled.(pc)) else 0

let raw_stalls_at t pc = if in_table t pc then t.stall_sampled.(pc) else 0

let stall_per_miss t pc =
  if not (in_table t pc) then None
  else
    let misses = t.miss_samples.(pc) * t.miss_period in
    let memory = stalls_at t pc in
    if misses = 0 || memory = 0 then None
    else Some (float_of_int memory /. float_of_int misses)

let candidate_loads t =
  let acc = ref [] in
  for pc = Array.length t.miss_samples - 1 downto 0 do
    if t.miss_samples.(pc) > 0 then acc := pc :: !acc
  done;
  !acc

let pc_cycles t pc =
  if (not (in_table t pc)) || t.lbr_execs.(pc) = 0.0 then None
  else Some (t.lbr_cycles.(pc) /. t.lbr_execs.(pc))

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
  Array.iteri
    (fun pc seen ->
      if seen then
        Buffer.add_string buf
          (Printf.sprintf "load pc=%d exec=%d miss=%d stall=%d frontend=%d\n" pc
             t.exec_samples.(pc) t.miss_samples.(pc) t.stall_sampled.(pc)
             t.frontend_sampled.(pc)))
    t.seen;
  Array.iteri
    (fun pc execs ->
      if execs > 0.0 then
        Buffer.add_string buf
          (Printf.sprintf "lbr pc=%d cycles=%h execs=%h\n" pc t.lbr_cycles.(pc) execs))
    t.lbr_execs;
  Buffer.contents buf

let load ~program text =
  let fail fmt = Printf.ksprintf failwith fmt in
  let n = Program.length program in
  let t = make ~program ~exec_period:1 ~miss_period:1 ~stall_period:1 in
  let exec_period = ref 1 and miss_period = ref 1 and stall_period = ref 1 in
  let has_meta = ref false in
  let field line kv key =
    match String.split_on_char '=' kv with
    | [ k; v ] when k = key -> v
    | _ -> fail "Profile.load: expected %s= in %S" key line
  in
  (* a value no profiling run produces is refused, like a malformed one *)
  let checked parse ok rule line kv key =
    let v = parse (field line kv key) in
    if not (ok v) then fail "Profile.load: %s %s in %S" key rule line;
    v
  in
  let count = checked int_of_string (fun v -> v >= 0) "must not be negative" in
  let period = checked int_of_string (fun v -> v > 0) "period must be positive" in
  let estimate =
    checked float_of_string (fun v -> Float.is_finite v && v >= 0.0) "must be finite and >= 0"
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
            has_meta := true;
            t.samples <- count line samples "samples"
        | [ "periods"; e; m; st ] ->
            exec_period := period line e "exec";
            miss_period := period line m "miss";
            stall_period := period line st "stall"
        | [ "load"; pc; e; m; st; fe ] ->
            let pc = int_of_string (field line pc "pc") in
            if pc < 0 || pc >= n then fail "Profile.load: load pc %d out of range" pc;
            t.seen.(pc) <- true;
            t.exec_samples.(pc) <- count line e "exec";
            t.miss_samples.(pc) <- count line m "miss";
            t.stall_sampled.(pc) <- count line st "stall";
            t.frontend_sampled.(pc) <- count line fe "frontend"
        | [ "lbr"; pc; cyc; ex ] ->
            let pc = int_of_string (field line pc "pc") in
            if pc < 0 || pc >= n then fail "Profile.load: lbr pc %d out of range" pc;
            t.lbr_cycles.(pc) <- estimate line cyc "cycles";
            t.lbr_execs.(pc) <- estimate line ex "execs"
        | _ -> fail "Profile.load: cannot parse line %S" line)
    lines;
  (* the program-length check is on the meta line, so it must be there *)
  if not !has_meta then fail "Profile.load: no meta line";
  { t with exec_period = !exec_period; miss_period = !miss_period; stall_period = !stall_period }
