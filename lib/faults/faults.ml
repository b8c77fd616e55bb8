open Stallhide_isa
open Stallhide_util

type fault =
  | Drift of { shrink : int }
  | Degrade of { loss : float; skid : int; misattr : float }
  | Spike of { at : int; duration : int; l3_mult : int; dram_mult : int }
  | Rogue of { count : int; compute : int }
  | Crash of { machine : int; at : int; percent : bool; down : int }
  | Slownode of { machine : int; mult : int }
  | Netloss of { p : float; reorder : float }
  | Nicdrop of { depth : int }

type plan = { faults : fault list; seed : int }

let no_faults ~seed = { faults = []; seed }

let name = function
  | Drift _ -> "drift"
  | Degrade _ -> "pebs"
  | Spike _ -> "spike"
  | Rogue _ -> "rogue"
  | Crash _ -> "crash"
  | Slownode _ -> "slownode"
  | Netloss _ -> "netloss"
  | Nicdrop _ -> "nicdrop"

(* Cluster-level faults live in lib/cluster's harness; the single-machine
   harness rejects them. *)
let is_net = function
  | Crash _ | Slownode _ | Netloss _ | Nicdrop _ -> true
  | Drift _ | Degrade _ | Spike _ | Rogue _ -> false

let describe = function
  | Drift { shrink } -> Printf.sprintf "drift:shrink=%d" shrink
  | Degrade { loss; skid; misattr } ->
      Printf.sprintf "pebs:loss=%g,skid=%d,misattr=%g" loss skid misattr
  | Spike { at; duration; l3_mult; dram_mult } ->
      Printf.sprintf "spike:at=%d,for=%d,l3=%d,dram=%d" at duration l3_mult dram_mult
  | Rogue { count; compute } -> Printf.sprintf "rogue:count=%d,compute=%d" count compute
  | Crash { machine; at; percent; down } ->
      Printf.sprintf "crash:m=%d,at=%d%s,down=%d" machine at (if percent then "%" else "") down
  | Slownode { machine; mult } -> Printf.sprintf "slownode:m=%d,mult=%d" machine mult
  | Netloss { p; reorder } -> Printf.sprintf "netloss:p=%g,reorder=%g" p reorder
  | Nicdrop { depth } -> Printf.sprintf "nicdrop:depth=%d" depth

let to_json f =
  let fields =
    match f with
    | Drift { shrink } -> [ ("shrink", Json.Int shrink) ]
    | Degrade { loss; skid; misattr } ->
        [ ("loss", Json.Float loss); ("skid", Json.Int skid); ("misattr", Json.Float misattr) ]
    | Spike { at; duration; l3_mult; dram_mult } ->
        [
          ("at", Json.Int at);
          ("for", Json.Int duration);
          ("l3", Json.Int l3_mult);
          ("dram", Json.Int dram_mult);
        ]
    | Rogue { count; compute } ->
        [ ("count", Json.Int count); ("compute", Json.Int compute) ]
    | Crash { machine; at; percent; down } ->
        [
          ("machine", Json.Int machine);
          ("at", Json.Int at);
          ("percent", Json.Bool percent);
          ("down", Json.Int down);
        ]
    | Slownode { machine; mult } ->
        [ ("machine", Json.Int machine); ("mult", Json.Int mult) ]
    | Netloss { p; reorder } -> [ ("p", Json.Float p); ("reorder", Json.Float reorder) ]
    | Nicdrop { depth } -> [ ("depth", Json.Int depth) ]
  in
  Json.Obj (("fault", Json.String (name f)) :: fields)

(* --- spec parsing --- *)

let fail fmt = Printf.ksprintf invalid_arg fmt

let fault_names = [ "drift"; "pebs"; "spike"; "rogue" ]

let net_fault_names = [ "crash"; "slownode"; "netloss"; "nicdrop" ]

let parse_spec spec =
  let head, args =
    match String.index_opt spec ':' with
    | Some i -> (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
    | None -> (spec, "")
  in
  let kvs =
    if String.trim args = "" then []
    else
      List.map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
              (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
          | None -> fail "Faults.parse_spec: %s: %S is not key=value" head kv)
        (String.split_on_char ',' args)
  in
  let known keys =
    List.iter
      (fun (k, _) ->
        if not (List.mem k keys) then
          fail "Faults.parse_spec: %s: unknown key %S (expected %s)" head k
            (String.concat ", " keys))
      kvs
  in
  let geti k default =
    match List.assoc_opt k kvs with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some n -> n
        | None -> fail "Faults.parse_spec: %s: %s must be an integer (got %S)" head k v)
  in
  let getf k default =
    match List.assoc_opt k kvs with
    | None -> default
    | Some v -> (
        match float_of_string_opt v with
        | Some x -> x
        | None -> fail "Faults.parse_spec: %s: %s must be a number (got %S)" head k v)
  in
  match head with
  | "drift" ->
      known [ "shrink" ];
      let shrink = geti "shrink" 128 in
      if shrink < 2 then fail "Faults.parse_spec: drift: shrink must be >= 2 (got %d)" shrink;
      Drift { shrink }
  | "pebs" ->
      known [ "loss"; "skid"; "misattr" ];
      let loss = getf "loss" 0.4 in
      let skid = geti "skid" 3 in
      let misattr = getf "misattr" 0.25 in
      if not (loss >= 0.0 && loss <= 1.0) then
        fail "Faults.parse_spec: pebs: loss must be in [0,1] (got %g)" loss;
      if not (misattr >= 0.0 && misattr <= 1.0) then
        fail "Faults.parse_spec: pebs: misattr must be in [0,1] (got %g)" misattr;
      if skid < 0 then fail "Faults.parse_spec: pebs: skid must be >= 0 (got %d)" skid;
      Degrade { loss; skid; misattr }
  | "spike" ->
      known [ "at"; "for"; "l3"; "dram" ];
      let at = geti "at" 1000 in
      let duration = geti "for" 9000 in
      let l3_mult = geti "l3" 4 in
      let dram_mult = geti "dram" 10 in
      if at < 0 then fail "Faults.parse_spec: spike: at must be >= 0 (got %d)" at;
      if duration <= 0 then
        fail "Faults.parse_spec: spike: for must be positive (got %d)" duration;
      if l3_mult < 1 || dram_mult < 1 then
        fail "Faults.parse_spec: spike: multipliers must be >= 1 (got l3=%d dram=%d)" l3_mult
          dram_mult;
      Spike { at; duration; l3_mult; dram_mult }
  | "rogue" ->
      known [ "count"; "compute" ];
      let count = geti "count" 1 in
      let compute = geti "compute" 3000 in
      if count < 1 then fail "Faults.parse_spec: rogue: count must be >= 1 (got %d)" count;
      if compute < 2 then
        fail "Faults.parse_spec: rogue: compute must be >= 2 (got %d)" compute;
      Rogue { count; compute }
  | "crash" ->
      known [ "m"; "at"; "down" ];
      let machine = geti "m" 0 in
      (* at accepts raw cycles or "N%" of the offered trace *)
      let at, percent =
        match List.assoc_opt "at" kvs with
        | None -> (50, true)
        | Some v -> (
            let body, percent =
              let n = String.length v in
              if n > 0 && v.[n - 1] = '%' then (String.sub v 0 (n - 1), true) else (v, false)
            in
            match int_of_string_opt body with
            | Some x -> (x, percent)
            | None ->
                fail "Faults.parse_spec: crash: at must be cycles or a percent (got %S)" v)
      in
      let down = geti "down" 0 in
      if machine < 0 then fail "Faults.parse_spec: crash: m must be >= 0 (got %d)" machine;
      if at < 0 then fail "Faults.parse_spec: crash: at must be >= 0 (got %d)" at;
      if percent && at > 100 then
        fail "Faults.parse_spec: crash: at percent must be <= 100 (got %d%%)" at;
      if down < 0 then fail "Faults.parse_spec: crash: down must be >= 0 (got %d)" down;
      Crash { machine; at; percent; down }
  | "slownode" ->
      known [ "m"; "mult" ];
      let machine = geti "m" 0 in
      let mult = geti "mult" 6 in
      if machine < 0 then fail "Faults.parse_spec: slownode: m must be >= 0 (got %d)" machine;
      if mult < 2 then fail "Faults.parse_spec: slownode: mult must be >= 2 (got %d)" mult;
      Slownode { machine; mult }
  | "netloss" ->
      known [ "p"; "reorder" ];
      let p = getf "p" 0.05 in
      let reorder = getf "reorder" 0.0 in
      if not (p >= 0.0 && p < 1.0) then
        fail "Faults.parse_spec: netloss: p must be in [0,1) (got %g)" p;
      if not (reorder >= 0.0 && reorder < 1.0) then
        fail "Faults.parse_spec: netloss: reorder must be in [0,1) (got %g)" reorder;
      Netloss { p; reorder }
  | "nicdrop" ->
      known [ "depth" ];
      let depth = geti "depth" 8 in
      if depth < 1 then fail "Faults.parse_spec: nicdrop: depth must be >= 1 (got %d)" depth;
      Nicdrop { depth }
  | other ->
      fail "Faults.parse_spec: unknown fault %S (expected %s)" other
        (String.concat " | " (fault_names @ net_fault_names))

(* Stable per-injector sub-seed so the drift shuffle, the PEBS coin
   flips and the retry jitter never share a random stream. *)
let sub_seed plan ~salt = Hashtbl.hash (plan.seed, salt, 0xfa17)

let degradation_spec ~seed = function
  | Degrade { loss; skid; misattr } -> Some { Stallhide_pmu.Pebs.loss; skid; misattr; seed }
  | Drift _ | Spike _ | Rogue _ | Crash _ | Slownode _ | Netloss _ | Nicdrop _ -> None

let prepare_hier fault hier =
  match fault with
  | Spike { at; duration; l3_mult; dram_mult } ->
      Stallhide_mem.Hierarchy.inject_spike hier ~from_cycle:at ~until_cycle:(at + duration)
        ~l3_mult ~dram_mult
  | Drift _ | Degrade _ | Rogue _ | Crash _ | Slownode _ | Netloss _ | Nicdrop _ -> ()

(* A scavenger that breaks the timely-return contract: per dispatch it
   grinds ~[compute] cycles of pure ALU work before its scavenger-phase
   yield. No loads, so it is safe to run against any shared image; no
   misses, so the dual-mode scheduler has no natural reason to preempt
   it — only the watchdog can. *)
let rogue_program ?(bursts = 4096) ~compute () =
  if compute < 2 then invalid_arg "Faults.rogue_program: compute must be >= 2";
  if bursts < 1 then invalid_arg "Faults.rogue_program: bursts must be >= 1";
  (* the spin body is 2 instructions (~2 cycles), so compute/2 turns *)
  let inner = max 1 (compute / 2) in
  Asm.parse
    (Printf.sprintf
       {|
  mov r1, %d
burst:
  mov r2, %d
spin:
  sub r2, r2, 1
  br gt r2, 0, spin
  syield
  sub r1, r1, 1
  br gt r1, 0, burst
  halt
|}
       bursts inner)
