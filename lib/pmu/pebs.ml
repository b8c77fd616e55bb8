open Stallhide_cpu
open Stallhide_mem
open Stallhide_util

type event = Probe.event =
  | Loads_all
  | L2_miss_loads
  | L3_miss_loads
  | Stall_cycles
  | Frontend_stalls

let event_name = function
  | Loads_all -> "LOADS_ALL"
  | L2_miss_loads -> "L2_MISS_LOADS"
  | L3_miss_loads -> "L3_MISS_LOADS"
  | Stall_cycles -> "STALL_CYCLES"
  | Frontend_stalls -> "FRONTEND_STALLS"

type sample = { pc : int; addr : int; stall : int; cycle : int }

type degradation_spec = { loss : float; skid : int; misattr : float; seed : int }

type degradation = {
  spec : degradation_spec;
  st : Random.State.t;
  recent : int array;  (** ring of recently sampled pcs, misattribution donors *)
  mutable recent_len : int;
  mutable recent_at : int;
  mutable lost : int;
  mutable skidded : int;
  mutable misattributed : int;
}

(* Samples are kept flat, four ints each (pc, addr, stall, cycle): a
   profiling run keeps tens of thousands, and records would each be a
   block for the GC to promote and scan. *)
let fields = 4

type t = {
  ev : event;
  counter : Probe.countdown;
  capacity : int;
  buf : Int_vec.t;
  mutable dropped : int;
  mutable degradation : degradation option;
}

let create ?(buffer_capacity = 1 lsl 20) ~event ~period () =
  if period <= 0 then invalid_arg "Pebs.create: period must be positive";
  {
    ev = event;
    counter = Probe.countdown ~period;
    capacity = buffer_capacity;
    buf = Int_vec.create ();
    dropped = 0;
    degradation = None;
  }

let event t = t.ev

let period t = Probe.period t.counter

let degrade t spec =
  if spec.loss < 0.0 || spec.loss > 1.0 then invalid_arg "Pebs.degrade: loss must be in [0,1]";
  if spec.misattr < 0.0 || spec.misattr > 1.0 then
    invalid_arg "Pebs.degrade: misattr must be in [0,1]";
  if spec.skid < 0 then invalid_arg "Pebs.degrade: skid must be >= 0";
  t.degradation <-
    Some
      {
        spec;
        st = Random.State.make [| spec.seed; 0x7eb5; Hashtbl.hash t.ev |];
        recent = Array.make 64 0;
        recent_len = 0;
        recent_at = 0;
        lost = 0;
        skidded = 0;
        misattributed = 0;
      }

let degradation_injected t =
  match t.degradation with
  | None -> (0, 0, 0)
  | Some d -> (d.lost, d.skidded, d.misattributed)

let sample_count t = Int_vec.length t.buf / fields

let push_sample t ~pc ~addr ~stall ~cycle =
  if sample_count t < t.capacity then begin
    Int_vec.push t.buf pc;
    Int_vec.push t.buf addr;
    Int_vec.push t.buf stall;
    Int_vec.push t.buf cycle
  end
  else t.dropped <- t.dropped + 1

(* Apply the configured degradation to one hardware sample: drop it
   (sample loss), displace its pc forward (skid), or stamp it with a
   recently-sampled unrelated pc (misattribution) — the three failure
   modes of real PEBS/IBS units the causality-analysis literature
   documents. Deterministic per seed. *)
let record t ~pc ~addr ~stall ~cycle =
  match t.degradation with
  | None -> push_sample t ~pc ~addr ~stall ~cycle
  | Some d ->
      d.recent.(d.recent_at) <- pc;
      d.recent_at <- (d.recent_at + 1) mod Array.length d.recent;
      if d.recent_len < Array.length d.recent then d.recent_len <- d.recent_len + 1;
      if d.spec.loss > 0.0 && Random.State.float d.st 1.0 < d.spec.loss then
        d.lost <- d.lost + 1
      else begin
        let pc =
          if d.spec.misattr > 0.0 && Random.State.float d.st 1.0 < d.spec.misattr then begin
            let donor = d.recent.(Random.State.int d.st d.recent_len) in
            if donor <> pc then d.misattributed <- d.misattributed + 1;
            donor
          end
          else if d.spec.skid > 0 then begin
            let delta = Random.State.int d.st (d.spec.skid + 1) in
            if delta > 0 then d.skidded <- d.skidded + 1;
            pc + delta
          end
          else pc
        in
        push_sample t ~pc ~addr ~stall ~cycle
      end

(* [count t n ...] advances the event counter by [n] occurrences and
   records one sample per period boundary crossed. *)
let count t n ~pc ~addr ~stall ~cycle =
  for _ = 1 to Probe.count t.counter n do
    record t ~pc ~addr ~stall ~cycle
  done

let attach t probe = Probe.sample probe t.ev t.counter (record t)

(* The reference arm: the same events through per-instruction hooks,
   which keep the run on the reference interpreter. *)
let hooks t =
  let on_load (info : Events.load_info) =
    let sample () = count t 1 ~pc:info.pc ~addr:info.addr ~stall:info.stall ~cycle:info.cycle in
    match (t.ev, info.level) with
    | Loads_all, _ -> sample ()
    | L2_miss_loads, (Hierarchy.L3 | Hierarchy.Dram) -> sample ()
    | L3_miss_loads, Hierarchy.Dram -> sample ()
    | (L2_miss_loads | L3_miss_loads), (Hierarchy.L1 | Hierarchy.L2) -> ()
    | L3_miss_loads, Hierarchy.L3 -> ()
    | (Stall_cycles | Frontend_stalls), _ -> ()
  in
  let on_stall ~ctx:_ ~pc ~cycles ~cycle =
    match t.ev with
    | Stall_cycles -> count t cycles ~pc ~addr:0 ~stall:cycles ~cycle
    | Loads_all | L2_miss_loads | L3_miss_loads | Frontend_stalls -> ()
  in
  let on_frontend_stall ~ctx:_ ~pc ~cycles ~cycle =
    (* the generic stalled-cycles event cannot tell causes apart *)
    match t.ev with
    | Stall_cycles | Frontend_stalls -> count t cycles ~pc ~addr:0 ~stall:cycles ~cycle
    | Loads_all | L2_miss_loads | L3_miss_loads -> ()
  in
  { Events.nop with on_load; on_stall; on_frontend_stall }

let sample_pc t i =
  if i < 0 || i >= sample_count t then invalid_arg "Pebs.sample_pc: index out of range";
  Int_vec.get t.buf (fields * i)

let samples t =
  List.init (sample_count t) (fun i ->
      let f k = Int_vec.get t.buf ((fields * i) + k) in
      { pc = f 0; addr = f 1; stall = f 2; cycle = f 3 })

let dropped t = t.dropped

let occurrences t = Probe.occurrences t.counter

let clear t =
  Int_vec.clear t.buf;
  Probe.reset t.counter;
  t.dropped <- 0;
  match t.degradation with
  | None -> ()
  | Some d ->
      d.lost <- 0;
      d.skidded <- 0;
      d.misattributed <- 0

let overhead_cycles t = 40 * (sample_count t + t.dropped)
