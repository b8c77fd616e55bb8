open Stallhide_cpu
open Stallhide_util

type event = Probe.event =
  | Loads_all
  | L2_miss_loads
  | L3_miss_loads
  | Stall_cycles
  | Frontend_stalls

type sample = { pc : int; addr : int; stall : int; cycle : int }

type degradation_spec = { loss : float; skid : int; misattr : float; seed : int }

type degradation = {
  spec : degradation_spec;
  st : Random.State.t;
  recent : int array;  (** ring of recently sampled pcs, misattribution donors *)
  mutable recent_len : int;
  mutable recent_at : int;
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

let period t = Probe.period t.counter

let degrade t spec =
  if not (spec.loss >= 0.0 && spec.loss <= 1.0) then
    invalid_arg "Pebs.degrade: loss must be in [0,1]";
  if not (spec.misattr >= 0.0 && spec.misattr <= 1.0) then
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
      }

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
      if not (d.spec.loss > 0.0 && Random.State.float d.st 1.0 < d.spec.loss) then begin
        let pc =
          if d.spec.misattr > 0.0 && Random.State.float d.st 1.0 < d.spec.misattr then
            d.recent.(Random.State.int d.st d.recent_len)
          else if d.spec.skid > 0 then pc + Random.State.int d.st (d.spec.skid + 1)
          else pc
        in
        push_sample t ~pc ~addr ~stall ~cycle
      end

let attach t probe = Probe.sample probe t.ev t.counter (record t)

let sample_pc t i =
  if i < 0 || i >= sample_count t then invalid_arg "Pebs.sample_pc: index out of range";
  Int_vec.get t.buf (fields * i)

let samples t =
  List.init (sample_count t) (fun i ->
      let f k = Int_vec.get t.buf ((fields * i) + k) in
      { pc = f 0; addr = f 1; stall = f 2; cycle = f 3 })

let dropped t = t.dropped

let overhead_cycles t = 40 * (sample_count t + t.dropped)
