open Stallhide_cpu
open Stallhide_util

type record = { from_pc : int; to_pc : int; cycle : int }

(* Snapshots are kept flat, back to back, one vector per field;
   [starts] holds each one's first record. A profiling run keeps
   thousands, and records would each be a block for the GC to promote
   and scan. *)
type t = {
  ring : Probe.ring;
  retires : Probe.countdown;  (* retired instructions until the next snapshot *)
  max_snapshots : int;
  starts : Int_vec.t;
  froms : Int_vec.t;
  tos : Int_vec.t;
  cycles : Int_vec.t;
}

let create ?(depth = 32) ?(max_snapshots = 1 lsl 16) ~snapshot_period () =
  if snapshot_period <= 0 then invalid_arg "Lbr.create: period must be positive";
  if depth <= 0 then invalid_arg "Lbr.create: depth must be positive";
  {
    ring = Probe.ring ~depth;
    retires = Probe.countdown ~period:snapshot_period;
    max_snapshots;
    starts = Int_vec.create ();
    froms = Int_vec.create ();
    tos = Int_vec.create ();
    cycles = Int_vec.create ();
  }

let snapshot_count t = Int_vec.length t.starts

let record_count t = Int_vec.length t.froms

let snapshot t =
  let n = Probe.ring_length t.ring in
  if n > 0 && snapshot_count t < t.max_snapshots then begin
    Int_vec.push t.starts (record_count t);
    Probe.copy_ring t.ring ~from_pc:t.froms ~to_pc:t.tos ~cycle:t.cycles
  end

let attach t probe = Probe.record_branches probe t.ring t.retires (fun () -> snapshot t)

let snapshot_start t s =
  if s < 0 || s >= snapshot_count t then invalid_arg "Lbr: snapshot index out of range";
  Int_vec.get t.starts s

let snapshot_length t s =
  let stop = if s + 1 < snapshot_count t then Int_vec.get t.starts (s + 1) else record_count t in
  stop - snapshot_start t s

let from_pc t r = Int_vec.get t.froms r

let to_pc t r = Int_vec.get t.tos r

let cycle t r = Int_vec.get t.cycles r

let snapshots t =
  List.init (snapshot_count t) (fun s ->
      let first = snapshot_start t s in
      Array.init (snapshot_length t s) (fun i ->
          let r = first + i in
          { from_pc = from_pc t r; to_pc = to_pc t r; cycle = cycle t r }))
