open Stallhide_mem

module Key = struct
  type t = Line of int | Sym of Stallhide_isa.Reg.t * int

  let compare = Stdlib.compare

  let equal a b = compare a b = 0

  (* Could the two keys denote the same cache line? Distinct concrete
     lines cannot; same-base symbolic offsets at least a line apart
     cannot; everything else must be assumed to. *)
  let may_alias ~line_bytes a b =
    match (a, b) with
    | Line x, Line y -> x = y
    | Sym (r, o), Sym (r', o') ->
        if r = r' then abs (o - o') < line_bytes else true
    | Line _, Sym _ | Sym _, Line _ -> true

  let to_string = function
    | Line l -> Printf.sprintf "line:%#x" l
    | Sym (r, o) ->
        if o = 0 then Printf.sprintf "[%s]" (Stallhide_isa.Reg.name r)
        else Printf.sprintf "[%s%+d]" (Stallhide_isa.Reg.name r) o
end

module Kmap = Map.Make (Key)
module Kset = Set.Make (Key)

let key_of ~line_bytes (base : Value.t) ~disp =
  match base with
  | Value.Const c ->
      (* engine line index: addr lsr log2(line_bytes); valid addresses
         are non-negative so division agrees *)
      let addr = c + disp in
      if addr < 0 then None else Some (Key.Line (addr / line_bytes))
  | Value.Init (r, o) -> Some (Key.Sym (r, o + disp))
  | Value.Affine _ | Value.Loaded | Value.Top -> None

type taint = Ptr | Strided | Opaque

let taint_of (base : Value.t) =
  match base with
  | Value.Loaded -> Ptr
  | Value.Affine _ -> Strided
  | _ -> Opaque

type cls = Always_hit | Always_miss | Unknown of taint

let cls_name = function
  | Always_hit -> "always-hit"
  | Always_miss -> "always-miss"
  | Unknown Ptr -> "unknown(ptr)"
  | Unknown Strided -> "unknown(strided)"
  | Unknown Opaque -> "unknown(opaque)"

(* Per-level must state: key -> upper bound on LRU age (0 = most
   recent). Presence with age a < ways proves residency. Ages count
   distinct other keys accessed since, which over-approximates the
   per-set age of the real set-associative LRU (lines mapping to other
   sets inflate the bound) — sound for must claims.

   The may side is a single accessed-set: [seen] keys may have been
   brought into some level since entry, [seen_top] when an
   unresolvable address (or a yield/call) may have touched anything.
   A load is a provable miss only from a cold start: no possibly-
   aliasing prior access on any path. Eviction is never provable
   (set indices are unknown), so this is exact for first-touch misses
   and silent otherwise. *)
type t = {
  l1 : int Kmap.t;
  l2 : int Kmap.t;
  l3 : int Kmap.t;
  seen : Kset.t;
  seen_top : bool;
}

let entry = { l1 = Kmap.empty; l2 = Kmap.empty; l3 = Kmap.empty; seen = Kset.empty; seen_top = false }

(* A yield hands the core to another lane (which may access anything);
   a call runs callee code the CFG does not model. Both kill every
   must fact and poison the may side. *)
let clobber t =
  { l1 = Kmap.empty; l2 = Kmap.empty; l3 = Kmap.empty; seen = t.seen; seen_top = true }

let must_join = Kmap.merge (fun _ a b ->
    match (a, b) with Some x, Some y -> Some (max x y) | _ -> None)

let join a b =
  {
    l1 = must_join a.l1 b.l1;
    l2 = must_join a.l2 b.l2;
    l3 = must_join a.l3 b.l3;
    seen = Kset.union a.seen b.seen;
    seen_top = a.seen_top || b.seen_top;
  }

let equal a b =
  Kmap.equal ( = ) a.l1 b.l1
  && Kmap.equal ( = ) a.l2 b.l2
  && Kmap.equal ( = ) a.l3 b.l3
  && Kset.equal a.seen b.seen
  && a.seen_top = b.seen_top

(* Provably the first-ever access to [k]'s line: cold caches at entry
   and no possibly-aliasing access on any path since. *)
let cold t ~line_bytes k =
  (not t.seen_top) && not (Kset.exists (Key.may_alias ~line_bytes k) t.seen)

let classify (mem : Memconfig.t) t ~base ~disp =
  match key_of ~line_bytes:mem.Memconfig.line_bytes base ~disp with
  | None -> Unknown (taint_of base)
  | Some k ->
      if Kmap.mem k t.l1 || Kmap.mem k t.l2 then Always_hit
      else if cold t ~line_bytes:mem.Memconfig.line_bytes k then Always_miss
      else Unknown (taint_of base)

(* --- transfer functions, mirroring Mem.Cache / Mem.Hierarchy ---

   The hierarchy only touches the levels a demand access actually
   probes: an L1 hit leaves L2/L3 LRU state untouched, an L2 hit
   leaves L3 untouched, and a fill installs the line in every level
   above the serving one. Each level's update below is the join over
   the paths that are possible given the must facts — getting this
   wrong (e.g. refreshing a line's L2 age on an L1 hit) would be
   unsound, since real L2 stamps go stale while L1 serves the line. *)

let age_all ~ways m =
  Kmap.filter_map (fun _ a -> if a + 1 < ways then Some (a + 1) else None) m

let age_others ~ways k m =
  Kmap.filter_map
    (fun k' a ->
      if Key.equal k' k then Some a else if a + 1 < ways then Some (a + 1) else None)
    m

(* Definite access of [k] at a level (hit or fill): [k] becomes most
   recent; keys it was younger than keep their age, younger keys age
   by one. Unknown prior residency takes the miss (insert) case. *)
let touch ~ways k m =
  match Kmap.find_opt k m with
  | Some a ->
      Kmap.add k 0
        (Kmap.filter_map
           (fun k' a' ->
             if Key.equal k' k then None
             else if a' < a then if a' + 1 < ways then Some (a' + 1) else None
             else Some a')
           m)
  | None -> Kmap.add k 0 (age_all ~ways m)

let load (mem : Memconfig.t) t ~base ~disp =
  let line_bytes = mem.Memconfig.line_bytes in
  let w1 = mem.Memconfig.l1.Memconfig.ways
  and w2 = mem.Memconfig.l2.Memconfig.ways
  and w3 = mem.Memconfig.l3.Memconfig.ways in
  match key_of ~line_bytes base ~disp with
  | None ->
      (* unknown line: may evict anything anywhere, fills unknown *)
      {
        l1 = age_all ~ways:w1 t.l1;
        l2 = age_all ~ways:w2 t.l2;
        l3 = age_all ~ways:w3 t.l3;
        seen = t.seen;
        seen_top = true;
      }
  | Some k ->
      let l1_hit = Kmap.mem k t.l1 in
      let l12_hit = l1_hit || Kmap.mem k t.l2 in
      let is_cold = cold t ~line_bytes k in
      (* L1 is touched by every demand access *)
      let l1 = touch ~ways:w1 k t.l1 in
      (* a lower level is untouched when the access provably hits
         above it; definitely touched on a provable first access;
         otherwise the join of both outcomes: others age, [k] keeps
         its old age (present iff it already was) *)
      let lower ~ways ~hit_above lvl =
        if hit_above then lvl
        else if is_cold then touch ~ways k lvl
        else age_others ~ways k lvl
      in
      {
        l1;
        l2 = lower ~ways:w2 ~hit_above:l1_hit t.l2;
        l3 = lower ~ways:w3 ~hit_above:l12_hit t.l3;
        seen = Kset.add k t.seen;
        seen_top = t.seen_top;
      }

(* [Hierarchy.prefetch] first checks L1 residency without touching LRU
   state and is a complete no-op when resident; otherwise it probes and
   fills like a demand access. A prefetched line that is later demand-
   loaded has a valid address in a fault-free program (same base+disp),
   so the fill cannot have been silently skipped. *)
let prefetch (mem : Memconfig.t) t ~base ~disp =
  let line_bytes = mem.Memconfig.line_bytes in
  let w1 = mem.Memconfig.l1.Memconfig.ways
  and w2 = mem.Memconfig.l2.Memconfig.ways
  and w3 = mem.Memconfig.l3.Memconfig.ways in
  match key_of ~line_bytes base ~disp with
  | None ->
      {
        l1 = age_all ~ways:w1 t.l1;
        l2 = age_all ~ways:w2 t.l2;
        l3 = age_all ~ways:w3 t.l3;
        seen = t.seen;
        seen_top = true;
      }
  | Some k ->
      if Kmap.mem k t.l1 then (* must-resident: complete no-op *) t
      else
        let is_cold = cold t ~line_bytes k in
        (* Not provably resident. Either path leaves [k]'s line in L1:
           already resident (unknown age, bound ways-1), or filled
           (in-flight entries count as present). A provable first
           access takes the definite-fill path everywhere. *)
        let l1 =
          Kmap.add k (if is_cold then 0 else w1 - 1) (age_all ~ways:w1 t.l1)
        in
        let l2 =
          if is_cold then touch ~ways:w2 k t.l2 else age_others ~ways:w2 k t.l2
        in
        let l3 =
          if is_cold then touch ~ways:w3 k t.l3
          else if Kmap.mem k t.l2 then
            (* every non-resident path stops at L2: L3 untouched *)
            t.l3
          else age_others ~ways:w3 k t.l3
        in
        { l1; l2; l3; seen = Kset.add k t.seen; seen_top = t.seen_top }
