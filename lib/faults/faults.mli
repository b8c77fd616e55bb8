(** Deterministic, seeded fault injection for the stall-hiding stack.

    Each fault models one way production diverges from the clean-room
    assumptions of the §3.2/§3.3 pipeline:

    - [Drift] — the working set shrinks by [shrink]× between the
      profiling run and deployment, so the profiled miss sites now hit
      and the planted yields pay switches for nothing (stale profile);
    - [Degrade] — the PEBS units lie: samples are lost with probability
      [loss], displaced forward by up to [skid] pcs, or stamped with a
      recently sampled unrelated pc with probability [misattr];
    - [Spike] — a transient latency storm: between [at] and
      [at + duration] cycles, L3 service costs [l3_mult]× and DRAM
      [dram_mult]×;
    - [Rogue] — [count] scavengers each compute ~[compute] cycles per
      dispatch before yielding, breaking the timely-return contract.

    Cluster-level ({!is_net}) faults, interpreted by the
    [lib/cluster] harness:

    - [Crash] — machine [machine] fails at [at] (cycles, or percent of
      the offered trace when [percent]); in-flight work is lost. With
      [down > 0] a fresh replica comes back that many cycles later and
      must win a health probe to be re-admitted;
    - [Slownode] — machine [machine] serves every L3/DRAM access
      [mult]× slower for the whole run (thermal throttling, a noisy
      neighbor) without failing health checks;
    - [Netloss] — every message is lost with probability [p] and
      reordered (delivered a full transit late) with probability
      [reorder];
    - [Nicdrop] — every machine's NIC rx ring is shrunk to [depth]
      messages, so bursts overflow and drop on the floor.

    Every injector draws from a seed derived with {!sub_seed}, so the
    same plan replays the same faults; see {!Harness} for the
    defended/undefended experiment arms. *)

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

val no_faults : seed:int -> plan

(** Short stable id: ["drift" | "pebs" | "spike" | "rogue" | "crash"
    | "slownode" | "netloss" | "nicdrop"]. *)
val name : fault -> string

(** True for the cluster-level faults ([Crash], [Slownode], [Netloss],
    [Nicdrop]) that only the [lib/cluster] harness can run. *)
val is_net : fault -> bool

(** The single-machine vocabulary ({!Harness.run_plan}). *)
val fault_names : string list

(** The cluster vocabulary ([stallhide cluster], [inject]). *)
val net_fault_names : string list

(** Round-trips through {!parse_spec}. *)
val describe : fault -> string

val to_json : fault -> Stallhide_util.Json.t

(** Parse one CLI [--inject] spec, e.g. ["drift:shrink=128"],
    ["pebs:loss=0.4,skid=3,misattr=0.25"],
    ["spike:at=1000,for=9000,l3=4,dram=10"],
    ["rogue:count=1,compute=3000"], ["crash:m=0,at=50%,down=0"],
    ["slownode:m=0,mult=6"], ["netloss:p=0.05,reorder=0"],
    ["nicdrop:depth=8"]. Omitted keys take those defaults;
    a bare fault name is the all-defaults form.
    @raise Invalid_argument with a usable message on malformed specs. *)
val parse_spec : string -> fault

(** Stable injector-specific seed derivation: same [plan.seed] and
    [salt] always yield the same sub-seed, different salts decorrelate
    the injectors' random streams. *)
val sub_seed : plan -> salt:int -> int

(** The PEBS degradation to arm for a profiling run under this fault;
    [None] for every non-[Degrade] fault. *)
val degradation_spec : seed:int -> fault -> Stallhide_pmu.Pebs.degradation_spec option

(** Arm the hierarchy-level part of the fault (the [Spike] window);
    no-op for other faults. *)
val prepare_hier : fault -> Stallhide_mem.Hierarchy.t -> unit

(** The rogue-scavenger binary: [bursts] rounds of ~[compute] cycles of
    pure ALU spin, each ended by a scavenger-phase yield. Loads nothing,
    so it can share any image; initializes its own registers. *)
val rogue_program : ?bursts:int -> compute:int -> unit -> Stallhide_isa.Program.t
