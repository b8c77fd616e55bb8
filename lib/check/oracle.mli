(** End-to-end semantic oracles for the instrumentation passes.

    Each oracle runs a generated case through two (or more) execution
    arms that the paper claims are semantically equivalent, and
    compares full architectural state ({!State}). Every oracle also
    checks the metamorphic invariants on the way: the reference arm is
    run twice and must be bit-identical (equal seeds ⇒ equal cycles and
    state), and no arm of a verifier-clean program may trap.

    - [Primary] — uninstrumented sequential vs {!Primary_pass}
      prefetch+yield instrumented under round-robin interleaving;
    - [Scavenger] — uninstrumented sequential vs scavenger-pass
      conditional yields executed in scavenger mode under round-robin;
    - [Smp] — instrumented lanes served as requests on a 1-core vs an
      N-core {!Stallhide_smp.Machine} (sharded dispatch, shared L3,
      scavenger co-runners on core 0 so stealing can fire);
    - [Fault] — instrumented round-robin, clean vs under an injected
      L3/DRAM latency spike and vs rogue scavenger co-runners: state
      must be preserved and a spike may only {e degrade} timing;
    - [Cluster] — the instrumented lanes served through an M-machine
      {!Stallhide_cluster.Cluster} (consistent hashing, pristine link,
      d-FCFS, steal off) vs M independent machines each running its key
      range standalone: per-machine state must be bit-identical, and
      (metamorphic) enabling retries + immediate hedging under zero
      faults changes no request payload and only ever {e adds} work —
      no machine serves fewer attempts and the wire carries no fewer
      messages. Time is deliberately not the invariant: hedges race
      the last ack down and can even warm the shared L3 under the
      co-resident attempts, both of which legitimately shrink cycle
      counts (the fuzzer found both);
    - [Soundness] — the static must/may cache analysis
      ({!Stallhide_analysis}) vs simulator ground truth under a
      per-case sampled {!Stallhide_mem.Memconfig}: an [Always_hit]
      load may never record a miss (multi-lane run), an [Always_miss]
      load must miss on every execution (1-lane cold-start run), and
      classification must be deterministic;
    - [Txn] — the {!Stallhide_txn} transaction engine: K in-flight
      multi-key transactions interleaved round-robin vs a sequential
      replay of the same committed schedule (lane order = commit
      sequence, fresh image). Strict sorted-order per-key latching
      serializes conflicting transactions in commit order, so the
      replay must be bit-identical on committed state (the
      schedule-dependent stats line is masked); the interleaved run
      itself is also replayed for the determinism metamorphic, and the
      committed sequence numbers must form a permutation. The case's
      generated program supplies entropy only through [cfg] — the arms
      run the engine's own program;
    - [Mutant] — a deliberately broken pass (clobbers every load's
      destination register, the classic missed-context-restore bug).
      It must always fail; it exists to prove the oracles can see
      miscompiles and to demo the shrinker, and is therefore excluded
      from {!all}. *)

open Stallhide_isa

type name = Primary | Scavenger | Smp | Fault | Soundness | Cluster | Txn | Mutant

(** The seven real oracles — the default fuzz campaign. *)
val all : name list

val to_string : name -> string

val of_string : string -> name option

type verdict =
  | Pass
  | Counterexample of string  (** semantic divergence — a real finding *)
  | Invalid of string
      (** the case could not be evaluated (assembly failure or budget
          exhaustion) — distinct from [Counterexample] so the shrinker
          never "minimizes" a miscompile into an infinite loop *)

val verdict_to_string : verdict -> string

(** [check name cfg prog] runs the oracle on [prog] in the environment
    described by [cfg] (fresh image per arm). [prog] is explicit so the
    shrinker and repro replay can substitute a reduced program. *)
val check : name -> Gen.cfg -> Program.t -> verdict

val check_case : name -> Gen.case -> verdict

(** The memory geometries the [Soundness] oracle samples from, one per
    case ([Memconfig.default] first).
    Exported for [test_mem] only. *)
val mem_samples : Stallhide_mem.Memconfig.t list
