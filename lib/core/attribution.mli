(** Yield-site attribution: per instrumented site, what the gain/cost
    model promised versus what the simulation delivered.

    Sites are the [Yield]/[Yield_cond] instructions of the instrumented
    program; each covers the selected loads (and accelerator waits)
    between it and the next yield — exactly the group the primary pass
    hoisted prefetches for. Measured numbers come from two runs over the
    same workload: the stall the covered loads still pay in the
    instrumented run ([residual_stall]) against what they paid
    uninstrumented ([baseline_stall]), and the context-switch cycles the
    site was charged. Both runs count on a probe with an armed tally
    ({!Stallhide_cpu.Probe.tally}): every figure is exact, and neither
    run needs a trace.

    The model's promise prices the site as one coalesced group, with
    the same estimates the selection used. Per execution of the site it
    sums (miss probability x stall per miss - prefetch cost) over the
    covered loads, then subtracts one round trip of switches priced at
    the yield's live registers. {!Gain_cost.expected_gain} charges a
    round trip per load, so the two differ for any group of two or more
    loads. *)

open Stallhide_isa
open Stallhide_binopt

type site = {
  yield_pc : int;  (** instrumented-program pc of the yield *)
  kind : Instr.yield_kind;
  covered : int list;  (** covered load/wait sites, original pcs *)
  fires : int;
  skips : int;  (** conditional/scavenger yields that fell through *)
  baseline_stall : int;  (** covered sites' stall, uninstrumented run *)
  residual_stall : int;  (** covered sites' stall, instrumented run *)
  hidden_stall : int;  (** [baseline_stall - residual_stall] *)
  switch_paid : int;  (** switch cycles charged at this site *)
  predicted_gain : float;  (** model's total expected cycles saved *)
  measured_gain : int;  (** [hidden_stall - switch_paid] *)
}

type report = {
  sites : site list;  (** ascending [yield_pc] *)
  total_baseline_stall : int;  (** all pcs, not just covered ones *)
  total_residual_stall : int;
}

(** Static covering map over an instrumented program: each yield-family
    instruction paired with the selected original-pc loads/waits it
    covers (the loads between it and the next yield). This is the
    site → covered-loads mapping the causal layer scopes per-site
    counterfactuals with. *)
val covering_sites :
  Program.t ->
  orig_of_new:int array ->
  selected:int list ->
  (int * Instr.yield_kind * int list) list

(** [build ~baseline measured] pairs the tally of the uninstrumented
    run ([baseline], armed for the original program) with the tally of
    the instrumented run ([measured], armed for [program]).
    [orig_of_new] is the pc map from {!Primary_pass.run}, which maps an
    inserted pc to the original pc it precedes; [selected] the sites it
    chose (original pcs); [estimates] the same estimator the selection
    used. *)
val build :
  program:Program.t ->
  orig_of_new:int array ->
  selected:int list ->
  machine:Gain_cost.machine ->
  estimates:Gain_cost.estimates ->
  baseline:Stallhide_cpu.Probe.t ->
  Stallhide_cpu.Probe.t ->
  report

val pp_report : Format.formatter -> report -> unit

val to_json : report -> Stallhide_util.Json.t
