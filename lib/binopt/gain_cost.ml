open Stallhide_isa
open Stallhide_util

type machine = {
  switch_base : float;
  switch_per_reg : float;
  prefetch_cost : float;
  default_miss_stall : float;
}

let default_machine =
  { switch_base = 6.0; switch_per_reg = 1.0; prefetch_cost = 1.0; default_miss_stall = 196.0 }

type estimates = {
  miss_probability : int -> float option;
  stall_per_miss : int -> float option;
}

let of_profile p =
  {
    miss_probability = Stallhide_pmu.Profile.miss_probability p;
    stall_per_miss = Stallhide_pmu.Profile.stall_per_miss p;
  }

let of_ground_truth table =
  {
    miss_probability =
      (fun pc ->
        match Hashtbl.find_opt table pc with
        | Some (execs, misses, _) when execs > 0 ->
            Some (float_of_int misses /. float_of_int execs)
        | Some _ | None -> None);
    stall_per_miss =
      (fun pc ->
        match Hashtbl.find_opt table pc with
        | Some (_, misses, stall) when misses > 0 ->
            Some (float_of_int stall /. float_of_int misses)
        | Some _ | None -> None);
  }

(* --- static-analysis placement --- *)

type cls = Hit | Miss | Unknown_ptr | Unknown_strided | Unknown_opaque

type classifier = {
  cls_at : int -> cls option;
  static_est : estimates;
}

type placement = Pgo | Static of classifier | Hybrid of classifier

let place placement est =
  match placement with
  | Pgo -> est
  | Static c -> c.static_est
  | Hybrid c ->
      (* proven facts override the profile; where the analysis is
         unsure, the profile speaks first and static priors back-fill
         pcs the (possibly stale or truncated) profile never sampled *)
      {
        miss_probability =
          (fun pc ->
            match c.cls_at pc with
            | Some Hit -> Some 0.0
            | Some Miss -> Some 1.0
            | Some (Unknown_ptr | Unknown_strided | Unknown_opaque) | None -> (
                match est.miss_probability pc with
                | Some _ as p -> p
                | None -> c.static_est.miss_probability pc));
        stall_per_miss =
          (fun pc ->
            match est.stall_per_miss pc with
            | Some _ as s -> s
            | None -> c.static_est.stall_per_miss pc);
      }

type policy = Always | Threshold of float | Cost_benefit

let switch_cost m ~live_regs =
  m.switch_base +. (m.switch_per_reg *. float_of_int live_regs)

let expected_gain m ~live_regs ~p_miss ~stall =
  (p_miss *. stall) -. (m.prefetch_cost +. (2.0 *. switch_cost m ~live_regs))

let select policy m est prog =
  (* The switch cost at a candidate site depends on how many registers
     are live there (the primary pass will annotate the yield and the
     runtime saves only those), so the model prices each site from the
     liveness of the uninstrumented binary. *)
  let live_at =
    match policy with
    | Cost_benefit ->
        let lv = Liveness.compute (Cfg.build prog) in
        fun pc -> Bits.popcount (Liveness.live_in lv pc)
    | Always | Threshold _ -> fun _ -> Reg.count
  in
  let keep pc =
    match policy with
    | Always -> true
    | Threshold t -> (
        match est.miss_probability pc with Some p -> p >= t | None -> false)
    | Cost_benefit -> (
        match est.miss_probability pc with
        | None -> false
        | Some p ->
            let stall =
              match est.stall_per_miss pc with Some s -> s | None -> m.default_miss_stall
            in
            expected_gain m ~live_regs:(live_at pc) ~p_miss:p ~stall > 0.0)
  in
  List.filter keep (Program.load_sites prog)
