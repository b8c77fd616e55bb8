(* The engine-diff wall's [Baselines] runners case on every workload
   but array-scan and btree, which [test_baselines_diff_a] runs. *)

let () =
  let workloads = List.filter (fun w -> not (Engine_arms.heavy w)) Engine_arms.baselines_workloads in
  Alcotest.run "baselines-diff-b"
    [ ("fast-vs-reference", [ Engine_arms.baselines_case workloads ]) ]
