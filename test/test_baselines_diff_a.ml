(* The engine-diff wall's [Baselines] runners case on array-scan and
   btree, half of its cost; [test_baselines_diff_b] runs the other
   workloads, so dune runs the two halves side by side. *)

let () =
  let workloads = List.filter Engine_arms.heavy Engine_arms.baselines_workloads in
  Alcotest.run "baselines-diff-a"
    [ ("fast-vs-reference", [ Engine_arms.baselines_case workloads ]) ]
