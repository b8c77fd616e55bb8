open Stallhide_util

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Vec.set v 7 (-1);
  Alcotest.(check int) "set/get" (-1) (Vec.get v 7);
  Alcotest.(check int) "last" (99 * 99) (Vec.get v 99)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "get neg" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v (-1)));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      Vec.set v 5 0)

let test_vec_clear_roundtrip () =
  let v = Vec.of_list [ 5; 4; 3 ] in
  Alcotest.(check (list int)) "to_list" [ 5; 4; 3 ] (Vec.to_list v);
  Alcotest.(check (array int)) "to_array" [| 5; 4; 3 |] (Vec.to_array v);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 9;
  Alcotest.(check (list int)) "reusable" [ 9 ] (Vec.to_list v)

let test_vec_iter () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  let sum = ref 0 in
  Vec.iter (fun x -> sum := !sum + x) v;
  Alcotest.(check int) "iter sum" 10 !sum

let test_bits_basic () =
  Alcotest.(check int) "popcount 0" 0 (Bits.popcount 0);
  Alcotest.(check int) "popcount 0b1011" 3 (Bits.popcount 0b1011);
  Alcotest.(check int) "all 4" 0b1111 (Bits.all 4);
  Alcotest.(check bool) "mem" true (Bits.mem 0b100 2);
  Alcotest.(check bool) "not mem" false (Bits.mem 0b100 1);
  Alcotest.(check int) "add" 0b110 (Bits.add 0b100 1);
  Alcotest.(check int) "remove" 0b100 (Bits.remove 0b110 1);
  Alcotest.(check int) "diff" 0b100 (Bits.diff 0b101 0b011)

let test_bits_fold () =
  let xs = Bits.fold (fun i acc -> i :: acc) 0b10101 [] in
  Alcotest.(check (list int)) "fold indices" [ 4; 2; 0 ] xs

let qcheck_popcount =
  QCheck.Test.make ~name:"popcount agrees with naive bit loop" ~count:500
    QCheck.(int_bound ((1 lsl 16) - 1))
    (fun mask ->
      let naive = List.length (List.filter (Bits.mem mask) (List.init 16 Fun.id)) in
      Bits.popcount mask = naive)

let qcheck_add_remove =
  QCheck.Test.make ~name:"add then remove restores set" ~count:500
    QCheck.(pair (int_bound ((1 lsl 16) - 1)) (int_bound 15))
    (fun (mask, i) -> Bits.remove (Bits.add mask i) i = Bits.remove mask i)

let qcheck_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "clear/roundtrip" `Quick test_vec_clear_roundtrip;
          Alcotest.test_case "iter" `Quick test_vec_iter;
          QCheck_alcotest.to_alcotest qcheck_vec_roundtrip;
        ] );
      ( "bits",
        [
          Alcotest.test_case "basic" `Quick test_bits_basic;
          Alcotest.test_case "fold" `Quick test_bits_fold;
          QCheck_alcotest.to_alcotest qcheck_popcount;
          QCheck_alcotest.to_alcotest qcheck_add_remove;
        ] );
    ]
