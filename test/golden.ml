(* Golden files under test/golden/.

   [check name got] compares [got] byte for byte with golden/[name].
   To bless a deliberate change, run the suite with STALLHIDE_BLESS_DIR
   naming the directory to write into instead:
     STALLHIDE_BLESS_DIR=$PWD/test/golden dune exec test/test_why.exe *)

(* dune runtest runs in test/; dune exec from the project root *)
let path name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local else Filename.concat "test/golden" name

let read name = In_channel.with_open_bin (path name) In_channel.input_all

let check name got =
  match Sys.getenv_opt "STALLHIDE_BLESS_DIR" with
  | Some dir when dir <> "" ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc got)
  | _ -> Alcotest.(check string) ("golden " ^ name) (read name) got
