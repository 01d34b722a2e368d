(* Writes the exact bytes of test/golden_NAME.expected to stdout:
   [print.exe NAME]. test/dune diffs the output against the file, and
   [dune promote] copies it over the file after an intentional change. *)

let () =
  match Sys.argv with
  | [| _; name |] when List.mem_assoc name Goldens.all ->
    print_string ((List.assoc name Goldens.all) ())
  | _ ->
    prerr_endline
      ("usage: print.exe NAME, where NAME is one of: "
      ^ String.concat " " (List.map fst Goldens.all));
    exit 2
