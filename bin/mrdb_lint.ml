(* mrdb_lint driver: lint one or more lib/ trees, print diagnostics with
   the violated rule and paper clause, exit non-zero on any violation.
   Wired to `dune build @lint`, which `dune runtest` includes.

     mrdb_lint [LIB_DIR ...]     lint each tree (default: lib)
     mrdb_lint --explain R<n>    print a rule's rationale and exit *)

let usage = "usage: mrdb_lint [--explain R<n>] [LIB_DIR ...]  (default: lib)"

let die msg =
  Printf.eprintf "mrdb_lint: %s\n%s\n" msg usage;
  exit 2

let explain rule =
  Printf.printf "%s [%s]\n  %s\n"
    (Mrdb_lint.Diag.rule_name rule)
    (Mrdb_lint.Diag.rule_title rule)
    (Mrdb_lint.Diag.paper_clause rule)

let lib_dirs_of_args = function
  | [ ("-h" | "-help" | "--help") ] ->
      print_endline usage;
      exit 0
  | [ "--explain"; name ] -> (
      match Mrdb_lint.Diag.rule_of_name name with
      | Some rule ->
          explain rule;
          exit 0
      | None -> die (Printf.sprintf "unknown rule %S" name))
  | "--explain" :: _ -> die "--explain takes exactly one rule"
  | [] -> [ "lib" ]
  | dirs -> (
      match List.find_opt (fun d -> String.length d > 0 && d.[0] = '-') dirs with
      | Some opt -> die (Printf.sprintf "unknown option %S" opt)
      | None -> dirs)

let () =
  let lib_dirs = lib_dirs_of_args (List.tl (Array.to_list Sys.argv)) in
  (match List.filter (fun d -> not (Sys.file_exists d)) lib_dirs with
  | [] -> ()
  | d :: _ -> die (Printf.sprintf "no such directory: %s" d));
  let diags =
    List.concat_map (fun lib_dir -> Mrdb_lint.Engine.lint ~lib_dir ()) lib_dirs
  in
  List.iter (fun d -> print_endline (Mrdb_lint.Diag.to_string d)) diags;
  (* The summary goes to stderr so stdout carries only diagnostics. *)
  match diags with
  | [] ->
      let rules =
        List.map
          (fun r ->
            Mrdb_lint.Diag.rule_name r ^ " " ^ Mrdb_lint.Diag.rule_title r)
          Mrdb_lint.Diag.all_rules
      in
      Printf.eprintf "mrdb_lint: %s clean (%s)\n"
        (String.concat " " lib_dirs)
        (String.concat ", " rules)
  | _ ->
      Printf.eprintf "mrdb_lint: %d violation%s\n" (List.length diags)
        (if List.length diags = 1 then "" else "s");
      exit 1
