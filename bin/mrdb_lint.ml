(* mrdb_lint driver: lint one or more lib/ trees, print diagnostics with
   the violated rule and paper clause, exit non-zero on any non-baselined
   violation.  Wired to `dune build @lint` and the CI lint job.

     mrdb_lint [options] [LIB_DIR ...]
       --format text|json    output format (json = SARIF 2.1.0)
       --baseline FILE       suppress fingerprints listed in FILE
       --check-baseline      also fail when FILE has stale entries
       --explain R<n>        print a rule's rationale and exit
       -o FILE               write the report to FILE instead of stdout *)

let usage =
  "usage: mrdb_lint [--format text|json] [--baseline FILE] \
   [--check-baseline] [--explain R<n>] [-o FILE] [LIB_DIR ...]  (default: lib)"

let die msg =
  Printf.eprintf "mrdb_lint: %s\n%s\n" msg usage;
  exit 2

let explain rule =
  Printf.printf "%s [%s]\n  %s\n"
    (Mrdb_lint.Diag.rule_name rule)
    (Mrdb_lint.Diag.rule_title rule)
    (Mrdb_lint.Diag.paper_clause rule)

type opts = {
  mutable format : [ `Text | `Json ];
  mutable baseline : string option;
  mutable check_baseline : bool;
  mutable out : string option;
  mutable dirs : string list;
}

let parse_args argv =
  let o =
    { format = `Text; baseline = None; check_baseline = false; out = None;
      dirs = [] }
  in
  let rec go = function
    | [] -> o
    | ("-h" | "-help" | "--help") :: _ ->
        print_endline usage;
        exit 0
    | "--format" :: v :: rest ->
        (match v with
        | "text" -> o.format <- `Text
        | "json" -> o.format <- `Json
        | _ -> die (Printf.sprintf "unknown format %S" v));
        go rest
    | "--baseline" :: v :: rest ->
        o.baseline <- Some v;
        go rest
    | "--check-baseline" :: rest ->
        o.check_baseline <- true;
        go rest
    | "--explain" :: v :: rest -> (
        match Mrdb_lint.Diag.rule_of_name v with
        | Some rule ->
            explain rule;
            if rest <> [] then die "--explain takes no further arguments";
            exit 0
        | None -> die (Printf.sprintf "unknown rule %S" v))
    | "-o" :: v :: rest ->
        o.out <- Some v;
        go rest
    | ("--format" | "--baseline" | "--explain" | "-o") :: [] ->
        die "missing argument"
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        die (Printf.sprintf "unknown option %S" arg)
    | dir :: rest ->
        o.dirs <- o.dirs @ [ dir ];
        go rest
  in
  go (List.tl (Array.to_list argv))

let write_report opts text =
  match opts.out with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc text)

let () =
  let opts = parse_args Sys.argv in
  let lib_dirs = if opts.dirs = [] then [ "lib" ] else opts.dirs in
  (match List.filter (fun d -> not (Sys.file_exists d)) lib_dirs with
  | [] -> ()
  | d :: _ -> die (Printf.sprintf "no such directory: %s" d));
  let diags =
    List.concat_map
      (fun lib_dir -> Mrdb_lint.Engine.lint ~lib_dir ())
      lib_dirs
  in
  let baseline =
    match opts.baseline with
    | Some path -> Mrdb_lint.Baseline.load path
    | None -> Mrdb_lint.Baseline.parse_lines []
  in
  let suppressed, fresh = Mrdb_lint.Baseline.partition baseline diags in
  let stale = Mrdb_lint.Baseline.stale baseline diags in
  (match opts.format with
  | `Text ->
      write_report opts
        (String.concat ""
           (List.map
              (fun d -> Mrdb_lint.Diag.to_string d ^ "\n")
              fresh))
  | `Json -> write_report opts (Mrdb_lint.Sarif.render fresh));
  (* The human summary goes to stderr so the report stream stays clean
     for redirection/artifact upload. *)
  if suppressed <> [] then
    Printf.eprintf "mrdb_lint: %d baselined violation%s suppressed\n"
      (List.length suppressed)
      (if List.length suppressed = 1 then "" else "s");
  List.iter
    (fun entry ->
      Printf.eprintf "mrdb_lint: stale baseline entry: %s\n" entry)
    stale;
  let stale_fails = opts.check_baseline && stale <> [] in
  match (fresh, stale_fails) with
  | [], false ->
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
      if fresh <> [] then
        Printf.eprintf "mrdb_lint: %d new violation%s\n" (List.length fresh)
          (if List.length fresh = 1 then "" else "s");
      if stale_fails then
        Printf.eprintf
          "mrdb_lint: baseline has %d stale entr%s; delete them\n"
          (List.length stale)
          (if List.length stale = 1 then "y" else "ies");
      exit 1
