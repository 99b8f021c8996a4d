(* Golden tests for mrdb_lint: a fixture corpus seeds violations of every
   rule — R4 unsealed, R6 bare printing, R8 determinism, R9 ownership
   (cursor writes, the dispatch table, raw stable-memory writes, device
   fault injection), R10 structured raises (one line per banned partial
   spelling), R11 stale allowlist.  Each rule must fire at the expected
   file:line — and nowhere else: the negative cases (unreachable clock
   read, sorted Hashtbl fold, owner-routed write, registered exception,
   the sanctioned stable-memory install and fault injection) are asserted
   by their absence from the golden list. *)

open Mrdb_lint

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let fixture_root = "lint_fixtures"

(* The real tree's R9 resource whose name starts with [prefix]. *)
let default_resource prefix =
  match
    List.find_opt
      (fun r -> String.starts_with ~prefix r.Rules.res_name)
      Rules.default_config.Rules.r9_resources
  with
  | Some r -> r
  | None -> Alcotest.failf "no R9 resource %S in the default config" prefix

(* The fixture tree's configuration.  The real tree's
   Rules.default_config references files that exist only under lib/, so
   the fixtures carry their own: one entry point (Driver.commit_like),
   owned resources (the [cursor] boxes, owned by core/keeper.ml, a copy
   of the replay dispatch table, and two real-tree resources with fixture
   owners), one sanctioned
   exception (Boom.Safely), one justified R8 allow row (Clockuser.tally)
   — and one deliberately stale allowlist entry that R11 must flag. *)
let fixture_config =
  {
    Rules.r8_entry_points =
      [ { Rules.e_rel = "core/driver.ml"; e_binding = "commit_like" } ];
    r8_allow =
      [
        {
          Rules.a_rel = "storage/clockuser.ml";
          a_binding = "tally";
          a_ident = "Hashtbl.fold";
          a_why = "result sorted before use";
        };
        {
          Rules.a_rel = "storage/ghost.ml";
          a_binding = "gone";
          a_ident = "Sys.time";
          a_why = "deliberately stale: no such file";
        };
      ];
    r8_random_ok = [];
    r9_resources =
      [
        {
          Rules.res_name = "cursor boxes";
          res_write_idents = [];
          res_fields = [ "cursor" ];
          res_owners = [ "core/keeper.ml" ];
        };
        (* Mirrors the real tree's "replay dispatch table": write idents
           instead of fields, a directory owner plus one sanctioned file
           (recovery/replayer.ml plays restorer.ml's role). *)
        {
          Rules.res_name = "replay dispatch table";
          res_write_idents =
            [ ("Applier", "apply_cmd"); ("Applier", "register") ];
          res_fields = [];
          res_owners = [ "logical/"; "recovery/replayer.ml" ];
        };
        (* The real tree's write idents; of their owners, the fixture
           tree has only the standby install path and lib/fault. *)
        { (default_resource "stable memory") with
          Rules.res_owners = [ "replica/apply.ml" ] };
        { (default_resource "device fault injection") with
          Rules.res_owners = [ "fault/" ] };
      ];
    r10_exceptions = [ { Rules.x_rel = "storage/boom.ml"; x_name = "Safely" } ];
    r10_stdlib_exceptions = [ "Not_found"; "Exit" ];
    r10_raise_ok = [];
    r10_wildcard_allow = [];
  }

let lint_fixtures () =
  Engine.lint ~config:fixture_config ~lib_dir:fixture_root ()

(* The golden corpus: every diagnostic the fixture tree must produce, in
   the engine's sorted order.  Notably absent: Clockuser.offline (clock
   read unreachable from the entry point), Clockuser.tally (unordered
   fold, covered by its allow row), Quiet.tidy (cursor write reached only
   through the owner), Quiet.guard (raise of a registered exception),
   Apply.install (stable-memory write by its owner), Injector.break_disk
   (fault injection by its owner). *)
let expected =
  [
    ("R10", "lint_fixtures/core/driver.ml", 10);
    ("R9", "lint_fixtures/core/inject.ml", 4);
    ("R9", "lint_fixtures/core/rogue_replay.ml", 5);
    ("R9", "lint_fixtures/core/wild_write.ml", 4);
    ("R10", "lint_fixtures/recovery/sloppy.ml", 3);
    ("R9", "lint_fixtures/replica/rogue_apply.ml", 5);
    ("R9", "lint_fixtures/replica/rogue_apply.ml", 7);
    ("R8", "lint_fixtures/storage/clockuser.ml", 7);
    ("R11", "lint_fixtures/storage/ghost.ml", 1);
    ("R9", "lint_fixtures/storage/holder.ml", 10);
    ("R6", "lint_fixtures/storage/noisy.ml", 3);
    (* One per banned partial spelling: failwith, invalid_arg,
       assert false, Option.get, List.hd, Stdlib.failwith. *)
    ("R10", "lint_fixtures/storage/partial.ml", 3);
    ("R10", "lint_fixtures/storage/partial.ml", 4);
    ("R10", "lint_fixtures/storage/partial.ml", 5);
    ("R10", "lint_fixtures/storage/partial.ml", 6);
    ("R10", "lint_fixtures/storage/partial.ml", 7);
    ("R10", "lint_fixtures/storage/partial.ml", 8);
    ("R4", "lint_fixtures/storage/unsealed.ml", 1);
  ]

let triple_t = Alcotest.(list (triple string string int))

let test_golden_corpus () =
  let got =
    List.map
      (fun d -> (Diag.rule_name d.Diag.rule, d.Diag.file, d.Diag.line))
      (lint_fixtures ())
  in
  check triple_t "each rule fires exactly at its seeded violation" expected got

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

(* The wild-write clause (the retired R1) is R9's stable-memory resource. *)
let test_r1_cites_wild_write_clause () =
  let r1 =
    List.filter
      (fun d ->
        d.Diag.rule = Diag.R9 && contains ~needle:"stable memory" d.Diag.msg)
      (lint_fixtures ())
  in
  (* Two seeded wild writes: the main-CPU one (core/wild_write.ml) and the
     replication one outside the sanctioned install path
     (replica/rogue_apply.ml).  replica/apply.ml performs the same
     mutation and must stay silent. *)
  check int_t "two stable-memory R9s" 2 (List.length r1);
  List.iter
    (fun d ->
      let rendered = Diag.to_string d in
      check bool_t "mentions Stable_mem mutator" true
        (contains ~needle:"Stable_mem.put_u32" rendered);
      check bool_t "cites paper 2.2" true (contains ~needle:"2.2" rendered))
    r1

(* The interprocedural diagnostics carry the call chain that convicts
   them — the whole point of phase 2 is that the chain crosses modules. *)
let test_r8_message_carries_cross_module_chain () =
  let r8 = List.filter (fun d -> d.Diag.rule = Diag.R8) (lint_fixtures ()) in
  check int_t "one R8" 1 (List.length r8);
  let d = List.hd r8 in
  check bool_t "names the source" true (contains ~needle:"Sys.time" d.Diag.msg);
  check bool_t "chain starts at the entry point" true
    (contains ~needle:"Driver:commit_like -> Clockuser:stamp" d.Diag.msg)

let test_r9_message_carries_escape_chain () =
  let r9 = List.filter (fun d -> d.Diag.rule = Diag.R9) (lint_fixtures ()) in
  (* Two here; the other four are the stable-memory and fault-injection
     writes, checked by their own tests. *)
  check int_t "six R9s" 6 (List.length r9);
  (match
     List.find_opt (fun d -> contains ~needle:"holder.ml" d.Diag.file) r9
   with
  | None -> Alcotest.fail "no R9 at the cursor write"
  | Some d ->
      check bool_t "escape chain crosses modules" true
        (contains ~needle:"Driver:kick -> Holder:bump" d.Diag.msg));
  match
    List.find_opt (fun d -> contains ~needle:"rogue_replay.ml" d.Diag.file) r9
  with
  | None -> Alcotest.fail "no R9 at the rogue command apply"
  | Some d ->
      check bool_t "names the dispatch-table resource" true
        (contains ~needle:"replay dispatch table" d.Diag.msg);
      check bool_t "names the write ident" true
        (contains ~needle:"Applier.apply_cmd" d.Diag.msg)

let test_r10_resolves_exception_cross_module () =
  let r10 =
    List.filter
      (fun d ->
        d.Diag.rule = Diag.R10 && contains ~needle:"driver.ml" d.Diag.file)
      (lint_fixtures ())
  in
  check int_t "one R10 at the raise site" 1 (List.length r10);
  check bool_t "names the declaring module" true
    (contains ~needle:"storage/boom.ml" (List.hd r10).Diag.msg)

(* --- call-graph builder goldens ------------------------------------------- *)

let graph () =
  let index = Engine.index_tree ~lib_dir:fixture_root in
  (index, Callgraph.build index)

let test_callgraph_reachability_golden () =
  let _, g = graph () in
  let root = Callgraph.node ~rel:"util/chain_a.ml" ~binding:"start" in
  let parents = Callgraph.reachable g ~roots:[ root ] in
  let got =
    Hashtbl.fold (fun n _ acc -> Callgraph.node_label n :: acc) parents []
    |> List.sort String.compare
  in
  (* The ping/pong cycle terminates; the shadowed [size] resolves to
     chain_b's copy, so Chain_a:size is NOT reachable. *)
  check
    Alcotest.(list string)
    "reachable set from Chain_a:start"
    [ "Chain_a:ping"; "Chain_a:start"; "Chain_b:pong"; "Chain_b:size" ]
    got

let test_shadowed_name_resolves_to_qualified_module () =
  let index, g = graph () in
  let m =
    match Index.find_module index ~rel:"util/chain_a.ml" with
    | Some m -> m
    | None -> Alcotest.fail "chain_a.ml not indexed"
  in
  match Callgraph.resolve_ref g m [ "Chain_b"; "size" ] with
  | Some n ->
      check Alcotest.string "resolves to chain_b, not the local size"
        "util/chain_b.ml" n.Callgraph.n_rel
  | None -> Alcotest.fail "Chain_b.size did not resolve"

let test_chain_renders_root_to_target () =
  let _, g = graph () in
  let root = Callgraph.node ~rel:"util/chain_a.ml" ~binding:"start" in
  let parents = Callgraph.reachable g ~roots:[ root ] in
  let target = Callgraph.node ~rel:"util/chain_a.ml" ~binding:"ping" in
  let labels = List.map Callgraph.node_label (Callgraph.chain parents target) in
  check
    Alcotest.(list string)
    "BFS parent chain" [ "Chain_a:start"; "Chain_b:pong"; "Chain_a:ping" ]
    labels

(* --- explain ------------------------------------------------------------- *)

let test_explain_lookup () =
  check bool_t "R8 resolves" true (Diag.rule_of_name "R8" = Some Diag.R8);
  check bool_t "R11 resolves" true (Diag.rule_of_name "R11" = Some Diag.R11);
  check bool_t "unknown rejected" true (Diag.rule_of_name "R99" = None);
  check bool_t "retired R2 rejected" true (Diag.rule_of_name "R2" = None);
  check bool_t "retired R7 rejected" true (Diag.rule_of_name "R7" = None);
  check bool_t "retired R1 rejected" true (Diag.rule_of_name "R1" = None);
  check bool_t "retired R3 rejected" true (Diag.rule_of_name "R3" = None);
  check bool_t "retired R5 rejected" true (Diag.rule_of_name "R5" = None);
  (* The rule id sits in its own stable column, so diagnostics grep by
     ': R8 ['. *)
  let d = List.hd (lint_fixtures ()) in
  check bool_t "rule id in stable column" true
    (contains
       ~needle:(Printf.sprintf ": %s [" (Diag.rule_name d.Diag.rule))
       (Diag.to_string d))

(* --- real-tree configuration sanity ---------------------------------------- *)

let test_default_config_shape () =
  let c = Rules.default_config in
  check bool_t "commit is an entry point" true
    (List.exists
       (fun (e : Rules.entry_point) ->
         e.Rules.e_rel = "core/db.ml" && e.Rules.e_binding = "commit")
       c.Rules.r8_entry_points);
  check bool_t "recovery restart is an entry point" true
    (List.exists
       (fun (e : Rules.entry_point) -> e.Rules.e_rel = "recovery/recovery_mgr.ml")
       c.Rules.r8_entry_points);
  (* Db.recover decodes the catalog and finishes the restart after
     Recovery_mgr.restart returns; without it as a root, a clock read in
     Catalog.decode_from_segment passed R8. *)
  check bool_t "Db.recover is an entry point" true
    (List.exists
       (fun (e : Rules.entry_point) ->
         e.Rules.e_rel = "core/db.ml" && e.Rules.e_binding = "recover")
       c.Rules.r8_entry_points);
  check bool_t "every allow entry is justified" true
    (List.for_all
       (fun (a : Rules.allow) -> String.length a.Rules.a_why > 0)
       (c.Rules.r8_allow @ c.Rules.r10_wildcard_allow))

let test_clean_file_passes () =
  let diags =
    List.filter
      (fun d -> contains ~needle:"storage/clean.ml" d.Diag.file)
      (lint_fixtures ())
  in
  check int_t "clean fixture produces no diagnostics" 0 (List.length diags)

(* A configuration with nothing registered, so R11 has nothing to find
   stale in a tree of one file. *)
let empty_config =
  {
    Rules.r8_entry_points = [];
    r8_allow = [];
    r8_random_ok = [];
    r9_resources = [];
    r10_exceptions = [];
    r10_stdlib_exceptions = [];
    r10_raise_ok = [];
    r10_wildcard_allow = [];
  }

let test_unparseable_reported_not_fatal () =
  let dir = Filename.temp_dir "lintfix" "" in
  let write name text =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
        output_string oc text)
  in
  write "bad.ml" "let let let = in in in\n";
  write "bad.mli" "";
  let diags = Engine.lint ~config:empty_config ~lib_dir:dir () in
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) [ "bad.ml"; "bad.mli" ];
  Sys.rmdir dir;
  check int_t "one parse diagnostic" 1 (List.length diags);
  check bool_t "tagged as parse error" true
    (List.for_all (fun d -> d.Diag.rule = Diag.Parse_error) diags)

(* Layering is dune's: with implicit transitive deps off, a library can
   name only the libraries its own dune file lists, and an upward edge
   such as recovery -> core is a dependency cycle.  What the lint still
   owns is the directory -> library table the call graph resolves
   [Mrdb_*] heads through; a library missing from it would leave R8 and
   R9 blind to every call into that library. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let dune_library_name path =
  let words =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun line -> not (String.starts_with ~prefix:";" line))
    |> String.concat " "
    |> String.map (function '(' | ')' | '\t' -> ' ' | c -> c)
    |> String.split_on_char ' '
  in
  let rec after_name = function
    | "name" :: name :: _ -> Some name
    | _ :: rest -> after_name rest
    | [] -> None
  in
  after_name (List.filter (( <> ) "") words)

let test_library_table_matches_dune () =
  let lib_root = Filename.concat Filename.parent_dir_name "lib" in
  let from_dune =
    Sys.readdir lib_root |> Array.to_list
    |> List.filter_map (fun dir ->
           let dune = Filename.concat (Filename.concat lib_root dir) "dune" in
           if Sys.file_exists dune then
             Option.map (fun name -> (dir, name)) (dune_library_name dune)
           else None)
    |> List.sort compare
  in
  check
    Alcotest.(list (pair string string))
    "Rules.libraries mirrors lib/*/dune" from_dune
    (List.sort compare Rules.libraries);
  check bool_t "dune-project turns implicit transitive deps off" true
    (contains ~needle:"(implicit_transitive_deps false)"
       (read_file (Filename.concat Filename.parent_dir_name "dune-project")))

let test_print_discipline_allowlist () =
  check bool_t "obs renderers may print" true (Rules.print_allowed "obs/export.ml");
  check bool_t "texttab may print" true (Rules.print_allowed "util/texttab.ml");
  check bool_t "core must not print" false (Rules.print_allowed "core/db.ml");
  check bool_t "wal must not print" false (Rules.print_allowed "wal/slb.ml");
  check bool_t "Printf.printf is banned" true
    (Rules.print_ident [ "Printf"; "printf" ] = Some "Printf.printf");
  check bool_t "formatter-taking printers stay legal" true
    (Rules.print_ident [ "Format"; "pp_print_string" ] = None)

(* SLB-region ownership is an R9 resource: appends are confined to the
   WAL and the per-executor redo sink, checked on the call graph. *)
let test_slb_ownership_allowlist () =
  match
    List.find_opt
      (fun r -> r.Rules.res_name = "striped SLB regions")
      Rules.default_config.Rules.r9_resources
  with
  | None -> Alcotest.fail "striped SLB regions not registered for R9"
  | Some r ->
      check bool_t "Region.append is a registered write" true
        (Rules.write_ident_call r [ "Mrdb_wal"; "Slb"; "Region"; "append" ]
        <> None);
      check bool_t "the WAL may append to its own regions" true
        (Rules.owner_matches r.Rules.res_owners "wal/slb.ml");
      check bool_t "the per-executor redo sink may append" true
        (Rules.owner_matches r.Rules.res_owners "core/db_system.ml");
      check bool_t "the facade must route through the sink" false
        (Rules.owner_matches r.Rules.res_owners "core/db.ml");
      check bool_t "recovery drains, never appends" false
        (Rules.owner_matches r.Rules.res_owners "recovery/log_sorter.ml")

(* Fault injection (the retired R5) is an R9 resource: faults are
   simulated inputs, so only lib/fault and the defining devices arm them. *)
let test_fault_containment_allowlist () =
  let r = default_resource "device fault injection" in
  let owns = Rules.owner_matches r.Rules.res_owners in
  check bool_t "Disk.fail is a registered write" true
    (Rules.write_ident_call r [ "Mrdb_hw"; "Disk"; "fail" ] <> None);
  check bool_t "the health query is not" true
    (Rules.write_ident_call r [ "Mrdb_hw"; "Disk"; "failed" ] = None);
  check bool_t "lib/fault may inject" true (owns "fault/injector.ml");
  check bool_t "duplex fails its member disk" true (owns "hw/duplex.ml");
  check bool_t "the ship channel degrades itself" true
    (owns "hw/ship_channel.ml");
  check bool_t "core must not inject" false (owns "core/db.ml");
  check bool_t "wal must not inject" false (owns "wal/slt.ml");
  check bool_t "replica must not degrade its own link" false
    (owns "replica/replica.ml")

(* PR 9's confinement: shipped durable artifacts land on the standby only
   through replica/apply.ml — as raw stable-memory image and as
   clock-bypassing page installs, both R9 resources. *)
let test_replica_confinement_allowlists () =
  let mem = default_resource "stable memory" in
  let writes_mem = Rules.owner_matches mem.Rules.res_owners in
  check bool_t "Stable_mem.put_u32 is a registered write" true
    (Rules.write_ident_call mem [ "Mrdb_hw"; "Stable_mem"; "put_u32" ] <> None);
  check bool_t "the batch-install path may write stable memory" true
    (writes_mem "replica/apply.ml");
  check bool_t "the rest of the replica must not" false
    (writes_mem "replica/replica.ml");
  check bool_t "the ship codec must not" false (writes_mem "replica/ship_log.ml");
  let r = default_resource "standby durable page images" in
  check bool_t "install_page is a registered write" true
    (Rules.write_ident_call r [ "Mrdb_wal"; "Log_disk"; "install_page" ] <> None);
  check bool_t "the install path owns it" true
    (Rules.owner_matches r.Rules.res_owners "replica/apply.ml");
  check bool_t "the devices own their own installs" true
    (Rules.owner_matches r.Rules.res_owners "hw/disk.ml");
  check bool_t "the scenario driver does not" false
    (Rules.owner_matches r.Rules.res_owners "replica/scenario.ml")

(* Logical command application is an integrity boundary: only the codec
   subsystem and the shared REDO kernel may run the dispatch table. *)
let test_dispatch_table_confinement () =
  match
    List.find_opt
      (fun r -> r.Rules.res_name = "replay dispatch table")
      Rules.default_config.Rules.r9_resources
  with
  | None -> Alcotest.fail "replay dispatch table not registered for R9"
  | Some r ->
      check bool_t "apply_cmd is a registered write" true
        (Rules.write_ident_call r [ "Mrdb_logical"; "Replay"; "apply_cmd" ]
        <> None);
      check bool_t "handler registration is a registered write" true
        (Rules.write_ident_call r [ "Dispatch"; "register" ] <> None);
      check bool_t "the codec subsystem owns it" true
        (Rules.owner_matches r.Rules.res_owners "logical/replay.ml");
      check bool_t "the shared REDO kernel owns it" true
        (Rules.owner_matches r.Rules.res_owners "recovery/restorer.ml");
      check bool_t "the commit path does not" false
        (Rules.owner_matches r.Rules.res_owners "core/db_system.ml")

let test_nondet_classifier () =
  check bool_t "Sys.time is a clock" true
    (Rules.nondet_ident [ "Sys"; "time" ] = Some (Rules.Clock, "Sys.time"));
  check bool_t "Stdlib-qualified spelling matches" true
    (Rules.nondet_ident [ "Stdlib"; "Hashtbl"; "fold" ]
    = Some (Rules.Unordered_iter, "Hashtbl.fold"));
  check bool_t "Hashtbl.replace is not flagged" true
    (Rules.nondet_ident [ "Hashtbl"; "replace" ] = None);
  check bool_t "our seeded rng is not Random" true
    (Rules.nondet_ident [ "Mrdb_util"; "Rng"; "int" ] = None)

let () =
  Alcotest.run "lint"
    [
      ( "mrdb_lint",
        [
          Alcotest.test_case "golden fixture corpus" `Quick test_golden_corpus;
          Alcotest.test_case "R1 cites the wild-write clause" `Quick
            test_r1_cites_wild_write_clause;
          Alcotest.test_case "R8 message carries the cross-module chain" `Quick
            test_r8_message_carries_cross_module_chain;
          Alcotest.test_case "R9 message carries the escape chain" `Quick
            test_r9_message_carries_escape_chain;
          Alcotest.test_case "R10 resolves the exception cross-module" `Quick
            test_r10_resolves_exception_cross_module;
          Alcotest.test_case "call-graph reachability golden" `Quick
            test_callgraph_reachability_golden;
          Alcotest.test_case "shadowed name resolves to qualified module" `Quick
            test_shadowed_name_resolves_to_qualified_module;
          Alcotest.test_case "BFS chain renders root to target" `Quick
            test_chain_renders_root_to_target;
          Alcotest.test_case "--explain rule lookup" `Quick test_explain_lookup;
          Alcotest.test_case "default config shape" `Quick
            test_default_config_shape;
          Alcotest.test_case "clean file passes" `Quick test_clean_file_passes;
          Alcotest.test_case "unparseable file is a diagnostic" `Quick
            test_unparseable_reported_not_fatal;
          Alcotest.test_case "library table matches dune" `Quick
            test_library_table_matches_dune;
          Alcotest.test_case "fault containment allowlist" `Quick
            test_fault_containment_allowlist;
          Alcotest.test_case "replay dispatch-table confinement" `Quick
            test_dispatch_table_confinement;
          Alcotest.test_case "replica confinement allowlists" `Quick
            test_replica_confinement_allowlists;
          Alcotest.test_case "SLB ownership allowlist" `Quick
            test_slb_ownership_allowlist;
          Alcotest.test_case "print discipline allowlist" `Quick
            test_print_discipline_allowlist;
          Alcotest.test_case "nondeterminism classifier" `Quick
            test_nondet_classifier;
        ] );
    ]
