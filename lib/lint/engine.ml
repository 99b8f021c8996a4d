(* Parse every .ml under a lib/ tree with compiler-libs and check the
   declared rule set (see Rules).  The engine is purely syntactic: it never
   typechecks, so it resolves only what the surface syntax shows — the head
   module of each [Longident] reference.  That is exactly enough for the
   architecture rules, because crossing a wrapped-library boundary always
   names the library ([Mrdb_wal.Slt.accept_raw], [open Mrdb_storage]):
   there is no way to reach another library without the [Mrdb_*] head
   appearing.  Each file is walked once, by Index; every rule but R4 reads
   that index. *)

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

let parse_impl path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      Parse.implementation lexbuf)

(* Parse and index one file; a file that does not parse is a
   [Parse_error] diagnostic, not a crash. *)
let index_ml ~lib_dir ~rel =
  let file = Filename.concat lib_dir rel in
  match parse_impl file with
  | exception exn ->
      let line, col, detail =
        match exn with
        | Syntaxerr.Error e ->
            let loc = Syntaxerr.location_of_error e in
            let line, col = pos_of loc in
            (line, col, "syntax error")
        | Lexer.Error (_, loc) ->
            let line, col = pos_of loc in
            (line, col, "lexer error")
        | _ -> (1, 0, Printexc.to_string exn)
      in
      Error (Diag.make ~rule:Diag.Parse_error ~file ~line ~col detail)
  | str ->
      let dir =
        match String.index_opt rel '/' with
        | Some i -> String.sub rel 0 i
        | None -> ""
      in
      Ok (Index.of_structure ~rel ~lib:(Rules.library_of_dir dir) str)

(* -- tree walk -------------------------------------------------------------- *)

let list_dir path = List.sort String.compare (Array.to_list (Sys.readdir path))

let rec collect ~lib_dir rel acc =
  let abs = if rel = "" then lib_dir else Filename.concat lib_dir rel in
  if Sys.is_directory abs then
    List.fold_left
      (fun acc name ->
        collect ~lib_dir (if rel = "" then name else rel ^ "/" ^ name) acc)
      acc (list_dir abs)
  else rel :: acc

let parse_files ~lib_dir files =
  List.filter_map
    (fun rel ->
      if Filename.check_suffix rel ".ml" then Some (index_ml ~lib_dir ~rel)
      else None)
    files

let index_tree ~lib_dir =
  collect ~lib_dir "" []
  |> List.sort String.compare
  |> parse_files ~lib_dir
  |> List.filter_map Result.to_option

(* -- rules over the index --------------------------------------------------- *)

let file_of ~lib_dir rel = Filename.concat lib_dir rel

(* R6: library code renders, it does not print — outside the renderers,
   no binding may reference a bare stdout printer. *)
let check_r6 ~lib_dir index =
  List.concat_map
    (fun (m : Index.modinfo) ->
      if Rules.print_allowed m.Index.m_rel then []
      else
        List.concat_map
          (fun (b : Index.binding) ->
            List.filter_map
              (fun (path, loc) ->
                Rules.print_ident path
                |> Option.map (fun name ->
                       let line, col = pos_of loc in
                       Diag.make ~rule:Diag.R6
                         ~file:(file_of ~lib_dir m.Index.m_rel)
                         ~line ~col
                         (Printf.sprintf
                            "bare %s; render through Mrdb_obs.Export or \
                             Mrdb_util.Texttab instead of printing from \
                             library code" name)))
              b.Index.b_refs)
          m.Index.m_bindings)
    index

let render_chain nodes =
  nodes |> List.map Callgraph.node_label |> String.concat " -> "

(* R8: nothing reachable from a deterministic entry point may consult a
   nondeterminism source.  The reachable set comes from a forward BFS over
   the call graph; the BFS parent map renders the offending call chain so
   the diagnostic explains *why* the function is on the commit path. *)
let check_r8 ~lib_dir (config : Rules.config) index graph =
  let roots =
    List.map
      (fun (e : Rules.entry_point) ->
        Callgraph.node ~rel:e.Rules.e_rel ~binding:e.Rules.e_binding)
      config.Rules.r8_entry_points
  in
  let parents = Callgraph.reachable graph ~roots in
  (* Iterate the reachable set in a sorted order so diagnostics are stable
     regardless of hash-table layout. *)
  let nodes =
    Hashtbl.fold (fun n _ acc -> n :: acc) parents []
    |> List.sort (fun (a : Callgraph.node) b ->
           compare
             (a.Callgraph.n_rel, a.Callgraph.n_binding)
             (b.Callgraph.n_rel, b.Callgraph.n_binding))
  in
  let diags = ref [] in
  List.iter
    (fun (n : Callgraph.node) ->
      match Index.find_module index ~rel:n.Callgraph.n_rel with
      | None -> ()
      | Some m -> (
          match Index.find_binding m n.Callgraph.n_binding with
          | None -> ()
          | Some b ->
              List.iter
                (fun (path, loc) ->
                  match Rules.nondet_ident path with
                  | None -> ()
                  | Some (kind, display) ->
                      let exempt =
                        (match kind with
                        | Rules.Random_src ->
                            List.mem n.Callgraph.n_rel config.Rules.r8_random_ok
                        | Rules.Unordered_iter | Rules.Clock | Rules.Poly_hash ->
                            false)
                        || List.exists
                             (fun (a : Rules.allow) ->
                               a.Rules.a_rel = n.Callgraph.n_rel
                               && a.Rules.a_binding = n.Callgraph.n_binding
                               && a.Rules.a_ident = display)
                             config.Rules.r8_allow
                      in
                      if not exempt then begin
                        let line, col = pos_of loc in
                        diags :=
                          Diag.make ~rule:Diag.R8
                            ~file:(file_of ~lib_dir n.Callgraph.n_rel)
                            ~line ~col
                            (Printf.sprintf
                               "%s on the deterministic path %s; iterate in \
                                a defined order, derive from the simulated \
                                clock, or add a justified Rules allowlist entry"
                               display
                               (render_chain (Callgraph.chain parents n)))
                          :: !diags
                      end)
                b.Index.b_refs))
    nodes;
  !diags

(* R9: writes to registered shared state must resolve to the owning
   module via the call graph.  A write site inside an owner file is the
   sink API itself; a write site elsewhere is legal only when every call
   chain reaching it passes through the owner. *)
let check_r9 ~lib_dir (config : Rules.config) index graph =
  let diags = ref [] in
  List.iter
    (fun (m : Index.modinfo) ->
      List.iter
        (fun (b : Index.binding) ->
          let node =
            Callgraph.node ~rel:m.Index.m_rel ~binding:b.Index.b_name
          in
          let check (res : Rules.resource) loc what =
            if not (Rules.owner_matches res.Rules.res_owners m.Index.m_rel)
            then
              match
                Callgraph.escape_chain graph
                  ~owned:(Rules.owner_matches res.Rules.res_owners)
                  node
              with
              | None -> ()
              | Some chain ->
                  let line, col = pos_of loc in
                  diags :=
                    Diag.make ~rule:Diag.R9
                      ~file:(file_of ~lib_dir m.Index.m_rel)
                      ~line ~col
                      (Printf.sprintf
                         "write to %s (%s) outside owner [%s], reachable \
                          without passing through it (%s); route the write \
                          through the owning module"
                         res.Rules.res_name what
                         (String.concat " " res.Rules.res_owners)
                         (render_chain chain))
                    :: !diags
          in
          List.iter
            (fun (path, loc) ->
              match List.rev path with
              | field :: _ ->
                  List.iter
                    (fun (res : Rules.resource) ->
                      if List.mem field res.Rules.res_fields then
                        check res loc (field ^ " <-"))
                    config.Rules.r9_resources
              | [] -> ())
            b.Index.b_setfields;
          List.iter
            (fun (path, loc) ->
              List.iter
                (fun (res : Rules.resource) ->
                  match Rules.write_ident_call res path with
                  | Some name -> check res loc name
                  | None -> ())
                config.Rules.r9_resources)
            b.Index.b_refs)
        m.Index.m_bindings)
    index;
  !diags

(* R10: every [raise] constructs a sanctioned structured exception (or
   re-raises), and a bare partial function counts as a raise; wildcard
   handlers need a justified allowlist entry. *)
let check_r10 ~lib_dir (config : Rules.config) index graph =
  let diags = ref [] in
  let add (m : Index.modinfo) loc msg =
    let line, col = pos_of loc in
    diags :=
      Diag.make ~rule:Diag.R10 ~file:(file_of ~lib_dir m.Index.m_rel) ~line ~col
        msg
      :: !diags
  in
  let registered decl_rel name =
    List.exists
      (fun (x : Rules.exn_decl) ->
        x.Rules.x_rel = decl_rel && x.Rules.x_name = name)
      config.Rules.r10_exceptions
  in
  List.iter
    (fun (m : Index.modinfo) ->
      let raise_exempt = List.mem m.Index.m_rel config.Rules.r10_raise_ok in
      List.iter
        (fun (b : Index.binding) ->
          if not raise_exempt then
            List.iter
              (fun (r : Index.raise_site) ->
                match r.Index.r_arg with
                | Index.Reraise -> ()
                | Index.Partial name ->
                    add m r.Index.r_loc
                      (Printf.sprintf
                         "bare %s raises an unregistered stdlib exception; \
                          use Mrdb_util.Fatal.invariant/misuse or a declared \
                          structured exception" name)
                | Index.Opaque ->
                    add m r.Index.r_loc
                      "raise of a computed exception; construct a declared \
                       structured exception so recovery can classify the \
                       failure"
                | Index.Constructs path -> (
                    let last = List.nth path (List.length path - 1) in
                    match Callgraph.resolve_exn graph m path with
                    | Some (decl_rel, name) ->
                        if not (registered decl_rel name) then
                          add m r.Index.r_loc
                            (Printf.sprintf
                               "raise of %s (declared in %s) which is not in \
                                the sanctioned exception registry; register \
                                it in Rules with its recovery semantics"
                               name decl_rel)
                    | None ->
                        if
                          not (List.mem last config.Rules.r10_stdlib_exceptions)
                        then
                          add m r.Index.r_loc
                            (Printf.sprintf
                               "raise of unregistered exception %s; declare \
                                a structured exception and register it in \
                                Rules" last)))
              b.Index.b_raises;
          List.iter
            (fun loc ->
              let allowed =
                List.exists
                  (fun (a : Rules.allow) ->
                    a.Rules.a_rel = m.Index.m_rel
                    && a.Rules.a_binding = b.Index.b_name)
                  config.Rules.r10_wildcard_allow
              in
              if not allowed then
                add m loc
                  "try ... with _ -> swallows every exception (including \
                   Crashed and Aborted); match the specific exceptions or \
                   add a justified Rules allowlist entry")
            b.Index.b_wildcards)
        m.Index.m_bindings)
    index;
  !diags

(* R11: the configuration itself must stay live — every entry point,
   allowlist entry, owner, and registered exception must still name a real
   file/binding/identifier.  Stale suppressions are bugs. *)
let check_r11 ~lib_dir (config : Rules.config) index =
  let diags = ref [] in
  let stale rel msg =
    diags :=
      Diag.make ~rule:Diag.R11 ~file:(file_of ~lib_dir rel) ~line:1 ~col:0 msg
      :: !diags
  in
  let module_of rel = Index.find_module index ~rel in
  List.iter
    (fun (e : Rules.entry_point) ->
      let live =
        match module_of e.Rules.e_rel with
        | Some m -> Index.find_binding m e.Rules.e_binding <> None
        | None -> false
      in
      if not live then
        stale e.Rules.e_rel
          (Printf.sprintf
             "stale R8 entry point %s:%s — no such binding; update the Rules \
              configuration" e.Rules.e_rel e.Rules.e_binding))
    config.Rules.r8_entry_points;
  List.iter
    (fun (a : Rules.allow) ->
      match module_of a.Rules.a_rel with
      | None ->
          stale a.Rules.a_rel
            (Printf.sprintf "stale R8 allowlist entry: no file %s"
               a.Rules.a_rel)
      | Some m -> (
          match Index.find_binding m a.Rules.a_binding with
          | None ->
              stale a.Rules.a_rel
                (Printf.sprintf "stale R8 allowlist entry: no binding %s in %s"
                   a.Rules.a_binding a.Rules.a_rel)
          | Some b ->
              let refs_ident =
                List.exists
                  (fun (path, _) ->
                    match Rules.nondet_ident path with
                    | Some (_, d) -> d = a.Rules.a_ident
                    | None -> false)
                  b.Index.b_refs
              in
              if not refs_ident then
                stale a.Rules.a_rel
                  (Printf.sprintf
                     "stale R8 allowlist entry: %s:%s no longer references %s"
                     a.Rules.a_rel a.Rules.a_binding a.Rules.a_ident)))
    config.Rules.r8_allow;
  List.iter
    (fun rel ->
      if module_of rel = None then
        stale rel
          (Printf.sprintf "stale R8 Random allowance: no file %s" rel))
    config.Rules.r8_random_ok;
  List.iter
    (fun (res : Rules.resource) ->
      List.iter
        (fun owner ->
          let matched =
            List.exists
              (fun (m : Index.modinfo) ->
                Rules.owner_matches [ owner ] m.Index.m_rel)
              index
          in
          if not matched then
            stale owner
              (Printf.sprintf
                 "stale R9 owner %s for resource %S: no indexed file matches"
                 owner res.Rules.res_name))
        res.Rules.res_owners;
      List.iter
        (fun field ->
          let declared =
            List.exists
              (fun (m : Index.modinfo) ->
                List.mem field m.Index.m_mutable_fields)
              index
          in
          if not declared then
            let anchor =
              match res.Rules.res_owners with o :: _ -> o | [] -> "."
            in
            stale anchor
              (Printf.sprintf
                 "stale R9 field %s for resource %S: no module declares a \
                  mutable field of that name" field res.Rules.res_name))
        res.Rules.res_fields)
    config.Rules.r9_resources;
  List.iter
    (fun (x : Rules.exn_decl) ->
      let live =
        match module_of x.Rules.x_rel with
        | Some m -> Index.declares_exception m x.Rules.x_name
        | None -> false
      in
      if not live then
        stale x.Rules.x_rel
          (Printf.sprintf
             "stale R10 registry entry: %s does not declare exception %s"
             x.Rules.x_rel x.Rules.x_name))
    config.Rules.r10_exceptions;
  List.iter
    (fun rel ->
      if module_of rel = None then
        stale rel
          (Printf.sprintf "stale R10 raise allowance: no file %s" rel))
    config.Rules.r10_raise_ok;
  List.iter
    (fun (a : Rules.allow) ->
      match module_of a.Rules.a_rel with
      | None ->
          stale a.Rules.a_rel
            (Printf.sprintf "stale R10 wildcard allowance: no file %s"
               a.Rules.a_rel)
      | Some m -> (
          match Index.find_binding m a.Rules.a_binding with
          | None ->
              stale a.Rules.a_rel
                (Printf.sprintf
                   "stale R10 wildcard allowance: no binding %s in %s"
                   a.Rules.a_binding a.Rules.a_rel)
          | Some b ->
              if b.Index.b_wildcards = [] then
                stale a.Rules.a_rel
                  (Printf.sprintf
                     "stale R10 wildcard allowance: %s:%s no longer contains \
                      a wildcard handler" a.Rules.a_rel a.Rules.a_binding)))
    config.Rules.r10_wildcard_allow;
  !diags

(* R4 is the one rule that needs no parse: every .ml needs its .mli. *)
let check_r4 ~lib_dir files =
  List.filter_map
    (fun rel ->
      if List.mem (Filename.remove_extension rel ^ ".mli") files then None
      else
        Some
          (Diag.make ~rule:Diag.R4 ~file:(file_of ~lib_dir rel) ~line:1 ~col:0
             (Printf.sprintf "%s has no matching .mli; seal the interface"
                (Filename.basename rel))))
    (List.filter (fun rel -> Filename.check_suffix rel ".ml") files)

let lint ?(config = Rules.default_config) ~lib_dir () =
  let files = collect ~lib_dir "" [] in
  let index, unparsed =
    List.partition_map
      (function Ok m -> Either.Left m | Error d -> Either.Right d)
      (parse_files ~lib_dir files)
  in
  let graph = Callgraph.build index in
  List.sort Diag.compare_diag
    (unparsed
    @ check_r4 ~lib_dir files
    @ check_r6 ~lib_dir index
    @ check_r8 ~lib_dir config index graph
    @ check_r9 ~lib_dir config index graph
    @ check_r10 ~lib_dir config index graph
    @ check_r11 ~lib_dir config index)
