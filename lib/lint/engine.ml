(* Parse every .ml under a lib/ tree with compiler-libs and check the
   declared rule set (see Rules).  The engine is purely syntactic: it never
   typechecks, so it resolves only what the surface syntax shows — the head
   module of each [Longident] reference.  That is exactly enough for the
   architecture rules, because crossing a wrapped-library boundary always
   names the library ([Mrdb_wal.Slt.accept_raw], [open Mrdb_storage]):
   there is no way to reach another library without the [Mrdb_*] head
   appearing. *)

(* -- longident traversal --------------------------------------------------- *)

(* [Longident.flatten] raises on functor application; this total version
   skips those paths (a functor application cannot smuggle a banned
   identifier or a raw stable-memory write — its pieces are still visited
   as module expressions). *)
let rec flatten_opt : Longident.t -> string list option = function
  | Lident s -> Some [ s ]
  | Ldot (p, s) -> (
      match flatten_opt p with Some xs -> Some (xs @ [ s ]) | None -> None)
  | Lapply _ -> None

(* Visit every [Longident] reference and every [assert false] in a
   structure.  The default iterator recurses everywhere; the overrides only
   peel the identifier off the nodes that carry one. *)
let iter_references ~on_lid ~on_assert_false (str : Parsetree.structure) =
  let open Ast_iterator in
  let expr sub (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident lid
    | Pexp_construct (lid, _)
    | Pexp_field (_, lid)
    | Pexp_new lid ->
        on_lid lid
    | Pexp_setfield (_, lid, _) -> on_lid lid
    | Pexp_record (fields, _) -> List.iter (fun (lid, _) -> on_lid lid) fields
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      ->
        on_assert_false e.pexp_loc
    | _ -> ());
    default_iterator.expr sub e
  in
  let pat sub (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_construct (lid, _) | Ppat_type lid | Ppat_open (lid, _) -> on_lid lid
    | Ppat_record (fields, _) -> List.iter (fun (lid, _) -> on_lid lid) fields
    | _ -> ());
    default_iterator.pat sub p
  in
  let typ sub (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr (lid, _) | Ptyp_class (lid, _) -> on_lid lid
    | _ -> ());
    default_iterator.typ sub t
  in
  let module_expr sub (m : Parsetree.module_expr) =
    (match m.pmod_desc with Pmod_ident lid -> on_lid lid | _ -> ());
    default_iterator.module_expr sub m
  in
  let module_type sub (m : Parsetree.module_type) =
    (match m.pmty_desc with
    | Pmty_ident lid | Pmty_alias lid -> on_lid lid
    | _ -> ());
    default_iterator.module_type sub m
  in
  let it = { default_iterator with expr; pat; typ; module_expr; module_type } in
  it.structure it str

(* -- per-file checks -------------------------------------------------------- *)

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

(* R1: does the reference path contain a mutating [Stable_mem] access?
   Matches [Stable_mem.write] as well as [Mrdb_hw.Stable_mem.write] and the
   post-[open Mrdb_hw] spelling. *)
let rec stable_mem_mutation = function
  | "Stable_mem" :: m :: _ when List.mem m Rules.stable_mem_mutators -> Some m
  | _ :: rest -> stable_mem_mutation rest
  | [] -> None

(* R5: does the reference path contain an injection call ([Disk.fail],
   [Mrdb_hw.Duplex.fail_primary], ...)?  Same head-module matching as R1. *)
let rec fault_injection_call = function
  | m :: f :: _
    when (match List.assoc_opt m Rules.fault_injection_idents with
         | Some fns -> List.mem f fns
         | None -> false) ->
      Some (m ^ "." ^ f)
  | _ :: rest -> fault_injection_call rest
  | [] -> None


let check_structure ~file ~rel str =
  let diags = ref [] in
  let add rule loc msg =
    let line, col = pos_of loc in
    diags := Diag.make ~rule ~file ~line ~col msg :: !diags
  in
  let check_r1 loc path =
    if not (Rules.wild_write_allowed rel) then
      match stable_mem_mutation path with
      | Some m ->
          add Diag.R1 loc
            (Printf.sprintf
               "raw stable-memory write Stable_mem.%s outside the log \
                components; go through the SLB/SLT/partition-bin interfaces"
               m)
      | None -> ()
  in
  let check_r3 loc path =
    if not (Rules.partiality_allowed rel) then
      match Rules.banned_ident path with
      | Some name ->
          add Diag.R3 loc
            (Printf.sprintf
               "bare %s; use Mrdb_util.Fatal.invariant/misuse or a \
                structured exception" name)
      | None -> ()
  in
  let check_r6 loc path =
    if not (Rules.print_allowed rel) then
      match Rules.print_ident path with
      | Some name ->
          add Diag.R6 loc
            (Printf.sprintf
               "bare %s; render through Mrdb_obs.Export or \
                Mrdb_util.Texttab instead of printing from library code" name)
      | None -> ()
  in
  let check_r5 loc path =
    if not (Rules.fault_injection_allowed rel) then
      match fault_injection_call path with
      | Some name ->
          add Diag.R5 loc
            (Printf.sprintf
               "fault-injection call %s outside lib/fault; production code \
                must not fabricate device faults" name)
      | None -> ()
  in
  let on_lid (lid : Longident.t Location.loc) =
    match flatten_opt lid.txt with
    | None -> ()
    | Some path ->
        check_r1 lid.loc path;
        check_r3 lid.loc path;
        check_r5 lid.loc path;
        check_r6 lid.loc path
  in
  let on_assert_false loc =
    if not (Rules.partiality_allowed rel) then
      add Diag.R3 loc
        "bare assert false; use Mrdb_util.Fatal.invariant so the broken \
         invariant is tagged and greppable"
  in
  iter_references ~on_lid ~on_assert_false str;
  List.rev !diags

let parse_impl path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      Parse.implementation lexbuf)

(* One parse per file: the per-file rules (phase 1 checks) and the
   whole-program index entry both come from the same tree. *)
let analyze_ml ~lib_dir ~rel =
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
      ([ Diag.make ~rule:Diag.Parse_error ~file ~line ~col detail ], None)
  | str ->
      let dir =
        match String.index_opt rel '/' with
        | Some i -> String.sub rel 0 i
        | None -> ""
      in
      let lib = Rules.library_of_dir dir in
      (check_structure ~file ~rel str, Some (Index.of_structure ~rel ~lib str))

let lint_ml ~lib_dir ~rel = fst (analyze_ml ~lib_dir ~rel)

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

(* -- phase 2: interprocedural rules (R8-R11) -------------------------------- *)

let index_tree ~lib_dir =
  collect ~lib_dir "" []
  |> List.sort String.compare
  |> List.filter_map (fun rel ->
         if Filename.check_suffix rel ".ml" then
           snd (analyze_ml ~lib_dir ~rel)
         else None)

let file_of ~lib_dir rel = Filename.concat lib_dir rel

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
                        | Rules.Unordered_iter -> b.Index.b_sorts
                        | Rules.Clock | Rules.Poly_hash -> false)
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
                            ~key:(n.Callgraph.n_binding ^ ":" ^ display)
                            (Printf.sprintf
                               "%s on the deterministic path %s; sort the \
                                iteration, derive from the simulated clock, \
                                or add a justified Rules allowlist entry"
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
                      ~key:(b.Index.b_name ^ ":" ^ what)
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
   re-raises); wildcard handlers need a justified allowlist entry. *)
let check_r10 ~lib_dir (config : Rules.config) index graph =
  let diags = ref [] in
  let add (m : Index.modinfo) ~key loc msg =
    let line, col = pos_of loc in
    diags :=
      Diag.make ~rule:Diag.R10
        ~file:(file_of ~lib_dir m.Index.m_rel)
        ~line ~col ~key msg
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
                | Index.Opaque ->
                    add m ~key:(b.Index.b_name ^ ":opaque") r.Index.r_loc
                      "raise of a computed exception; construct a declared \
                       structured exception so recovery can classify the \
                       failure"
                | Index.Constructs path -> (
                    let last = List.nth path (List.length path - 1) in
                    match Callgraph.resolve_exn graph m path with
                    | Some (decl_rel, name) ->
                        if not (registered decl_rel name) then
                          add m ~key:(b.Index.b_name ^ ":" ^ last) r.Index.r_loc
                            (Printf.sprintf
                               "raise of %s (declared in %s) which is not in \
                                the sanctioned exception registry; register \
                                it in Rules with its recovery semantics"
                               name decl_rel)
                    | None ->
                        if
                          not (List.mem last config.Rules.r10_stdlib_exceptions)
                        then
                          add m ~key:(b.Index.b_name ^ ":" ^ last) r.Index.r_loc
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
                add m ~key:(b.Index.b_name ^ ":wildcard") loc
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
  let stale rel key msg =
    diags :=
      Diag.make ~rule:Diag.R11 ~file:(file_of ~lib_dir rel) ~line:1 ~col:0 ~key
        msg
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
        stale e.Rules.e_rel ("entry:" ^ e.Rules.e_binding)
          (Printf.sprintf
             "stale R8 entry point %s:%s — no such binding; update the Rules \
              configuration" e.Rules.e_rel e.Rules.e_binding))
    config.Rules.r8_entry_points;
  List.iter
    (fun (a : Rules.allow) ->
      match module_of a.Rules.a_rel with
      | None ->
          stale a.Rules.a_rel ("allow:" ^ a.Rules.a_binding)
            (Printf.sprintf "stale R8 allowlist entry: no file %s"
               a.Rules.a_rel)
      | Some m -> (
          match Index.find_binding m a.Rules.a_binding with
          | None ->
              stale a.Rules.a_rel ("allow:" ^ a.Rules.a_binding)
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
                stale a.Rules.a_rel ("allow:" ^ a.Rules.a_binding)
                  (Printf.sprintf
                     "stale R8 allowlist entry: %s:%s no longer references %s"
                     a.Rules.a_rel a.Rules.a_binding a.Rules.a_ident)))
    config.Rules.r8_allow;
  List.iter
    (fun rel ->
      if module_of rel = None then
        stale rel "random-ok"
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
            stale owner ("owner:" ^ res.Rules.res_name)
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
            stale anchor ("field:" ^ field)
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
        stale x.Rules.x_rel ("exn:" ^ x.Rules.x_name)
          (Printf.sprintf
             "stale R10 registry entry: %s does not declare exception %s"
             x.Rules.x_rel x.Rules.x_name))
    config.Rules.r10_exceptions;
  List.iter
    (fun rel ->
      if module_of rel = None then
        stale rel "raise-ok"
          (Printf.sprintf "stale R10 raise allowance: no file %s" rel))
    config.Rules.r10_raise_ok;
  List.iter
    (fun (a : Rules.allow) ->
      match module_of a.Rules.a_rel with
      | None ->
          stale a.Rules.a_rel ("wildcard:" ^ a.Rules.a_binding)
            (Printf.sprintf "stale R10 wildcard allowance: no file %s"
               a.Rules.a_rel)
      | Some m -> (
          match Index.find_binding m a.Rules.a_binding with
          | None ->
              stale a.Rules.a_rel ("wildcard:" ^ a.Rules.a_binding)
                (Printf.sprintf
                   "stale R10 wildcard allowance: no binding %s in %s"
                   a.Rules.a_binding a.Rules.a_rel)
          | Some b ->
              if b.Index.b_wildcards = [] then
                stale a.Rules.a_rel ("wildcard:" ^ a.Rules.a_binding)
                  (Printf.sprintf
                     "stale R10 wildcard allowance: %s:%s no longer contains \
                      a wildcard handler" a.Rules.a_rel a.Rules.a_binding)))
    config.Rules.r10_wildcard_allow;
  !diags

let lint ?(config = Rules.default_config) ~lib_dir () =
  let files = collect ~lib_dir "" [] in
  let has rel = List.mem rel files in
  let index = ref [] in
  let diags =
    List.concat_map
      (fun rel ->
        if Filename.check_suffix rel ".ml" then begin
          let sealed =
            if has (Filename.remove_extension rel ^ ".mli") then []
            else
              [
                Diag.make ~rule:Diag.R4
                  ~file:(Filename.concat lib_dir rel)
                  ~line:1 ~col:0
                  (Printf.sprintf "%s has no matching .mli; seal the interface"
                     (Filename.basename rel));
              ]
          in
          let file_diags, info = analyze_ml ~lib_dir ~rel in
          (match info with Some m -> index := m :: !index | None -> ());
          sealed @ file_diags
        end
        else [])
      files
  in
  let index = List.rev !index in
  let graph = Callgraph.build index in
  let inter =
    check_r8 ~lib_dir config index graph
    @ check_r9 ~lib_dir config index graph
    @ check_r10 ~lib_dir config index graph
    @ check_r11 ~lib_dir config index
  in
  List.sort Diag.compare_diag (diags @ inter)
