(* The analyzer's one AST walk: one pass over a parsed structure distills
   everything the rules need — per-binding reference lists (the raw
   material of the call graph), raise sites, record-field writes, wildcard
   exception handlers, plus per-module declarations (exceptions, mutable
   record fields, module aliases and opens).  Still purely syntactic: no
   typechecking, identifiers are resolved later (Callgraph) from the
   surface spelling alone. *)

let rec flatten_opt : Longident.t -> string list option = function
  | Lident s -> Some [ s ]
  | Ldot (p, s) -> (
      match flatten_opt p with Some xs -> Some (xs @ [ s ]) | None -> None)
  | Lapply _ -> None

type raise_arg =
  | Constructs of string list  (* [raise (Exn ...)] — flattened constructor *)
  | Reraise                    (* [raise e] — re-raise of a caught variable *)
  | Opaque                     (* [raise (f x)] — a computed exception *)
  | Partial of string          (* [failwith], [List.hd], ... — as spelled *)

type raise_site = { r_arg : raise_arg; r_loc : Location.t }

type binding = {
  b_name : string;  (* "commit", or "Manager.commit" inside a submodule *)
  b_loc : Location.t;
  b_refs : (string list * Location.t) list;
  b_raises : raise_site list;
  b_setfields : (string list * Location.t) list;
  b_wildcards : Location.t list;
}

type modinfo = {
  m_rel : string;           (* path relative to the linted root *)
  m_lib : string option;    (* wrapped library, from the directory *)
  m_name : string;          (* "Catalog" for storage/catalog.ml *)
  m_aliases : (string * string list) list;  (* module S = Mrdb_hw.Stable_mem *)
  m_opens : string list list;
  m_bindings : binding list;
  m_exceptions : string list;
  m_exn_aliases : (string * string list) list;  (* exception E = Path.E *)
  m_mutable_fields : string list;
}

type t = modinfo list

let module_name_of_rel rel = String.capitalize_ascii
    (Filename.remove_extension (Filename.basename rel))

(* -- per-binding body collector -------------------------------------------- *)

type collector = {
  mutable c_refs : (string list * Location.t) list;
  mutable c_raises : raise_site list;
  mutable c_setfields : (string list * Location.t) list;
  mutable c_wildcards : Location.t list;
}

let is_raise_ident = function
  | [ ("raise" | "raise_notrace") ]
  | [ "Stdlib"; ("raise" | "raise_notrace") ] ->
      true
  | _ -> false

(* Bare partial functions: each raises an unregistered stdlib exception
   ([Failure], [Invalid_argument]), so a reference to one is a raise site
   whatever it is applied to.  [assert false] is matched in [collect_body]. *)
let is_partial_ident = function
  | [ ("failwith" | "invalid_arg") ]
  | [ "Stdlib"; ("failwith" | "invalid_arg") ]
  | [ "Option"; "get" ] | [ "Stdlib"; "Option"; "get" ]
  | [ "List"; "hd" ] | [ "Stdlib"; "List"; "hd" ] ->
      true
  | _ -> false

(* A try-case that swallows every exception: [_], possibly aliased or in
   an or-pattern.  A [with e -> ...] variable catch-all is deliberately
   not flagged — the idiom re-raises and the re-raise is checked. *)
let rec catches_everything (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (q, _) -> catches_everything q
  | Ppat_or (a, b) -> catches_everything a || catches_everything b
  | _ -> false

let collect_body (c : collector) (e : Parsetree.expression) =
  let open Ast_iterator in
  let on_lid (lid : Longident.t Location.loc) =
    match flatten_opt lid.txt with
    | None -> ()
    | Some path ->
        if is_partial_ident path then
          c.c_raises <-
            { r_arg = Partial (String.concat "." path); r_loc = lid.loc }
            :: c.c_raises;
        c.c_refs <- (path, lid.loc) :: c.c_refs
  in
  let expr sub (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident lid | Pexp_construct (lid, _) | Pexp_field (_, lid)
    | Pexp_new lid ->
        on_lid lid
    | Pexp_setfield (_, lid, _) -> (
        on_lid lid;
        match flatten_opt lid.txt with
        | Some path -> c.c_setfields <- (path, lid.loc) :: c.c_setfields
        | None -> ())
    | Pexp_record (fields, _) -> List.iter (fun (lid, _) -> on_lid lid) fields
    | Pexp_apply ({ pexp_desc = Pexp_ident f; _ }, args) -> (
        match flatten_opt f.txt with
        | Some p when is_raise_ident p -> (
            match List.assoc_opt Asttypes.Nolabel args with
            | None -> ()
            | Some arg ->
                let r_arg =
                  match arg.Parsetree.pexp_desc with
                  | Pexp_construct (lid, _) -> (
                      match flatten_opt lid.txt with
                      | Some path -> Constructs path
                      | None -> Opaque)
                  | Pexp_ident _ -> Reraise
                  | _ -> Opaque
                in
                c.c_raises <- { r_arg; r_loc = e.pexp_loc } :: c.c_raises)
        | _ -> ())
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
        c.c_raises <-
          { r_arg = Partial "assert false"; r_loc = e.pexp_loc } :: c.c_raises
    | Pexp_try (_, cases) ->
        List.iter
          (fun (case : Parsetree.case) ->
            if case.pc_guard = None && catches_everything case.pc_lhs then
              c.c_wildcards <- case.pc_lhs.ppat_loc :: c.c_wildcards)
          cases
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
  let it = { default_iterator with expr; pat } in
  it.expr it e

(* -- structure walk --------------------------------------------------------- *)

let rec binding_name_of_pattern (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var v -> Some v.txt
  | Ppat_constraint (q, _) | Ppat_alias (q, _) -> binding_name_of_pattern q
  | Ppat_tuple ps -> List.find_map binding_name_of_pattern ps
  | _ -> None

let rec walk_items ~prefix acc_bindings acc_exns acc_exn_aliases acc_fields
    acc_aliases acc_opens (items : Parsetree.structure) =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              let name =
                match binding_name_of_pattern vb.pvb_pat with
                | Some n -> n
                | None -> "_"
              in
              let c =
                { c_refs = []; c_raises = []; c_setfields = [];
                  c_wildcards = [] }
              in
              collect_body c vb.pvb_expr;
              acc_bindings :=
                {
                  b_name = prefix ^ name;
                  b_loc = vb.pvb_pat.ppat_loc;
                  b_refs = List.rev c.c_refs;
                  b_raises = List.rev c.c_raises;
                  b_setfields = List.rev c.c_setfields;
                  b_wildcards = List.rev c.c_wildcards;
                }
                :: !acc_bindings)
            vbs
      | Pstr_exception te -> (
          let name = prefix ^ te.ptyexn_constructor.pext_name.txt in
          match te.ptyexn_constructor.pext_kind with
          | Pext_rebind lid -> (
              (* [exception E = Path.E] re-exports, it does not declare:
                 resolution follows the alias to the original site. *)
              match flatten_opt lid.txt with
              | Some path -> acc_exn_aliases := (name, path) :: !acc_exn_aliases
              | None -> ())
          | Pext_decl _ -> acc_exns := name :: !acc_exns)
      | Pstr_type (_, decls) ->
          List.iter
            (fun (d : Parsetree.type_declaration) ->
              match d.ptype_kind with
              | Ptype_record labels ->
                  List.iter
                    (fun (l : Parsetree.label_declaration) ->
                      if l.pld_mutable = Asttypes.Mutable then
                        acc_fields := l.pld_name.txt :: !acc_fields)
                    labels
              | _ -> ())
            decls
      | Pstr_module mb -> (
          let name =
            match mb.pmb_name.txt with Some n -> n | None -> "_"
          in
          let rec strip (me : Parsetree.module_expr) =
            match me.pmod_desc with
            | Pmod_constraint (inner, _) -> strip inner
            | d -> d
          in
          match strip mb.pmb_expr with
          | Pmod_ident lid -> (
              match flatten_opt lid.txt with
              | Some path -> acc_aliases := (prefix ^ name, path) :: !acc_aliases
              | None -> ())
          | Pmod_structure sub ->
              walk_items ~prefix:(prefix ^ name ^ ".") acc_bindings acc_exns
                acc_exn_aliases acc_fields acc_aliases acc_opens sub
          | _ -> () (* functor bodies are not indexed; lib/ has none *))
      | Pstr_open od -> (
          match od.popen_expr.pmod_desc with
          | Pmod_ident lid -> (
              match flatten_opt lid.txt with
              | Some path -> acc_opens := path :: !acc_opens
              | None -> ())
          | _ -> ())
      | _ -> ())
    items

let of_structure ~rel ~lib (str : Parsetree.structure) =
  let bindings = ref [] and exns = ref [] and fields = ref [] in
  let exn_aliases = ref [] and aliases = ref [] and opens = ref [] in
  walk_items ~prefix:"" bindings exns exn_aliases fields aliases opens str;
  {
    m_rel = rel;
    m_lib = lib;
    m_name = module_name_of_rel rel;
    m_aliases = List.rev !aliases;
    m_opens = List.rev !opens;
    m_bindings = List.rev !bindings;
    m_exceptions = List.rev !exns;
    m_exn_aliases = List.rev !exn_aliases;
    m_mutable_fields = List.rev !fields;
  }

(* -- lookup helpers ---------------------------------------------------------- *)

let find_module t ~rel = List.find_opt (fun m -> m.m_rel = rel) t

let find_binding m name =
  List.find_opt (fun b -> b.b_name = name) m.m_bindings

let modules_named t name = List.filter (fun m -> m.m_name = name) t

let declares_exception m name = List.mem name m.m_exceptions
