(** A syntactic whole-program index: the analyzer's only AST walk.

    One pass per file distills what every rule except R4 (a file-system
    check) consumes: per-top-level-binding reference lists (the raw edges
    of the call graph, and R6's printer references), raise sites,
    record-field writes, wildcard exception handlers, and per-module
    declarations (exceptions, mutable record fields, module aliases,
    opens).  No typechecking — identifiers are recorded as spelled and
    resolved later by {!Callgraph}.

    Only value bindings are walked, including those in nested
    [module M = struct ... end] items.  Functor bodies, [include] and
    top-level expressions ([Pstr_eval]) are not: [lib/] has none, and a
    rule cannot see a reference the walk skips. *)

type raise_arg =
  | Constructs of string list
      (** [raise (Exn ...)]: the flattened constructor path *)
  | Reraise  (** [raise e]: re-raise of a caught variable — always legal *)
  | Opaque  (** [raise (f x)]: a computed exception the analyzer cannot name *)
  | Partial of string
      (** a bare partial function — [failwith], [invalid_arg],
          [assert false], [Option.get], [List.hd], or a [Stdlib.]
          spelling — which raises an unregistered stdlib exception;
          carries the spelling.  Any reference counts, applied or not. *)

type raise_site = { r_arg : raise_arg; r_loc : Location.t }

type binding = {
  b_name : string;
      (** top-level value name; submodule members are dotted
          (["Manager.commit"]) *)
  b_loc : Location.t;
  b_refs : (string list * Location.t) list;
      (** every flattened identifier referenced in the body, in order *)
  b_raises : raise_site list;
  b_setfields : (string list * Location.t) list;
      (** record fields assigned ([x.f <- ...]) *)
  b_wildcards : Location.t list;  (** [try ... with _ ->] sites *)
}

type modinfo = {
  m_rel : string;  (** path relative to the linted root, e.g. ["wal/slb.ml"] *)
  m_lib : string option;  (** wrapped library name, from the directory *)
  m_name : string;  (** OCaml module name, e.g. ["Slb"] *)
  m_aliases : (string * string list) list;
      (** top-level [module S = Path] aliases *)
  m_opens : string list list;  (** top-level [open Path] directives, in order *)
  m_bindings : binding list;
  m_exceptions : string list;  (** exception names declared in the file *)
  m_exn_aliases : (string * string list) list;
      (** [exception E = Path.E] re-exports — resolution follows the
          alias to the original declaration site *)
  m_mutable_fields : string list;
      (** names of record fields declared [mutable] in the file *)
}

type t = modinfo list

val module_name_of_rel : string -> string
(** ["storage/catalog.ml"] -> ["Catalog"]. *)

val of_structure : rel:string -> lib:string option -> Parsetree.structure -> modinfo

val find_module : t -> rel:string -> modinfo option
val find_binding : modinfo -> string -> binding option
val modules_named : t -> string -> modinfo list
val declares_exception : modinfo -> string -> bool
