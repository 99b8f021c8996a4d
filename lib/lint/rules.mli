(** The declared architecture mrdb_lint enforces.

    Rule set (each diagnostic cites the paper clause it protects):
    - {b R4 sealed interfaces}: every [lib/**/*.ml] has a matching [.mli].
    - {b R6 output discipline}: bare [Printf.printf] / [print_string] /
      [print_endline] / [print_newline] are banned under [lib/] outside
      [lib/obs/] and [util/texttab.ml] — library code renders through
      [Mrdb_obs.Export] or [Mrdb_util.Texttab]; only binaries print.

    Interprocedural rules (run on the whole-program call graph built by
    {!Index} + {!Callgraph}, configured by {!type:config}):
    - {b R8 determinism}: no function reachable from a commit/drain/recovery
      entry point may touch a nondeterminism source ([Random], wall
      clocks, polymorphic hashing, unordered [Hashtbl] iteration) unless
      a justified allowlist entry names the binding and the identifier —
      a fold that sorts its result too, so no reachable iteration goes
      unreviewed.
    - {b R9 ownership}: writes to registered shared mutable state must
      resolve — via the call graph, not per-file paths — to the declared
      owning module.  The registry includes raw stable-memory writes
      (paper 2.2), device fault injection, and SLB region appends.
    - {b R10 structured raises}: every [raise] must construct a declared
      structured exception (or re-raise); bare [failwith] / [invalid_arg]
      / [assert false] / [Option.get] / [List.hd] count as raises of
      unregistered stdlib exceptions; [try ... with _ ->] wildcards are
      flagged.
    - {b R11 allowlist hygiene}: every allowlist/registry entry in the
      configuration must still name a real file, binding and identifier.

    Retired numbers are never reused.  R2 (layering) is dune's:
    [dune-project] sets [implicit_transitive_deps false], so a library can
    name only the [Mrdb_*] libraries its own [libraries] field lists, and
    an upward edge such as [mrdb_recovery] -> [mrdb_core] is a dependency
    cycle.  R1 (wild-write discipline), R5 (fault-injection containment)
    and R7 (SLB region ownership) are R9 resources; R3 (partiality) is
    part of R10. *)

val libraries : (string * string) list
(** Directory under [lib/] -> wrapped library name. *)

val library_of_dir : string -> string option
val is_known_library : string -> bool

val print_idents : (string list * string) list
(** Banned implicit-stdout printers (identifier path, display name);
    formatter-taking [Format] functions are deliberately absent. *)

val print_ident : string list -> string option
(** [print_ident path] is [Some display_name] when the flattened
    identifier path is a banned printer. *)

val print_allowed : string -> bool
(** [print_allowed rel] — [rel] relative to [lib/]: the [obs/] renderers
    and [util/texttab.ml]. *)

(** {2 Interprocedural configuration (R8-R11)} *)

type nondet = Clock | Random_src | Poly_hash | Unordered_iter

val nondet_ident : string list -> (nondet * string) option
(** Classify a flattened reference as a nondeterminism source; returns the
    kind and a display name ("Sys.time", "Hashtbl.fold", ...). *)

type entry_point = { e_rel : string; e_binding : string }

type allow = {
  a_rel : string;  (** file, relative to the linted root *)
  a_binding : string;  (** top-level (possibly dotted) binding name *)
  a_ident : string;  (** display name of the tolerated identifier *)
  a_why : string;  (** human justification, surfaced by R11 *)
}

type resource = {
  res_name : string;
  res_write_idents : (string * string) list;
      (** (module, function) write calls: the module anywhere in the
          reference path, the function right after it *)
  res_fields : string list;
      (** mutable record fields whose [<-] counts as a write *)
  res_owners : string list;
      (** owning rel prefixes (["wal/"]) or exact files *)
}

type exn_decl = { x_rel : string; x_name : string }

type config = {
  r8_entry_points : entry_point list;
  r8_allow : allow list;
  r8_random_ok : string list;
      (** files where [Random]-family references are legal (the seeded
          executor streams and the splitmix implementation itself) *)
  r9_resources : resource list;
  r10_exceptions : exn_decl list;  (** the sanctioned structured exceptions *)
  r10_stdlib_exceptions : string list;  (** e.g. [Not_found], [Exit] *)
  r10_raise_ok : string list;
      (** files exempt from the raise registry, bare partial functions
          included *)
  r10_wildcard_allow : allow list;
      (** justified [try ... with _ ->] sites, keyed by file + binding *)
}

val owner_matches : string list -> string -> bool
(** [owner_matches owners rel]: [rel] equals an entry or extends a
    ["dir/"]-style prefix entry. *)

val write_ident_call : resource -> string list -> string option
(** Does the flattened path contain one of the resource's write calls?
    Returns the display name. *)

val default_config : config
(** The real tree's configuration; every allow entry carries its
    justification and is validated by R11 against the live index. *)
