(** The mrdb_lint engine: parse sources with compiler-libs and enforce
    the architecture rules declared in {!Rules}.

    Two phases over one parse per file.  Phase 1 runs the per-file rules
    (R1, R3-R6) and distills each file into an {!Index.modinfo}; phase 2
    builds the cross-module {!Callgraph} and runs the interprocedural
    rules (R8 determinism, R9 ownership, R10 structured raises, R11
    allowlist hygiene).

    Purely syntactic — no typechecking.  Wrapped libraries make the head
    module of every cross-library reference explicit ([Mrdb_wal.Slt.t],
    [open Mrdb_storage]), which is all the resolution the call graph
    needs.  Known limitation: a local module alias
    ([module S = Mrdb_hw.Stable_mem]) hides the subsequent uses from R1. *)

val lint_ml : lib_dir:string -> rel:string -> Diag.t list
(** Lint one implementation file with the per-file rules only.  [rel] is
    the path relative to [lib_dir] (e.g. ["wal/slt.ml"]); it determines
    the owning library and the rule whitelists.  A file that does not
    parse yields a single [Parse_error] diagnostic. *)

val index_tree : lib_dir:string -> Index.t
(** Parse every [.ml] under [lib_dir] and return the phase-1 index, with
    no diagnostics — the raw material for {!Callgraph.build}.  Exposed
    for the call-graph golden tests. *)

val lint : ?config:Rules.config -> lib_dir:string -> unit -> Diag.t list
(** Walk [lib_dir] recursively, lint every [.ml] (rules R1, R3-R6), check
    every one has a matching [.mli] (R4), then run the interprocedural
    rules (R8-R11) on the whole-program call graph.  [config] defaults to
    {!Rules.default_config} (the real tree's entry points, ownership
    registry and allowlists); tests supply fixture-specific
    configurations.  Diagnostics are sorted by file, line, column. *)
