(** The mrdb_lint engine: parse sources with compiler-libs and enforce
    the architecture rules declared in {!Rules}.

    One walk per file: each [.ml] is parsed once and distilled into an
    {!Index.modinfo}.  Every rule reads that index — R6 output discipline
    per binding; R8 determinism, R9 ownership, R10 structured raises and
    R11 allowlist hygiene on the cross-module {!Callgraph} — except R4
    sealed interfaces, which only lists files.

    Purely syntactic — no typechecking.  Wrapped libraries make the head
    module of every cross-library reference explicit ([Mrdb_wal.Slt.t],
    [open Mrdb_storage]), which is all the resolution the call graph
    needs.  Known limitation: R9 write idents match the module name as
    spelled, so a local module alias ([module S = Mrdb_hw.Stable_mem])
    hides the subsequent [S.write] from R9. *)

val index_tree : lib_dir:string -> Index.t
(** Parse every [.ml] under [lib_dir] and return the index, with no
    diagnostics — the raw material for {!Callgraph.build}.  Exposed for
    the call-graph golden tests. *)

val lint : ?config:Rules.config -> lib_dir:string -> unit -> Diag.t list
(** Walk [lib_dir] recursively, check every [.ml] has a matching [.mli]
    (R4), index every [.ml] (a file that does not parse yields a single
    [Parse_error] diagnostic), then run R6 and R8-R11 on the index.
    [config] defaults to {!Rules.default_config} (the real tree's entry
    points, ownership registry and allowlists); tests supply
    fixture-specific configurations.  Diagnostics are sorted by file,
    line, column. *)
