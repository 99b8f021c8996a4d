(** The logical replay engine: applies command records during recovery.

    Restart recovery hands {!apply_cmd} a {!Dispatch.Rel} target (catalog
    schema in hand) and commands replay through the relation layer —
    [Relation.update_field]/[Relation.delete] with [?alloc] arena routing
    preserved; inserts pin the logged slot via [Partition.insert_at] so
    the slot directory reproduces the primary's exactly.  The warm-standby
    audit hands a {!Dispatch.Part} target and the same commands replay as
    fixed-width cell patches with no schema at all.  Both paths yield
    byte-identical partitions (locked by test_logical).

    All malformed-command failures raise [Mrdb_util.Fatal.Invariant] —
    the replica audit already maps that to a divergence verdict. *)

(** Built-in op ids (registered in the default dispatch table): *)

val op_insert_ints : int
(** 1: insert; key = slot, args = the column values (all-Int schema). *)

val op_delete : int
(** 2: delete; key = slot, no args. *)

val op_add_i64 : int
(** 3: args = [col; delta] — add [delta] to Int column [col]. *)

val op_add_col0 : int
(** 8..15: add args.(0) into column (op - 8) — the column index rides the
    tag byte for the first {!folded_cols} columns. *)

val op_set_col0 : int
(** 16..23: set column (op - 16) to args.(0). *)

val folded_cols : int

val apply_cmd :
  ?alloc:(int -> bytes) -> target:Dispatch.target -> Cmd_op.t -> unit
(** Apply one command via the shared built-in table.
    @raise Mrdb_util.Fatal.Invariant on an unregistered op id, a dead or
    unexpectedly-live slot, a non-Int cell, or a relation-id mismatch. *)
