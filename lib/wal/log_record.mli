(** REDO log records.

    "All log records have four main parts: TAG | Bin Index | Tran Id |
    Operation."  The TAG distinguishes relation records ({e operation} log
    records, since the partition string space is a heap), index records
    (per-component state records), catalog records, and — the second
    record family — logical {e command} records; the bin index is "a
    direct index into the partition bin table"; the operation is either a
    slot-level physical partition operation or a {!Mrdb_logical.Cmd_op}
    command replayed through the dispatch table.

    Tag bytes 0..2 are the physical tags (byte-identical to the
    pre-logical encoding, so the default [Physical] codec produces an
    unchanged stream); tag bytes >= 16 carry a command with
    [op_id = byte - 16] folded in, costing the command family no header
    byte.  The header layout is shared, so [Slb]/[Slt]/[Log_sorter] and
    the peek scans stream both families unchanged.

    Each record additionally carries a per-partition sequence number
    assigned under the writer's locks.  The checkpoint image of a partition
    stores the sequence watermark current at copy time, and recovery skips
    records at or below the watermark — this makes replay after a crash
    that interrupted the checkpoint/flush pipeline idempotent, for both
    record families. *)

open Mrdb_storage

type tag = Relation_op | Index_op | Catalog_op | Command_op

(** The operation payload: a physical after-image op or a logical
    command. *)
type body = Physical of Part_op.t | Command of Mrdb_logical.Cmd_op.t

type t = {
  tag : tag;
  bin_index : int;  (** index into the Stable Log Tail's partition bin table *)
  txn_id : int;
  seq : int;        (** per-partition sequence number *)
  op : body;
}

val make : tag:tag -> bin_index:int -> txn_id:int -> seq:int -> op:Part_op.t -> t
(** A physical record.
    @raise Mrdb_util.Fatal.Misuse when [tag] is [Command_op] (use
    {!make_cmd}). *)

val make_cmd :
  bin_index:int -> txn_id:int -> seq:int -> cmd:Mrdb_logical.Cmd_op.t -> t
(** A command record (tag [Command_op]). *)

val encoded_size : t -> int
(** Bytes the record occupies in the Stable Log Buffer and log pages —
    the paper's [S_log_record].  Computed arithmetically, no allocation. *)

val encode_into : t -> bytes -> pos:int -> int
(** Serialize at [pos] into a caller-owned scratch buffer and return the
    offset one past the last byte written, [pos + encoded_size t].
    Byte-identical to the Enc-based reference encoder kept in the tests
    (locked by the golden equivalence test); this is the zero-copy append
    path — the caller reserves [encoded_size t] bytes and issues a single
    stable-memory write of the frame. *)

val peek_bin_index : bytes -> pos:int -> int
(** Read just the bin index out of an encoded record starting at [pos] —
    an allocation-free varint scan.  The raw drain path uses it to route a
    frame to its partition bin without decoding the record. *)

val peek_txn_id : bytes -> pos:int -> int
(** Read just the transaction id out of an encoded record starting at
    [pos], allocation-free (skips tag and bin index).  The replay kernel
    tells a transaction's runs apart with it. *)

val peek_seq : bytes -> pos:int -> int
(** Read just the per-partition sequence number out of an encoded record
    starting at [pos], allocation-free (skips tag, bin index, txn id).
    The replay kernel filters on it before touching the operation. *)

(** {2 In-place replay access}

    The replay kernel applies frames straight from log-page bytes: a
    physical operation is applied with {!Mrdb_storage.Part_op.apply_encoded}
    at {!body_at}; a command is decoded with {!command_at}. *)

val is_command : bytes -> pos:int -> bool
(** Whether the encoded record at [pos] is a command record (tag byte
    >= 16). *)

val body_at : bytes -> pos:int -> int
(** Offset of the operation body of the encoded record at [pos], past the
    shared header (tag, bin index, txn id, sequence number).
    @raise Mrdb_util.Fatal.Invariant on a reserved tag byte. *)

val command_at : bytes -> pos:int -> len:int -> Mrdb_logical.Cmd_op.t
(** Decode the command carried by the [len]-byte encoded record at [pos].
    @raise Mrdb_util.Fatal.Invariant on a physical record or a command
    body that does not end exactly at the frame end. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
