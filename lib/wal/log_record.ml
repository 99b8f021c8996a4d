open Mrdb_storage
module Cmd_op = Mrdb_logical.Cmd_op

type tag = Relation_op | Index_op | Catalog_op | Command_op

type body = Physical of Part_op.t | Command of Cmd_op.t

type t = {
  tag : tag;
  bin_index : int;
  txn_id : int;
  seq : int;
  op : body;
}

let make ~tag ~bin_index ~txn_id ~seq ~op =
  (match tag with
  | Command_op ->
      Mrdb_util.Fatal.misuse "Log_record.make: Command_op carries a Cmd_op (use make_cmd)"
  | Relation_op | Index_op | Catalog_op -> ());
  { tag; bin_index; txn_id; seq; op = Physical op }

let make_cmd ~bin_index ~txn_id ~seq ~cmd =
  { tag = Command_op; bin_index; txn_id; seq; op = Command cmd }

(* Physical tags keep their original bytes (0/1/2) so a pure-physical
   stream — the default codec — is byte-identical to the pre-logical
   encoding (locked by both determinism goldens).  Tag bytes >= 16 carry
   a command record with [op_id = byte - 16]: the operation id costs no
   wire bytes of its own.  3..15 are reserved. *)
let cmd_tag_base = 16

let tag_byte t =
  match t.op with
  | Physical _ -> (
      match t.tag with
      | Relation_op -> 0
      | Index_op -> 1
      | Catalog_op -> 2
      | Command_op ->
          Mrdb_util.Fatal.invariant ~mod_:"Log_record" "Command_op with physical body")
  | Command c -> cmd_tag_base + c.Cmd_op.op_id

let tag_of_byte = function
  | 0 -> Relation_op
  | 1 -> Index_op
  | 2 -> Catalog_op
  | n when n >= cmd_tag_base -> Command_op
  | n -> Mrdb_util.Fatal.invariantf ~mod_:"Log_record" "bad tag %d" n

let encoded_size t =
  let open Mrdb_util.Codec in
  1 + varint_size t.bin_index + varint_size t.txn_id + varint_size t.seq
  + (match t.op with
    | Physical op -> Part_op.encoded_size op
    | Command c -> Cmd_op.encoded_size c)

let encode_into t b ~pos =
  let open Mrdb_util.Codec in
  Bytes.unsafe_set b pos (Char.unsafe_chr (tag_byte t));
  let pos = put_varint b (pos + 1) t.bin_index in
  let pos = put_varint b pos t.txn_id in
  let pos = put_varint b pos t.seq in
  match t.op with
  | Physical op -> Part_op.encode_into op b ~pos
  | Command c -> Cmd_op.encode_into c b ~pos

(* Allocation-free field scans over an encoded record: the raw drain path
   routes frames by bin index and sequence number, and the replay kernel
   applies frames in place, without materializing a record value.  All-int
   recursion — no refs, no tuples.  The header layout is shared by both
   record families, so the scans are tag-oblivious. *)
let rec skip_varint b pos =
  if Char.code (Bytes.unsafe_get b pos) < 0x80 then pos + 1
  else skip_varint b (pos + 1)

let rec read_varint b pos shift acc =
  let byte = Char.code (Bytes.unsafe_get b pos) in
  let acc = acc lor ((byte land 0x7F) lsl shift) in
  if byte < 0x80 then acc else read_varint b (pos + 1) (shift + 7) acc

let peek_bin_index b ~pos = read_varint b (pos + 1) 0 0

let peek_txn_id b ~pos = read_varint b (skip_varint b (pos + 1)) 0 0

let peek_seq b ~pos =
  let p = skip_varint b (pos + 1) in
  let p = skip_varint b p in
  read_varint b p 0 0

let is_command b ~pos = Char.code (Bytes.get b pos) >= cmd_tag_base

let body_at b ~pos =
  ignore (tag_of_byte (Char.code (Bytes.get b pos)) : tag);
  skip_varint b (skip_varint b (skip_varint b (pos + 1)))

let command_at b ~pos ~len =
  let byte = Char.code (Bytes.get b pos) in
  if byte < cmd_tag_base then
    Mrdb_util.Fatal.invariantf ~mod_:"Log_record" "command_at: physical tag %d" byte;
  Cmd_op.decode ~op_id:(byte - cmd_tag_base)
    (Mrdb_util.Codec.Dec.of_bytes ~pos:(body_at b ~pos) b)
    ~stop:(pos + len)

let equal_body a b =
  match (a, b) with
  | Physical x, Physical y -> Part_op.equal x y
  | Command x, Command y -> Cmd_op.equal x y
  | (Physical _ | Command _), _ -> false

let equal a b =
  a.tag = b.tag && a.bin_index = b.bin_index && a.txn_id = b.txn_id
  && a.seq = b.seq && equal_body a.op b.op

let tag_to_string = function
  | Relation_op -> "rel"
  | Index_op -> "idx"
  | Catalog_op -> "cat"
  | Command_op -> "cmd"

let pp_body ppf = function
  | Physical op -> Part_op.pp ppf op
  | Command c -> Cmd_op.pp ppf c

let pp ppf t =
  Format.fprintf ppf "[%s bin=%d txn=%d seq=%d %a]" (tag_to_string t.tag)
    t.bin_index t.txn_id t.seq pp_body t.op
