(* Test-side oracles for the zero-copy REDO paths.

   The library encodes records in place ([Log_record.encode_into]), moves
   them as encoded frames from the SLB to the partition bins
   ([Slb.drain_raw] -> [Slt.accept_raw] -> [Partition_bin.append_raw]),
   and replays them straight from page bytes ([Restorer.replay]).  This
   module keeps the reference forms those paths are checked against: the
   allocating Enc/Dec record codec, frame decoding into record lists, and
   the list-based replay loop (decode every record, then
   [Part_op.apply] / [Replay.apply_cmd] per record).  It also drives the
   frame path with record values, so tests can build their input as
   records and read it back as records. *)

open Mrdb_storage
open Mrdb_wal
module Cmd_op = Mrdb_logical.Cmd_op

let cmd_tag_base = 16

let tag_byte (r : Log_record.t) =
  match r.Log_record.op with
  | Log_record.Command c -> cmd_tag_base + c.Cmd_op.op_id
  | Log_record.Physical _ -> (
      match r.Log_record.tag with
      | Log_record.Relation_op -> 0
      | Log_record.Index_op -> 1
      | Log_record.Catalog_op -> 2
      | Log_record.Command_op -> invalid_arg "Redo_oracle.encode: Command_op with physical body")

let encode (r : Log_record.t) =
  let open Mrdb_util.Codec.Enc in
  let enc = create () in
  u8 enc (tag_byte r);
  varint enc r.Log_record.bin_index;
  varint enc r.Log_record.txn_id;
  varint enc r.Log_record.seq;
  (match r.Log_record.op with
  | Log_record.Physical op -> Part_op.encode enc op
  | Log_record.Command c -> Cmd_op.encode enc c);
  to_bytes enc

let decode b =
  let open Mrdb_util.Codec.Dec in
  let dec = of_bytes b in
  let byte = u8 dec in
  let bin_index = varint dec in
  let txn_id = varint dec in
  let seq = varint dec in
  let r =
    if byte >= cmd_tag_base then
      Log_record.make_cmd ~bin_index ~txn_id ~seq
        ~cmd:(Cmd_op.decode ~op_id:(byte - cmd_tag_base) dec ~stop:(Bytes.length b))
    else
      let tag =
        match byte with
        | 0 -> Log_record.Relation_op
        | 1 -> Log_record.Index_op
        | 2 -> Log_record.Catalog_op
        | n -> Mrdb_util.Fatal.invariantf ~mod_:"Log_record" "bad tag %d" n
      in
      Log_record.make ~tag ~bin_index ~txn_id ~seq ~op:(Part_op.decode dec)
  in
  if not (at_end dec) then
    Mrdb_util.Fatal.invariantf ~mod_:"Log_record" "decode: %d trailing bytes"
      (remaining dec);
  r

(* u16 length prefix + encoded record, as stored in bin buffers, SLB
   blocks and page payloads. *)
let frame_record r =
  let payload = encode r in
  let framed = Bytes.create (2 + Bytes.length payload) in
  Mrdb_util.Codec.put_u16 framed 0 (Bytes.length payload);
  Bytes.blit payload 0 framed 2 (Bytes.length payload);
  framed

let frame_records records = Bytes.concat Bytes.empty (List.map frame_record records)

(* The same framing by the library encoder: what [Slb.Region.append]
   writes and [Slb.drain_raw] hands out. *)
let frame r =
  let size = Log_record.encoded_size r in
  let b = Bytes.create (2 + size) in
  Mrdb_util.Codec.put_u16 b 0 size;
  ignore (Log_record.encode_into r b ~pos:2 : int);
  b

(* Sort one record into its bin through the production entry point. *)
let accept slt r =
  let b = frame r in
  Slt.accept_raw slt b ~pos:2 ~len:(Bytes.length b - 2)

let bin_append bin r =
  let b = frame r in
  Partition_bin.append_raw bin b ~pos:2 ~len:(Bytes.length b - 2)

(* [Slb.drain_raw], with each frame decoded by the reference codec. *)
let drain slb ~f =
  Slb.drain_raw slb ~f:(fun ~txn_id buf ~pos ~len ->
      f ~txn_id (decode (Bytes.sub buf pos len)))

let records_of_frames (frames : Log_page.frames list) =
  List.concat_map
    (fun f ->
      let acc = ref [] in
      Log_page.iter_frames f ~f:(fun b ~pos ~len -> acc := decode (Bytes.sub b pos len) :: !acc);
      List.rev !acc)
    frames

(* A page parsed all the way down to its records. *)
let parse_page ~page_bytes ~dir_size image =
  Result.map
    (fun (header, frames) -> (header, records_of_frames [ frames ]))
    (Log_page.parse ~page_bytes ~dir_size image)

let page_records ((_ : Log_page.header), frames) = records_of_frames [ frames ]

let records_for_recovery slt part k =
  Slt.frames_for_recovery slt part (fun r -> k (Result.map records_of_frames r))

(* The list-based replay loop the kernel replaced: apply each record with
   [seq > watermark] in stream order and return the highest sequence
   number seen. *)
let apply_records ~partition ?rel ~watermark records =
  List.fold_left
    (fun max_seq (r : Log_record.t) ->
      if r.Log_record.seq > watermark then begin
        match r.Log_record.op with
        | Log_record.Physical op -> Part_op.apply partition op
        | Log_record.Command cmd ->
            let target =
              match rel with
              | Some rel -> Mrdb_logical.Dispatch.Rel { rel; part = partition }
              | None -> Mrdb_logical.Dispatch.Part partition
            in
            Mrdb_logical.Replay.apply_cmd ~target cmd
      end;
      Stdlib.max max_seq r.Log_record.seq)
    watermark records
