open Mrdb_storage

type t = {
  part : Addr.partition;
  watermark : int;
  snapshot : bytes;
  snapshot_pos : int;
  snapshot_len : int;
}

let make ~part ~watermark ~snapshot =
  { part; watermark; snapshot; snapshot_pos = 0; snapshot_len = Bytes.length snapshot }

let magic = 0x434B5049 (* "CKPI" *)

(* Header: u32 magic | i64 seg | i64 pno | i64 watermark | u32 snapshot_len |
   u32 crc(of snapshot) = 36 bytes, then the snapshot, then zero padding. *)
let header_bytes = 36

let pages_needed ~page_bytes ~snapshot_bytes =
  (header_bytes + snapshot_bytes + page_bytes - 1) / page_bytes

(* Encode into a caller-owned buffer (the checkpoint manager reuses one
   across checkpoints); [snapshot.[pos .. pos+len)] may be the partition's
   live backing buffer — it is only read.  Returns the page-rounded image
   length. *)
let encode_window ~page_bytes ~(part : Addr.partition) ~watermark ~snapshot ~pos ~len b =
  let total = pages_needed ~page_bytes ~snapshot_bytes:len * page_bytes in
  if Bytes.length b < total then
    Mrdb_util.Fatal.misuse "Ckpt_image.encode_into: buffer too small";
  Mrdb_util.Codec.put_u32 b 0 magic;
  Mrdb_util.Codec.put_i64 b 4 (Int64.of_int part.Addr.segment);
  Mrdb_util.Codec.put_i64 b 12 (Int64.of_int part.Addr.partition);
  Mrdb_util.Codec.put_i64 b 20 (Int64.of_int watermark);
  Mrdb_util.Codec.put_u32 b 28 len;
  Bytes.set_int32_le b 32 (Mrdb_util.Checksum.crc32 snapshot ~pos ~len);
  Bytes.blit snapshot pos b header_bytes len;
  Bytes.fill b (header_bytes + len) (total - header_bytes - len) '\000';
  total

let encode_into ~page_bytes ~part ~watermark ~snapshot b =
  encode_window ~page_bytes ~part ~watermark ~snapshot ~pos:0
    ~len:(Bytes.length snapshot) b

let encode ~page_bytes t =
  let b = Bytes.create (pages_needed ~page_bytes ~snapshot_bytes:t.snapshot_len * page_bytes) in
  ignore
    (encode_window ~page_bytes ~part:t.part ~watermark:t.watermark ~snapshot:t.snapshot
       ~pos:t.snapshot_pos ~len:t.snapshot_len b
      : int);
  b

(* The CRC runs in place over the track buffer and the decoded image
   points into it: the snapshot is copied once, by {!to_partition}. *)
let decode b =
  if Bytes.length b < header_bytes then Error "image too small"
  else if Mrdb_util.Codec.get_u32 b 0 <> magic then Error "bad image magic"
  else begin
    let segment = Int64.to_int (Mrdb_util.Codec.get_i64 b 4) in
    let partition = Int64.to_int (Mrdb_util.Codec.get_i64 b 12) in
    let watermark = Int64.to_int (Mrdb_util.Codec.get_i64 b 20) in
    let len = Mrdb_util.Codec.get_u32 b 28 in
    if header_bytes + len > Bytes.length b then Error "truncated image"
    else if
      Bytes.get_int32_le b 32 <> Mrdb_util.Checksum.crc32 b ~pos:header_bytes ~len
    then Error "image crc mismatch"
    else
      Ok
        {
          part = { Addr.segment; partition };
          watermark;
          snapshot = b;
          snapshot_pos = header_bytes;
          snapshot_len = len;
        }
  end

let to_partition t = Partition.of_snapshot ~pos:t.snapshot_pos ~len:t.snapshot_len t.snapshot
