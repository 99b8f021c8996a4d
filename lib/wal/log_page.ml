open Mrdb_storage

let magic = 0x4C505047 (* "LPPG" *)

type header = {
  lsn : int64;
  part : Addr.partition;
  prev_lsn : int64;
  dir : int64 array;
  nrecords : int;
  used : int;
}

(* Fixed header: u32 magic | i64 lsn | i64 seg | i64 pno | i64 prev |
   u32 nrecords | u32 used | u32 dir_len = 48 bytes, then dir_size × i64. *)
let fixed_header = 48

let payload_off ~dir_size = fixed_header + (8 * dir_size)

let payload_capacity ~page_bytes ~dir_size =
  page_bytes - payload_off ~dir_size - 4 (* trailing crc *)

let prepare_into ~dir_size ~lsn ~(part : Addr.partition) ~prev_lsn ~dir ~used ~nrecords page =
  let page_bytes = Bytes.length page in
  if Array.length dir > dir_size then Mrdb_util.Fatal.misuse "Log_page.build: directory too long";
  if used > payload_capacity ~page_bytes ~dir_size then
    Mrdb_util.Fatal.misuse "Log_page.build: payload too large";
  Bytes.fill page 0 page_bytes '\000';
  Mrdb_util.Codec.put_u32 page 0 magic;
  Mrdb_util.Codec.put_i64 page 4 lsn;
  Mrdb_util.Codec.put_i64 page 12 (Int64.of_int part.Addr.segment);
  Mrdb_util.Codec.put_i64 page 20 (Int64.of_int part.Addr.partition);
  Mrdb_util.Codec.put_i64 page 28 prev_lsn;
  Mrdb_util.Codec.put_u32 page 36 nrecords;
  Mrdb_util.Codec.put_u32 page 40 used;
  Mrdb_util.Codec.put_u32 page 44 (Array.length dir);
  Array.iteri (fun i l -> Mrdb_util.Codec.put_i64 page (fixed_header + (8 * i)) l) dir

let finish page =
  let page_bytes = Bytes.length page in
  let crc = Mrdb_util.Checksum.crc32 page ~pos:0 ~len:(page_bytes - 4) in
  Bytes.set_int32_le page (page_bytes - 4) crc

let build ~page_bytes ~dir_size ~lsn ~(part : Addr.partition) ~prev_lsn ~dir ~payload ~nrecords =
  let page = Bytes.create page_bytes in
  prepare_into ~dir_size ~lsn ~part ~prev_lsn ~dir ~used:(Bytes.length payload)
    ~nrecords page;
  Bytes.blit payload 0 page (payload_off ~dir_size) (Bytes.length payload);
  finish page;
  page

type frames = { buf : bytes; pos : int; len : int }

let iter_frames { buf; pos; len } ~f =
  let stop = pos + len in
  let p = ref pos in
  while !p + 2 <= stop do
    let n = Mrdb_util.Codec.get_u16 buf !p in
    if !p + 2 + n > stop then
      Mrdb_util.Fatal.invariantf ~mod_:"Log_page" "frame of %d bytes at %d overruns payload end %d"
        n !p stop;
    f buf ~pos:(!p + 2) ~len:n;
    p := !p + 2 + n
  done

(* Integrity check only (size + magic + CRC), no decoding: the acceptance
   predicate of checksum-verified duplex reads, so the mirror-fallback
   logic stays below the decode layer. *)
let check ~page_bytes b =
  if Bytes.length b <> page_bytes then Error "wrong page size"
  else if Mrdb_util.Codec.get_u32 b 0 <> magic then Error "bad magic"
  else if
    Bytes.get_int32_le b (page_bytes - 4)
    <> Mrdb_util.Checksum.crc32 b ~pos:0 ~len:(page_bytes - 4)
  then Error "crc mismatch (torn or stale page)"
  else Ok ()

let verify ~page_bytes b = Result.is_ok (check ~page_bytes b)

let decode ~page_bytes ~dir_size b =
  let lsn = Mrdb_util.Codec.get_i64 b 4 in
  let part =
    {
      Addr.segment = Int64.to_int (Mrdb_util.Codec.get_i64 b 12);
      partition = Int64.to_int (Mrdb_util.Codec.get_i64 b 20);
    }
  in
  let prev_lsn = Mrdb_util.Codec.get_i64 b 28 in
  let nrecords = Mrdb_util.Codec.get_u32 b 36 in
  let used = Mrdb_util.Codec.get_u32 b 40 in
  let dir_len = Mrdb_util.Codec.get_u32 b 44 in
  if dir_len > dir_size then Error "directory overflow"
  else if used > payload_capacity ~page_bytes ~dir_size then Error "payload overflow"
  else begin
    let dir =
      Array.init dir_len (fun i -> Mrdb_util.Codec.get_i64 b (fixed_header + (8 * i)))
    in
    (* Only the header is decoded: the records stay in the page buffer
       until the replay kernel applies them in place. *)
    Ok
      ( { lsn; part; prev_lsn; dir; nrecords; used },
        { buf = b; pos = payload_off ~dir_size; len = used } )
  end

let parse ~page_bytes ~dir_size b =
  match check ~page_bytes b with
  | Error _ as e -> e
  | Ok () -> decode ~page_bytes ~dir_size b
