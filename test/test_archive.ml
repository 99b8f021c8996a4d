(* Tests for the archive component (§2.6): tape semantics, taps, and
   recovery from checkpoint-disk media failure. *)

open Mrdb_storage
open Mrdb_core
module Archive = Mrdb_archive.Archive

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* -- tape ------------------------------------------------------------------ *)

let test_tape_append_iter () =
  let tape = Archive.Tape.create () in
  Archive.Tape.append tape (Archive.Tape.Log_page { lsn = 1L; image = Bytes.make 8 'a' });
  Archive.Tape.append tape (Archive.Tape.Log_page { lsn = 2L; image = Bytes.make 8 'b' });
  check int_t "length" 2 (Archive.Tape.length tape);
  check int_t "bytes" 16 (Archive.Tape.bytes_written tape);
  let order = ref [] in
  Archive.Tape.iter
    (fun r ->
      match r with
      | Archive.Tape.Log_page { lsn; _ } -> order := lsn :: !order
      | Archive.Tape.Ckpt_image _ -> ())
    tape;
  check (Alcotest.list Alcotest.int64) "oldest first" [ 1L; 2L ] (List.rev !order)

let test_latest_image_and_log_tail () =
  let a = Archive.create () in
  let part : Addr.partition = { Addr.segment = 1; partition = 0 } in
  let p = Partition.create ~size:512 ~segment:1 ~partition:0 in
  let img w = Mrdb_ckpt.Ckpt_image.make ~part ~watermark:w ~snapshot:(Partition.snapshot p) in
  Archive.on_ckpt_image a (img 5) ~page_bytes:512;
  Archive.on_ckpt_image a (img 9) ~page_bytes:512;
  (match Archive.latest_image a part with
  | Some i -> check int_t "newest image wins" 9 i.Mrdb_ckpt.Ckpt_image.watermark
  | None -> Alcotest.fail "image missing");
  check bool_t "unknown partition" true
    (Archive.latest_image a { Addr.segment = 9; partition = 9 } = None);
  Archive.on_log_page a ~lsn:10L (Bytes.make 16 'x');
  Archive.on_log_page a ~lsn:11L (Bytes.make 16 'y');
  Archive.on_log_page a ~lsn:12L (Bytes.make 16 'z');
  check (Alcotest.list Alcotest.int64) "pages after lsn" [ 11L; 12L ]
    (List.map fst (Archive.log_pages_after a ~lsn:10L))

(* -- end-to-end media failure ------------------------------------------------ *)

let archive_config = { Config.small with Config.archive = true }

let schema = Schema.of_list [ ("k", Schema.Int); ("v", Schema.Int) ]

let kv_of db =
  Db.with_txn db (fun tx ->
      Db.scan db tx ~rel:"t"
      |> List.map (fun (_, tup) ->
             (Schema.to_int (Tuple.field tup 0), Schema.to_int (Tuple.field tup 1)))
      |> List.sort compare)

let populate db n =
  Db.create_relation db ~name:"t" ~schema;
  Db.with_txn db (fun tx ->
      for i = 1 to n do
        ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.int (i * 7) |])
      done)

let test_archive_taps_collect () =
  let db = Db.create ~config:archive_config () in
  populate db 40;
  Db.checkpoint_all db;
  Db.quiesce db;
  let a = Option.get (Db.archiver db) in
  check bool_t "log pages archived" true
    (Archive.log_pages_after a ~lsn:(-1L) <> []);
  check bool_t "images archived" true (Archive.Tape.length (Archive.tape a) > 0)

let test_media_failure_recovery () =
  let db = Db.create ~config:archive_config () in
  populate db 40;
  Db.checkpoint_all db;
  (* Post-checkpoint commits so the log matters too. *)
  Db.with_txn db (fun tx ->
      for i = 41 to 55 do
        ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.int (i * 7) |])
      done);
  Db.quiesce db;
  let before = kv_of db in
  Db.crash db;
  (* The checkpoint disk dies in the same incident. *)
  Db.fail_checkpoint_disk db;
  Db.recover db;
  check bool_t "recovered entirely from archive + log" true (kv_of db = before);
  check bool_t "archive fallback exercised" true
    (Mrdb_sim.Trace.count (Db.trace db) "media_recoveries" > 0)

let test_media_failure_without_archive_fails_loudly () =
  let db = Db.create ~config:Config.small () in
  populate db 20;
  Db.checkpoint_all db;
  Db.quiesce db;
  Db.crash db;
  Db.fail_checkpoint_disk db;
  check bool_t "recovery fails loudly" true
    (try
       Db.recover db;
       ignore (kv_of db);
       false
     with Mrdb_util.Fatal.Invariant _ -> true)

let test_media_failure_then_normal_operation () =
  (* After archive-based recovery, the system keeps running, re-checkpoints
     onto the replacement disk, and survives a further ordinary crash. *)
  let db = Db.create ~config:archive_config () in
  populate db 30;
  Db.checkpoint_all db;
  Db.quiesce db;
  Db.crash db;
  Db.fail_checkpoint_disk db;
  Db.recover db;
  Db.with_txn db (fun tx ->
      for i = 31 to 40 do
        ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.int (i * 7) |])
      done);
  Db.checkpoint_all db;
  Db.quiesce db;
  let before = kv_of db in
  Db.crash db;
  Db.recover db;
  check bool_t "healthy after media incident" true (kv_of db = before);
  check int_t "40 rows" 40 (List.length before)

let () =
  Alcotest.run "mrdb_archive"
    [
      ( "tape",
        [
          Alcotest.test_case "append + iter" `Quick test_tape_append_iter;
          Alcotest.test_case "latest image + log tail" `Quick test_latest_image_and_log_tail;
        ] );
      ( "media failure",
        [
          Alcotest.test_case "taps collect" `Quick test_archive_taps_collect;
          Alcotest.test_case "recovery from archive" `Quick test_media_failure_recovery;
          Alcotest.test_case "fails loudly without archive" `Quick
            test_media_failure_without_archive_fails_loudly;
          Alcotest.test_case "normal operation afterwards" `Quick
            test_media_failure_then_normal_operation;
        ] );
    ]
