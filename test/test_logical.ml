(* Tests for the logical/command REDO codec (lib/logical): the command
   wire format and its tag-byte fold into Log_record, the replay dispatch
   table, relation-target vs partition-target replay equivalence (the
   restart path and the standby audit must produce byte-identical
   partitions), and the full stack under [Config.redo_codec]: command
   emission, crash recovery of a logical-coded run, and the byte win over
   the physical codec. *)

open Mrdb_storage
open Mrdb_core
module Cmd_op = Mrdb_logical.Cmd_op
module Dispatch = Mrdb_logical.Dispatch
module Replay = Mrdb_logical.Replay
module Log_record = Mrdb_wal.Log_record
module Trace = Mrdb_sim.Trace

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let raises_invariant what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Fatal.Invariant" what
  | exception Mrdb_util.Fatal.Invariant _ -> ()

let raises_misuse what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* -- Cmd_op wire format ----------------------------------------------------- *)

let encode_cmd cmd =
  let enc = Mrdb_util.Codec.Enc.create () in
  Cmd_op.encode enc cmd;
  Mrdb_util.Codec.Enc.to_bytes enc

let decode_cmd ~op_id b =
  Cmd_op.decode ~op_id
    (Mrdb_util.Codec.Dec.of_bytes b)
    ~stop:(Bytes.length b)

let test_cmd_roundtrip () =
  let cases =
    [
      Cmd_op.make ~op_id:1 ~rel_id:0 ~key:0 ~args:[||];
      Cmd_op.make ~op_id:8 ~rel_id:3 ~key:5 ~args:[| -50L |];
      Cmd_op.make ~op_id:3 ~rel_id:200 ~key:1023 ~args:[| 9L; -1_000_000L |];
      Cmd_op.make ~op_id:Cmd_op.max_op_id ~rel_id:1 ~key:1
        ~args:[| Int64.of_int (1 lsl 60); Int64.of_int (-(1 lsl 60)) |];
    ]
  in
  List.iter
    (fun cmd ->
      let b = encode_cmd cmd in
      check int_t "encoded_size matches" (Bytes.length b)
        (Cmd_op.encoded_size cmd);
      let scratch = Bytes.create (Bytes.length b + 7) in
      let fin = Cmd_op.encode_into cmd scratch ~pos:7 in
      check int_t "encode_into advances by encoded_size"
        (7 + Cmd_op.encoded_size cmd) fin;
      check bool_t "encode_into = encode" true
        (Bytes.sub scratch 7 (Bytes.length b) = b);
      check bool_t "roundtrip" true
        (Cmd_op.equal cmd (decode_cmd ~op_id:cmd.Cmd_op.op_id b)))
    cases

let test_cmd_golden_bytes () =
  (* varint 3 | varint 5 | zigzag(-50) = 99 — three single-byte varints. *)
  let cmd = Cmd_op.make ~op_id:8 ~rel_id:3 ~key:5 ~args:[| -50L |] in
  check int_t "three bytes" 3 (Cmd_op.encoded_size cmd);
  check bool_t "golden" true (encode_cmd cmd = Bytes.of_string "\003\005\x63")

let test_cmd_arg_range () =
  check bool_t "small delta representable" true (Cmd_op.arg_representable 100L);
  check bool_t "lower bound -2^61 representable" true
    (Cmd_op.arg_representable (-2305843009213693952L));
  check bool_t "2^61 is not" false (Cmd_op.arg_representable 2305843009213693952L);
  check bool_t "Int64.min_int is not" false (Cmd_op.arg_representable Int64.min_int);
  raises_misuse "encoding an unrepresentable arg" (fun () ->
      encode_cmd { (Cmd_op.make ~op_id:3 ~rel_id:0 ~key:0 ~args:[||]) with
                   Cmd_op.args = [| Int64.max_int |] });
  raises_misuse "op id 0" (fun () ->
      Cmd_op.make ~op_id:0 ~rel_id:0 ~key:0 ~args:[||]);
  raises_misuse "op id past the tag byte" (fun () ->
      Cmd_op.make ~op_id:(Cmd_op.max_op_id + 1) ~rel_id:0 ~key:0 ~args:[||])

(* -- Log_record tag fold ---------------------------------------------------- *)

let mk_cmd_record ~seq cmd =
  Log_record.make_cmd ~bin_index:4 ~txn_id:9 ~seq ~cmd

let test_record_tag_fold () =
  let phys =
    Log_record.make ~tag:Log_record.Relation_op ~bin_index:4 ~txn_id:9 ~seq:2
      ~op:(Part_op.Update { slot = 1; data = Bytes.of_string "xy" })
  in
  check int_t "physical tag byte unchanged" 0
    (Char.code (Bytes.get (Redo_oracle.encode phys) 0));
  let cmd = Cmd_op.make ~op_id:9 ~rel_id:3 ~key:5 ~args:[| 7L |] in
  let r = mk_cmd_record ~seq:6 cmd in
  let b = Redo_oracle.encode r in
  (* op 9 rides the tag byte: 16 + 9.  The shared header keeps the peek
     scans family-oblivious. *)
  check int_t "command tag byte folds the op id" 25 (Char.code (Bytes.get b 0));
  check int_t "encoded_size" (Bytes.length b) (Log_record.encoded_size r);
  check int_t "peek_bin_index" 4 (Log_record.peek_bin_index b ~pos:0);
  check int_t "peek_seq" 6 (Log_record.peek_seq b ~pos:0);
  check bool_t "roundtrip" true (Log_record.equal r (Redo_oracle.decode b));
  check bool_t "command_at roundtrip" true
    (Cmd_op.equal cmd (Log_record.command_at b ~pos:0 ~len:(Bytes.length b)))

(* Malformed input raises the structured form, never a bare [Failure],
   in the in-place readers restart runs on log-page bytes. *)
let test_malformed_decode_raises_structured () =
  raises_invariant "reserved tag byte" (fun () ->
      Log_record.body_at (Bytes.of_string "\003\001\001\001") ~pos:0);
  (* An insert the empty partition would accept, but for the byte after
     its image. *)
  let phys =
    Log_record.make ~tag:Log_record.Relation_op ~bin_index:1 ~txn_id:1 ~seq:1
      ~op:(Part_op.Insert { slot = 0; data = Bytes.of_string "abc" })
  in
  let b = Bytes.cat (Redo_oracle.encode phys) (Bytes.make 1 '\000') in
  let p = Partition.create ~size:256 ~segment:0 ~partition:0 in
  raises_invariant "trailing bytes" (fun () ->
      Part_op.apply_encoded p b ~pos:(Log_record.body_at b ~pos:0)
        ~stop:(Bytes.length b));
  let cmd = Cmd_op.make ~op_id:3 ~rel_id:1 ~key:1 ~args:[| 1_000_000L |] in
  let cb = Redo_oracle.encode (mk_cmd_record ~seq:1 cmd) in
  (* A trailing byte that opens one more argument varint, closed only past
     the frame end. *)
  let trailing = Bytes.cat cb (Bytes.of_string "\x80\x01") in
  raises_invariant "trailing command byte" (fun () ->
      ignore (Log_record.command_at trailing ~pos:0 ~len:(Bytes.length cb + 1)));
  (* A multi-byte zigzag varint cut by the frame end: the argument parse
     overruns [stop] and must be reported, not read into the next frame. *)
  raises_invariant "argument varint straddling the frame end" (fun () ->
      ignore (Log_record.command_at cb ~pos:0 ~len:(Bytes.length cb - 1)))

(* -- dispatch table --------------------------------------------------------- *)

let test_dispatch_table () =
  let t = Dispatch.create () in
  check bool_t "empty" true (Dispatch.registered t = []);
  let hits = ref 0 in
  Dispatch.register t ~op_id:7 (fun ?alloc:_ _ ~key:_ ~args:_ -> incr hits);
  check bool_t "registered" true (Dispatch.registered t = [ 7 ]);
  (match Dispatch.find t 7 with
  | Some h ->
      h (Dispatch.Part (Partition.create ~size:256 ~segment:0 ~partition:0))
        ~key:0 ~args:[||]
  | None -> Alcotest.fail "handler lost");
  check int_t "handler ran" 1 !hits;
  raises_misuse "write-once per op" (fun () ->
      Dispatch.register t ~op_id:7 (fun ?alloc:_ _ ~key:_ ~args:_ -> ()));
  check bool_t "unregistered op" true (Dispatch.find t 8 = None);
  raises_invariant "unregistered op in the shared table" (fun () ->
      Replay.apply_cmd
        ~target:(Dispatch.Part (Partition.create ~size:256 ~segment:0 ~partition:0))
        (Cmd_op.make ~op_id:200 ~rel_id:0 ~key:0 ~args:[||]))

(* -- relation-target vs partition-target replay ----------------------------- *)

let int_schema =
  Schema.of_list [ ("a", Schema.Int); ("b", Schema.Int); ("c", Schema.Int) ]

let test_rel_part_equivalence () =
  (* The same command stream applied through the relation layer (restart
     recovery) and as raw cell patches (standby audit) must produce
     byte-identical partitions. *)
  let seg = Segment.create ~id:7 ~partition_bytes:2048 in
  let part_rel = Segment.allocate_partition seg in
  let rel = Relation.create ~id:3 ~name:"t" ~schema:int_schema ~segment:seg in
  let part_raw =
    Partition.create ~size:2048 ~segment:7
      ~partition:(Partition.partition_id part_rel)
  in
  let cmds =
    [
      Cmd_op.make ~op_id:Replay.op_insert_ints ~rel_id:3 ~key:0
        ~args:[| 10L; 20L; 30L |];
      Cmd_op.make ~op_id:Replay.op_insert_ints ~rel_id:3 ~key:1
        ~args:[| 11L; 21L; 31L |];
      Cmd_op.make ~op_id:Replay.op_insert_ints ~rel_id:3 ~key:2
        ~args:[| 12L; 22L; 32L |];
      (* col-folded add on column 1, generic add on column 2, set col 0 *)
      Cmd_op.make ~op_id:(Replay.op_add_col0 + 1) ~rel_id:3 ~key:1
        ~args:[| -7L |];
      Cmd_op.make ~op_id:Replay.op_add_i64 ~rel_id:3 ~key:2 ~args:[| 2L; 100L |];
      Cmd_op.make ~op_id:(Replay.op_set_col0 + 0) ~rel_id:3 ~key:0
        ~args:[| 999L |];
      Cmd_op.make ~op_id:Replay.op_delete ~rel_id:3 ~key:1 ~args:[||];
      (* reuse the freed slot *)
      Cmd_op.make ~op_id:Replay.op_insert_ints ~rel_id:3 ~key:1
        ~args:[| 5L; 6L; 7L |];
    ]
  in
  List.iter
    (fun cmd ->
      Replay.apply_cmd ~target:(Dispatch.Rel { rel; part = part_rel }) cmd;
      Replay.apply_cmd ~target:(Dispatch.Part part_raw) cmd)
    cmds;
  check bool_t "byte-identical partitions" true
    (Partition.snapshot part_rel = Partition.snapshot part_raw);
  check bool_t "relation reads the final state" true
    (Relation.read rel (Addr.make ~segment:7 ~partition:0 ~slot:2)
    = Some [| Schema.I 12L; Schema.I 22L; Schema.I 132L |]);
  (* Guard rails: commands for another relation or dead slots are
     structural invariants, not silent corruption. *)
  raises_invariant "relation id mismatch at the Rel target" (fun () ->
      Replay.apply_cmd
        ~target:(Dispatch.Rel { rel; part = part_rel })
        (Cmd_op.make ~op_id:Replay.op_delete ~rel_id:4 ~key:0 ~args:[||]));
  raises_invariant "add to a dead slot" (fun () ->
      Replay.apply_cmd ~target:(Dispatch.Part part_raw)
        (Cmd_op.make ~op_id:(Replay.op_add_col0 + 0) ~rel_id:3 ~key:9
           ~args:[| 1L |]))

(* -- full stack under Config.redo_codec ------------------------------------- *)

let kv_schema = Schema.of_list [ ("k", Schema.Int); ("v", Schema.Int) ]

(* A debit/credit-flavoured workload: [rows] inserts, then [updates]
   single-cell balance updates spread over them.  Returns the scan. *)
let run_workload db ~rows ~updates =
  Db.create_relation db ~name:"t" ~schema:kv_schema;
  let addrs =
    Db.with_txn db (fun tx ->
        List.init rows (fun i ->
            Db.insert db tx ~rel:"t" [| Schema.int i; Schema.int 0 |]))
  in
  let addrs = Array.of_list addrs in
  for i = 0 to updates - 1 do
    Db.with_txn db (fun tx ->
        let a = addrs.(i mod rows) in
        let a' =
          Db.update_field db tx ~rel:"t" a ~column:"v"
            (Schema.int ((i * 37 mod 201) - 100))
        in
        addrs.(i mod rows) <- a')
  done;
  Db.with_txn db (fun tx -> Db.scan db tx ~rel:"t")
  |> List.map (fun (_, tup) ->
         (Schema.to_int (Tuple.field tup 0), Schema.to_int (Tuple.field tup 1)))
  |> List.sort compare

let test_logical_crash_recover () =
  let config = { Config.small with Config.redo_codec = Config.Logical } in
  let db = Db.create ~config () in
  let before = run_workload db ~rows:16 ~updates:120 in
  check bool_t "command records were emitted" true
    (Trace.count (Db.trace db) "codec_cmd_records" > 0);
  (* Deletes and catalog/index records stay physical: a logical-coded run
     recovers across a mixed-codec chain. *)
  Db.with_txn db (fun tx ->
      match Db.scan db tx ~rel:"t" with
      | (a, _) :: _ -> Db.delete db tx ~rel:"t" a
      | [] -> Alcotest.fail "empty scan");
  let committed =
    Db.with_txn db (fun tx -> Db.scan db tx ~rel:"t")
    |> List.map (fun (_, tup) ->
           (Schema.to_int (Tuple.field tup 0), Schema.to_int (Tuple.field tup 1)))
    |> List.sort compare
  in
  Db.crash db;
  Db.recover db;
  Db.recover_everything db;
  let after =
    Db.with_txn db (fun tx -> Db.scan db tx ~rel:"t")
    |> List.map (fun (_, tup) ->
           (Schema.to_int (Tuple.field tup 0), Schema.to_int (Tuple.field tup 1)))
    |> List.sort compare
  in
  check
    Alcotest.(list (pair int int))
    "recovered exactly the committed state" committed after;
  check int_t "nothing lost vs pre-delete" (List.length before - 1)
    (List.length after)

let test_logical_beats_physical_bytes () =
  let bytes_under codec =
    let config = { Config.small with Config.redo_codec = codec } in
    let db = Db.create ~config () in
    ignore (run_workload db ~rows:16 ~updates:120);
    Trace.count (Db.trace db) "codec_log_bytes"
  in
  let phys = bytes_under Config.Physical in
  let log = bytes_under Config.Logical in
  check bool_t "physical bytes counted" true (phys > 0);
  check bool_t
    (Printf.sprintf "logical (%d B) well under physical (%d B)" log phys)
    true (log * 2 < phys)

let test_physical_default_emits_no_commands () =
  let db = Db.create ~config:Config.small () in
  ignore (run_workload db ~rows:8 ~updates:50);
  check int_t "no command records under the default codec" 0
    (Trace.count (Db.trace db) "codec_cmd_records");
  check bool_t "byte accounting still on" true
    (Trace.count (Db.trace db) "codec_log_bytes" > 0)

let () =
  Alcotest.run "logical"
    [
      ( "cmd_op",
        [
          Alcotest.test_case "roundtrip" `Quick test_cmd_roundtrip;
          Alcotest.test_case "golden bytes" `Quick test_cmd_golden_bytes;
          Alcotest.test_case "argument range" `Quick test_cmd_arg_range;
        ] );
      ( "log_record",
        [
          Alcotest.test_case "tag fold" `Quick test_record_tag_fold;
          Alcotest.test_case "malformed input raises structured" `Quick
            test_malformed_decode_raises_structured;
        ] );
      ( "replay",
        [
          Alcotest.test_case "dispatch table" `Quick test_dispatch_table;
          Alcotest.test_case "relation vs partition targets" `Quick
            test_rel_part_equivalence;
        ] );
      ( "full_stack",
        [
          Alcotest.test_case "logical run crash-recovers" `Quick
            test_logical_crash_recover;
          Alcotest.test_case "logical beats physical on bytes" `Quick
            test_logical_beats_physical_bytes;
          Alcotest.test_case "physical default emits no commands" `Quick
            test_physical_default_emits_no_commands;
        ] );
    ]
