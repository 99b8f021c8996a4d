(* Tests for the storage substrate: addresses, schemas/tuples, slotted
   partitions (including REDO-replay equivalence), segments, relations and
   the self-hosting catalog. *)

open Mrdb_storage

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* -- Addr ------------------------------------------------------------------ *)

let test_addr_roundtrip () =
  let a = Addr.make ~segment:3 ~partition:7 ~slot:42 in
  let enc = Mrdb_util.Codec.Enc.create () in
  Addr.encode enc a;
  let a' = Addr.decode (Mrdb_util.Codec.Dec.of_bytes (Mrdb_util.Codec.Enc.to_bytes enc)) in
  check bool_t "roundtrip" true (Addr.equal a a')

let test_addr_ordering () =
  let a = Addr.make ~segment:1 ~partition:2 ~slot:3 in
  let b = Addr.make ~segment:1 ~partition:2 ~slot:4 in
  let c = Addr.make ~segment:2 ~partition:0 ~slot:0 in
  check bool_t "slot order" true (Addr.compare a b < 0);
  check bool_t "segment dominates" true (Addr.compare b c < 0);
  check bool_t "reflexive" true (Addr.compare a a = 0)

let test_addr_null () =
  check bool_t "null is null" true (Addr.is_null Addr.null);
  check bool_t "real addr is not" false
    (Addr.is_null (Addr.make ~segment:0 ~partition:0 ~slot:0))

let test_addr_partition_of () =
  let a = Addr.make ~segment:5 ~partition:6 ~slot:7 in
  let p = Addr.partition_of a in
  check int_t "segment" 5 p.Addr.segment;
  check int_t "partition" 6 p.Addr.partition;
  check bool_t "in_partition inverse" true
    (Addr.equal a (Addr.in_partition p ~slot:7))

(* -- Schema / Tuple ---------------------------------------------------------- *)

let bank_schema =
  Schema.of_list [ ("id", Schema.Int); ("name", Schema.Str); ("balance", Schema.Float) ]

let test_schema_basics () =
  check int_t "arity" 3 (Schema.arity bank_schema);
  check int_t "column_index" 1 (Schema.column_index bank_schema "name");
  check bool_t "column_type" true (Schema.column_type bank_schema 2 = Schema.Float)

let test_schema_rejects_duplicates () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.make: duplicate column x") (fun () ->
      ignore (Schema.of_list [ ("x", Schema.Int); ("x", Schema.Str) ]))

let test_schema_roundtrip () =
  let enc = Mrdb_util.Codec.Enc.create () in
  Schema.encode enc bank_schema;
  let s = Schema.decode (Mrdb_util.Codec.Dec.of_bytes (Mrdb_util.Codec.Enc.to_bytes enc)) in
  check bool_t "equal" true (Schema.equal s bank_schema)

let sample_tuple = [| Schema.int 1; Schema.S "alice"; Schema.F 100.5 |]

let test_tuple_roundtrip () =
  let b = Tuple.encode bank_schema sample_tuple in
  check bool_t "roundtrip" true (Tuple.equal sample_tuple (Tuple.decode bank_schema b))

let test_tuple_type_mismatch () =
  Alcotest.check_raises "wrong type"
    (Invalid_argument "Tuple.validate: type mismatch at column 1") (fun () ->
      ignore (Tuple.encode bank_schema [| Schema.int 1; Schema.int 2; Schema.F 0.0 |]))

let test_tuple_arity_mismatch () =
  Alcotest.check_raises "wrong arity" (Invalid_argument "Tuple.validate: arity mismatch")
    (fun () -> ignore (Tuple.encode bank_schema [| Schema.int 1 |]))

let test_tuple_set_field () =
  let t = Tuple.set_field bank_schema sample_tuple 2 (Schema.F 7.0) in
  check bool_t "updated" true (Schema.equal_value (Tuple.field t 2) (Schema.F 7.0));
  check bool_t "original untouched" true
    (Schema.equal_value (Tuple.field sample_tuple 2) (Schema.F 100.5))

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Schema.I (Int64.of_int i)) int;
        map (fun f -> Schema.F f) (float_bound_exclusive 1e9);
        map (fun s -> Schema.S s) (string_size (int_range 0 40));
      ])

let prop_tuple_roundtrip =
  QCheck.Test.make ~name:"tuple roundtrip (random schemas)" ~count:200
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 8) (oneofl [ Schema.Int; Schema.Float; Schema.Str ])))
    (fun types ->
      let schema =
        Schema.of_list (List.mapi (fun i ty -> (Printf.sprintf "c%d" i, ty)) types)
      in
      let rng = Random.State.make [| Hashtbl.hash types |] in
      let value_of = function
        | Schema.Int -> Schema.I (Random.State.int64 rng 1000000L)
        | Schema.Float -> Schema.F (Random.State.float rng 1e6)
        | Schema.Str -> Schema.S (String.init (Random.State.int rng 20) (fun _ -> 'a'))
      in
      let tuple = Array.of_list (List.map value_of types) in
      Tuple.equal tuple (Tuple.decode schema (Tuple.encode schema tuple)))

let prop_value_roundtrip =
  QCheck.Test.make ~name:"single value roundtrip" ~count:300 (QCheck.make value_gen)
    (fun v ->
      let enc = Mrdb_util.Codec.Enc.create () in
      Tuple.encode_value enc v;
      Schema.equal_value v
        (Tuple.decode_value (Mrdb_util.Codec.Dec.of_bytes (Mrdb_util.Codec.Enc.to_bytes enc))))

(* -- Partition ---------------------------------------------------------------- *)

let mk_part () = Partition.create ~size:2048 ~segment:1 ~partition:0

let test_partition_insert_read () =
  let p = mk_part () in
  let slot = Option.get (Partition.insert p (Bytes.of_string "hello")) in
  check Alcotest.string "read back" "hello"
    (Bytes.to_string (Partition.read_exn p ~slot));
  check int_t "live" 1 (Partition.live_entities p)

let test_partition_slots_deterministic () =
  let p = mk_part () in
  let s0 = Option.get (Partition.insert p (Bytes.of_string "a")) in
  let s1 = Option.get (Partition.insert p (Bytes.of_string "b")) in
  let s2 = Option.get (Partition.insert p (Bytes.of_string "c")) in
  check (Alcotest.list int_t) "sequential slots" [ 0; 1; 2 ] [ s0; s1; s2 ];
  Partition.delete_at p ~slot:1;
  let s = Option.get (Partition.insert p (Bytes.of_string "d")) in
  check int_t "lowest free slot reused" 1 s

let test_partition_delete () =
  let p = mk_part () in
  let slot = Option.get (Partition.insert p (Bytes.of_string "x")) in
  Partition.delete_at p ~slot;
  check bool_t "gone" true (Partition.read p ~slot = None);
  Alcotest.check_raises "double delete"
    (Mrdb_util.Fatal.Invariant { mod_ = "Partition"; what = "delete_at: slot 0 not live" })
    (fun () -> Partition.delete_at p ~slot)

let test_partition_update_in_place_and_grow () =
  let p = mk_part () in
  let slot = Option.get (Partition.insert p (Bytes.of_string "abcdef")) in
  Partition.update_at p ~slot (Bytes.of_string "xyz") ~pos:0 ~len:3;
  check Alcotest.string "shrunk" "xyz" (Bytes.to_string (Partition.read_exn p ~slot));
  Partition.update_at p ~slot (Bytes.of_string (String.make 100 'q')) ~pos:0 ~len:100;
  check int_t "grown" 100 (Bytes.length (Partition.read_exn p ~slot))

let test_partition_fills_up () =
  let p = mk_part () in
  let payload = Bytes.make 100 'p' in
  let inserted = ref 0 in
  (try
     while Partition.insert p payload <> None do
       incr inserted
     done
   with _ -> ());
  (* 2048 bytes - 24 header, each entity 100 data + 8 slot entry. *)
  check bool_t "filled a plausible count" true (!inserted >= 16 && !inserted <= 20);
  check bool_t "rejects when full" true (Partition.insert p payload = None)

let test_partition_compaction_reclaims () =
  let p = mk_part () in
  let slots =
    List.init 15 (fun _ -> Option.get (Partition.insert p (Bytes.make 120 'a')))
  in
  (* Free every other entity; a 1000-byte insert now only fits after
     compaction. *)
  List.iteri (fun i slot -> if i mod 2 = 0 then Partition.delete_at p ~slot) slots;
  let big = Bytes.make 700 'B' in
  match Partition.insert p big with
  | Some slot ->
      check Alcotest.string "readable after compaction" (Bytes.to_string big)
        (Bytes.to_string (Partition.read_exn p ~slot));
      (* Survivors intact. *)
      List.iteri
        (fun i s ->
          if i mod 2 = 1 then
            check Alcotest.string "survivor intact" (String.make 120 'a')
              (Bytes.to_string (Partition.read_exn p ~slot:s)))
        slots
  | None -> Alcotest.fail "compaction should have made room"

let test_partition_snapshot_roundtrip () =
  let p = mk_part () in
  let _ = Partition.insert p (Bytes.of_string "one") in
  let s1 = Option.get (Partition.insert p (Bytes.of_string "two")) in
  Partition.delete_at p ~slot:s1;
  let img = Partition.snapshot p in
  let p' = Partition.of_snapshot img in
  check bool_t "equal contents" true (Partition.equal_contents p p');
  check int_t "live" 1 (Partition.live_entities p')

let test_partition_snapshot_rejects_garbage () =
  Alcotest.check_raises "bad magic"
    (Mrdb_util.Fatal.Invariant { mod_ = "Partition"; what = "of_snapshot: bad magic" })
    (fun () -> ignore (Partition.of_snapshot (Bytes.make 512 'Z')))

let test_partition_update_failure_preserves_entity () =
  let p = Partition.create ~size:256 ~segment:0 ~partition:0 in
  let slot = Option.get (Partition.insert p (Bytes.of_string "keepme")) in
  (try Partition.update_at p ~slot (Bytes.make 10_000 'x') ~pos:0 ~len:10_000
   with Partition.No_space _ -> ());
  check Alcotest.string "old value intact" "keepme"
    (Bytes.to_string (Partition.read_exn p ~slot))

(* REDO-replay equivalence: random op sequences applied live, then replayed
   against the initial snapshot, must produce equal contents. *)
let prop_partition_replay_equivalence =
  QCheck.Test.make ~name:"partition replay reproduces state" ~count:100
    QCheck.(make Gen.(list_size (int_range 0 120) (pair (int_bound 2) (int_range 1 60))))
    (fun raw_ops ->
      let live = Partition.create ~size:8192 ~segment:2 ~partition:5 in
      let base = Partition.snapshot live in
      let log = ref [] in
      let seq = ref 0 in
      List.iter
        (fun (kind, size) ->
          incr seq;
          let payload = Bytes.make size (Char.chr (65 + (!seq mod 26))) in
          match kind with
          | 0 -> (
              match Partition.insert live payload with
              | Some slot -> log := Part_op.Insert { slot; data = payload } :: !log
              | None -> ())
          | 1 ->
              (* Update the lowest live slot if any. *)
              let target = ref None in
              (try
                 Partition.iter
                   (fun slot _ ->
                     target := Some slot;
                     raise Exit)
                   live
               with Exit -> ());
              Option.iter
                (fun slot ->
                  Partition.update_at live ~slot payload ~pos:0 ~len:(Bytes.length payload);
                  log := Part_op.Update { slot; data = payload } :: !log)
                !target
          | _ ->
              let target = ref None in
              (try
                 Partition.iter
                   (fun slot _ ->
                     target := Some slot;
                     raise Exit)
                   live
               with Exit -> ());
              Option.iter
                (fun slot ->
                  Partition.delete_at live ~slot;
                  log := Part_op.Delete { slot } :: !log)
                !target)
        raw_ops;
      let recovered = Partition.of_snapshot base in
      List.iter (Part_op.apply recovered) (List.rev !log);
      Partition.equal_contents live recovered)

(* Model check of the partition's volatile directory summaries (the
   free-slot bound and the live-length sum).  The oracle is the plain
   O(slots) directory scan: after every step of a random sequence of
   inserts, replays, shrinking and growing updates, deletes, compactions
   and snapshot round trips, [insert] must return the lowest free slot,
   [free_space] must match the scan, and an operation must be refused
   exactly when the scan says it cannot fit. *)
let oracle_lowest_free p =
  let n = Partition.slot_count p in
  let rec go slot = if slot >= n || not (Partition.is_live p ~slot) then slot else go (slot + 1) in
  go 0

(* Bytes left for entity data with [nslots] directory entries, by scan. *)
let oracle_room p ~nslots =
  Partition.size p - Partition.header_bytes
  - (nslots * Partition.slot_entry_bytes)
  - Partition.fold (fun acc _ b -> acc + Bytes.length b) 0 p

let prop_partition_directory_model =
  QCheck.Test.make ~name:"partition slot choice and free space match a directory scan"
    ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 200)
        (triple (int_bound 7) (int_bound 1000) (int_range 1 90)))
    (fun ops ->
      let p = ref (Partition.create ~size:1024 ~segment:3 ~partition:1) in
      let stamp = ref 0 in
      let payload len =
        incr stamp;
        Bytes.make len (Char.chr (97 + (!stamp mod 26)))
      in
      let pick_live k =
        match List.rev (Partition.fold (fun acc slot _ -> slot :: acc) [] !p) with
        | [] -> None
        | live -> Some (List.nth live (k mod List.length live))
      in
      let refused_iff fits f =
        match f () with () -> fits | exception Partition.No_space _ -> not fits
      in
      List.for_all
        (fun (kind, k, len) ->
          (* The shrinker may step outside the generator's ranges. *)
          let k = abs k and len = max 1 len in
          let n = Partition.slot_count !p in
          let outcome_ok =
            match kind with
            | 0 | 1 ->
                let lowest = oracle_lowest_free !p in
                let fits = oracle_room !p ~nslots:(max n (lowest + 1)) >= len in
                Partition.insert !p (payload len) = if fits then Some lowest else None
            | 2 ->
                let slot = k mod (n + 4) in
                Partition.is_live !p ~slot
                || refused_iff
                     (oracle_room !p ~nslots:(max n (slot + 1)) >= len)
                     (fun () -> Partition.insert_at !p ~slot (payload len) ~pos:0 ~len)
            | 3 | 4 -> (
                match pick_live k with
                | None -> true
                | Some slot ->
                    let old_len = Bytes.length (Partition.read_exn !p ~slot) in
                    let len = if kind = 3 then 1 + (len mod old_len) else old_len + len in
                    refused_iff
                      (len <= old_len || oracle_room !p ~nslots:n + old_len >= len)
                      (fun () -> Partition.update_at !p ~slot (payload len) ~pos:0 ~len))
            | 5 ->
                Option.iter (fun slot -> Partition.delete_at !p ~slot) (pick_live k);
                true
            | 6 ->
                Partition.compact !p;
                true
            | _ ->
                p := Partition.of_snapshot (Partition.snapshot !p);
                true
          in
          outcome_ok
          && Partition.free_space !p = oracle_room !p ~nslots:(Partition.slot_count !p))
        ops)

(* -- Part_op -------------------------------------------------------------------- *)

let test_part_op_roundtrip () =
  let ops =
    [
      Part_op.Insert { slot = 3; data = Bytes.of_string "abc" };
      Part_op.Update { slot = 0; data = Bytes.empty };
      Part_op.Delete { slot = 99 };
    ]
  in
  List.iter
    (fun op ->
      let enc = Mrdb_util.Codec.Enc.create () in
      Part_op.encode enc op;
      let op' = Part_op.decode (Mrdb_util.Codec.Dec.of_bytes (Mrdb_util.Codec.Enc.to_bytes enc)) in
      check bool_t "roundtrip" true (Part_op.equal op op'))
    ops

let test_part_op_undo () =
  let p = mk_part () in
  let slot = Option.get (Partition.insert p (Bytes.of_string "before")) in
  let before = Partition.read_exn p ~slot in
  let redo = Part_op.Update { slot; data = Bytes.of_string "after" } in
  let undo = Part_op.undo_of ~before:(Some before) redo in
  Part_op.apply p redo;
  check Alcotest.string "applied" "after" (Bytes.to_string (Partition.read_exn p ~slot));
  Part_op.apply p undo;
  check Alcotest.string "undone" "before" (Bytes.to_string (Partition.read_exn p ~slot))

let test_part_op_undo_shape_errors () =
  Alcotest.check_raises "insert with before"
    (Invalid_argument "Part_op.undo_of: insert with a before-image") (fun () ->
      ignore
        (Part_op.undo_of ~before:(Some Bytes.empty)
           (Part_op.Insert { slot = 0; data = Bytes.empty })));
  Alcotest.check_raises "delete without before"
    (Invalid_argument "Part_op.undo_of: update/delete without a before-image")
    (fun () -> ignore (Part_op.undo_of ~before:None (Part_op.Delete { slot = 0 })))

(* -- Segment ---------------------------------------------------------------------- *)

let test_segment_allocation () =
  let s = Segment.create ~id:4 ~partition_bytes:1024 in
  let p0 = Segment.allocate_partition s in
  let p1 = Segment.allocate_partition s in
  check int_t "p0 number" 0 (Partition.partition_id p0);
  check int_t "p1 number" 1 (Partition.partition_id p1);
  check int_t "count" 2 (Segment.partition_count s)

let test_segment_insert_spills_to_new_partition () =
  let s = Segment.create ~id:4 ~partition_bytes:512 in
  let payload = Bytes.make 120 'e' in
  let addrs = List.init 12 (fun _ -> Option.get (Segment.insert_entity s payload)) in
  check bool_t "several partitions used" true (Segment.partition_count s > 1);
  List.iter
    (fun a ->
      check bool_t "readable" true (Segment.read_entity s a = Some payload))
    addrs

let test_segment_evict_and_install () =
  let s = Segment.create ~id:4 ~partition_bytes:1024 in
  let addr = Option.get (Segment.insert_entity s (Bytes.of_string "data")) in
  let p = Segment.find_exn s addr.Addr.partition in
  let img = Partition.snapshot p in
  Segment.evict s addr.Addr.partition;
  check bool_t "not resident" false (Segment.is_resident s addr.Addr.partition);
  check bool_t "read misses" true (Segment.read_entity s addr = None);
  Segment.install s (Partition.of_snapshot img);
  check bool_t "back" true (Segment.read_entity s addr = Some (Bytes.of_string "data"))

let test_segment_install_wrong_segment_rejected () =
  let s = Segment.create ~id:4 ~partition_bytes:1024 in
  let foreign = Partition.create ~size:1024 ~segment:9 ~partition:0 in
  Alcotest.check_raises "wrong segment"
    (Invalid_argument "Segment.install: wrong segment") (fun () ->
      Segment.install s foreign)

let test_segment_reserve () =
  let s = Segment.create ~id:4 ~partition_bytes:1024 in
  (* Claim numbers 0..4 as existing-but-evicted (the recovery path). *)
  Segment.reserve s 4;
  check int_t "count grown" 5 (Segment.partition_count s);
  check bool_t "not resident" false (Segment.is_resident s 2);
  (* Fresh allocation must not collide with reserved numbers. *)
  let p = Segment.allocate_partition s in
  check int_t "allocates past reservations" 5 (Partition.partition_id p);
  (* Installing a recovered partition into a reserved slot works. *)
  let recovered = Partition.create ~size:1024 ~segment:4 ~partition:2 in
  Segment.install s recovered;
  check bool_t "installed" true (Segment.is_resident s 2);
  (* Reserve never downgrades a live slot. *)
  Segment.reserve s 2;
  check bool_t "still resident" true (Segment.is_resident s 2)

let test_segment_deallocate () =
  let s = Segment.create ~id:1 ~partition_bytes:1024 in
  let p = Segment.allocate_partition s in
  Segment.deallocate s (Partition.partition_id p);
  check bool_t "gone" true (Segment.find s (Partition.partition_id p) = None);
  (* Numbers are not recycled: next allocation gets a fresh number. *)
  let p2 = Segment.allocate_partition s in
  check int_t "fresh number" 1 (Partition.partition_id p2)

(* -- Relation ---------------------------------------------------------------------- *)

let mk_relation () =
  let segment = Segment.create ~id:7 ~partition_bytes:2048 in
  Relation.create ~id:1 ~name:"accounts" ~schema:bank_schema ~segment

let test_relation_crud () =
  let r = mk_relation () in
  let addr = Relation.insert r ~log:Relation.null_sink sample_tuple in
  check bool_t "read" true
    (match Relation.read r addr with Some t -> Tuple.equal t sample_tuple | None -> false);
  let addr =
    Relation.update_field r ~log:Relation.null_sink addr 2 (Schema.F 55.5)
  in
  check bool_t "updated" true
    (Schema.equal_value (Tuple.field (Relation.read_exn r addr) 2) (Schema.F 55.5));
  let old = Relation.delete r ~log:Relation.null_sink addr in
  check bool_t "delete returns old" true
    (Schema.equal_value (Tuple.field old 2) (Schema.F 55.5));
  check bool_t "gone" true (Relation.read r addr = None)

let test_relation_emits_redo_undo () =
  let r = mk_relation () in
  let events = ref [] in
  let log part ~redo ~undo = events := (part, redo, undo) :: !events in
  let addr = Relation.insert r ~log sample_tuple in
  let _ = Relation.update_field r ~log addr 0 (Schema.int 9) in
  let _ = Relation.delete r ~log addr in
  check int_t "three events" 3 (List.length !events);
  (* Undo of each op, applied in reverse, restores the empty partition. *)
  let p = Segment.find_exn (Relation.segment r) addr.Addr.partition in
  List.iter (fun (_, _, undo) -> Part_op.apply p undo) !events;
  check int_t "empty after undo chain" 0 (Partition.live_entities p)

let test_relation_cardinality_and_iter () =
  let r = mk_relation () in
  for i = 1 to 50 do
    ignore
      (Relation.insert r ~log:Relation.null_sink
         [| Schema.int i; Schema.S (Printf.sprintf "user%d" i); Schema.F 0.0 |])
  done;
  check int_t "cardinality" 50 (Relation.cardinality r);
  let sum = Relation.fold (fun acc _ t -> acc + Schema.to_int (Tuple.field t 0)) 0 r in
  check int_t "fold over all" 1275 sum

let test_relation_update_relocates_grown_tuple () =
  let segment = Segment.create ~id:7 ~partition_bytes:512 in
  let r = Relation.create ~id:1 ~name:"r" ~schema:bank_schema ~segment in
  (* Fill the first partition almost fully. *)
  let addr = Relation.insert r ~log:Relation.null_sink [| Schema.int 1; Schema.S "s"; Schema.F 0.0 |] in
  let rec fill n =
    if n > 0 then begin
      ignore (Relation.insert r ~log:Relation.null_sink [| Schema.int n; Schema.S (String.make 50 'f'); Schema.F 0.0 |]);
      fill (n - 1)
    end
  in
  fill 6;
  let big = [| Schema.int 1; Schema.S (String.make 300 'G'); Schema.F 0.0 |] in
  let addr' = Relation.update r ~log:Relation.null_sink addr big in
  check bool_t "tuple readable at returned address" true
    (match Relation.read r addr' with Some t -> Tuple.equal t big | None -> false)

(* -- Catalog ------------------------------------------------------------------------ *)

let mk_catalog () = Catalog.create ~partition_bytes:4096 ~log:Relation.null_sink

let test_catalog_bootstrap () =
  let c = mk_catalog () in
  let cat = Catalog.catalog_rel c in
  check Alcotest.string "name" "__catalog__" cat.Catalog.rel_name;
  check bool_t "owns its partitions" true (List.length cat.Catalog.partitions >= 1)

let test_catalog_create_relation () =
  let c = mk_catalog () in
  let rel, seg = Catalog.create_relation c ~log:Relation.null_sink ~name:"acct" ~schema:bank_schema in
  check bool_t "segment assigned" true (seg > 0);
  check bool_t "find by name" true (Catalog.find_relation c "acct" = Some rel);
  check bool_t "find by id" true (Catalog.find_relation_by_id c rel.Catalog.rel_id = Some rel);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Catalog.create_relation: duplicate acct") (fun () ->
      ignore (Catalog.create_relation c ~log:Relation.null_sink ~name:"acct" ~schema:bank_schema))

let test_catalog_add_index () =
  let c = mk_catalog () in
  let rel, _ = Catalog.create_relation c ~log:Relation.null_sink ~name:"acct" ~schema:bank_schema in
  let idx, iseg = Catalog.add_index c ~log:Relation.null_sink ~rel ~name:"acct_id" ~kind:Catalog.Ttree ~key_column:0 in
  check bool_t "index recorded" true (List.memq idx rel.Catalog.indices);
  check bool_t "segment owner" true (Catalog.relation_of_segment c iseg = Some rel);
  Alcotest.check_raises "bad column" (Invalid_argument "Catalog.add_index: bad key column")
    (fun () ->
      ignore (Catalog.add_index c ~log:Relation.null_sink ~rel ~name:"acct_id2" ~kind:Catalog.Lhash ~key_column:99))

let test_catalog_partition_registry () =
  let c = mk_catalog () in
  let rel, seg = Catalog.create_relation c ~log:Relation.null_sink ~name:"acct" ~schema:bank_schema in
  let part = { Addr.segment = seg; partition = 0 } in
  let desc = Catalog.register_partition c ~log:Relation.null_sink part in
  check bool_t "registered" true (Catalog.partition_desc c part = Some desc);
  check bool_t "idempotent" true
    (Catalog.register_partition c ~log:Relation.null_sink part == desc);
  check int_t "no image yet" (-1) desc.Catalog.ckpt_page;
  Catalog.set_ckpt_location c ~log:Relation.null_sink part ~page:17 ~pages:2;
  check int_t "image installed" 17 desc.Catalog.ckpt_page;
  check int_t "page count" 2 desc.Catalog.ckpt_page_count;
  check bool_t "listed on relation" true
    (List.exists (fun d -> Addr.equal_partition d.Catalog.part part) rel.Catalog.partitions)

let test_catalog_rel_codec_roundtrip () =
  let c = mk_catalog () in
  let rel, seg = Catalog.create_relation c ~log:Relation.null_sink ~name:"acct" ~schema:bank_schema in
  let _ = Catalog.add_index c ~log:Relation.null_sink ~rel ~name:"i1" ~kind:Catalog.Ttree ~key_column:0 in
  let _ = Catalog.register_partition c ~log:Relation.null_sink { Addr.segment = seg; partition = 0 } in
  let rel' = Catalog.decode_rel (Catalog.encode_rel rel) in
  check Alcotest.string "name" rel.Catalog.rel_name rel'.Catalog.rel_name;
  check int_t "indices" 1 (List.length rel'.Catalog.indices);
  (* Partition descriptors are separate entities, not part of the relation
     descriptor payload. *)
  check int_t "partitions excluded from payload" 0 (List.length rel'.Catalog.partitions);
  check bool_t "schema" true (Schema.equal rel.Catalog.schema rel'.Catalog.schema)

let test_catalog_decode_from_segment () =
  let c = mk_catalog () in
  let rel, seg = Catalog.create_relation c ~log:Relation.null_sink ~name:"acct" ~schema:bank_schema in
  let _ = Catalog.add_index c ~log:Relation.null_sink ~rel ~name:"i1" ~kind:Catalog.Lhash ~key_column:0 in
  let part = { Addr.segment = seg; partition = 0 } in
  let _ = Catalog.register_partition c ~log:Relation.null_sink part in
  Catalog.set_ckpt_location c ~log:Relation.null_sink part ~page:3 ~pages:1;
  (* Simulate recovery: rebuild the catalog from its segment's bytes. *)
  let seg0 = Catalog.segment c in
  let rebuilt = Segment.create ~id:Catalog.catalog_segment_id ~partition_bytes:(Segment.partition_bytes seg0) in
  Segment.iter (fun p -> Segment.install rebuilt (Partition.of_snapshot (Partition.snapshot p))) seg0;
  let c' = Catalog.decode_from_segment rebuilt in
  let rel' = Option.get (Catalog.find_relation c' "acct") in
  check int_t "ckpt location survives" 3
    (match Catalog.partition_desc c' part with Some d -> d.Catalog.ckpt_page | None -> -99);
  check bool_t "data partitions non-resident" true
    (match Catalog.partition_desc c' part with Some d -> not d.Catalog.resident | None -> false);
  check int_t "index survives" 1 (List.length rel'.Catalog.indices);
  (* Fresh ids do not collide with recovered ones. *)
  let r2, _ = Catalog.create_relation c' ~log:Relation.null_sink ~name:"other" ~schema:bank_schema in
  check bool_t "fresh rel id" true (r2.Catalog.rel_id > rel'.Catalog.rel_id)

let test_catalog_relations_excludes_self () =
  let c = mk_catalog () in
  let _ = Catalog.create_relation c ~log:Relation.null_sink ~name:"a" ~schema:bank_schema in
  let _ = Catalog.create_relation c ~log:Relation.null_sink ~name:"b" ~schema:bank_schema in
  check (Alcotest.list Alcotest.string) "user relations only" [ "a"; "b" ]
    (List.map (fun r -> r.Catalog.rel_name) (Catalog.relations c))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mrdb_storage"
    [
      ( "addr",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "ordering" `Quick test_addr_ordering;
          Alcotest.test_case "null" `Quick test_addr_null;
          Alcotest.test_case "partition_of" `Quick test_addr_partition_of;
        ] );
      ( "schema+tuple",
        [
          Alcotest.test_case "schema basics" `Quick test_schema_basics;
          Alcotest.test_case "schema duplicate rejected" `Quick test_schema_rejects_duplicates;
          Alcotest.test_case "schema roundtrip" `Quick test_schema_roundtrip;
          Alcotest.test_case "tuple roundtrip" `Quick test_tuple_roundtrip;
          Alcotest.test_case "tuple type mismatch" `Quick test_tuple_type_mismatch;
          Alcotest.test_case "tuple arity mismatch" `Quick test_tuple_arity_mismatch;
          Alcotest.test_case "set_field functional" `Quick test_tuple_set_field;
        ]
        @ qsuite [ prop_tuple_roundtrip; prop_value_roundtrip ] );
      ( "partition",
        [
          Alcotest.test_case "insert/read" `Quick test_partition_insert_read;
          Alcotest.test_case "deterministic slots" `Quick test_partition_slots_deterministic;
          Alcotest.test_case "delete" `Quick test_partition_delete;
          Alcotest.test_case "update shrink+grow" `Quick test_partition_update_in_place_and_grow;
          Alcotest.test_case "fills up" `Quick test_partition_fills_up;
          Alcotest.test_case "compaction reclaims" `Quick test_partition_compaction_reclaims;
          Alcotest.test_case "snapshot roundtrip" `Quick test_partition_snapshot_roundtrip;
          Alcotest.test_case "snapshot rejects garbage" `Quick test_partition_snapshot_rejects_garbage;
          Alcotest.test_case "failed update preserves entity" `Quick
            test_partition_update_failure_preserves_entity;
        ]
        @ qsuite [ prop_partition_replay_equivalence; prop_partition_directory_model ] );
      ( "part_op",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_part_op_roundtrip;
          Alcotest.test_case "undo inverts" `Quick test_part_op_undo;
          Alcotest.test_case "undo shape errors" `Quick test_part_op_undo_shape_errors;
        ] );
      ( "segment",
        [
          Alcotest.test_case "allocation" `Quick test_segment_allocation;
          Alcotest.test_case "insert spills" `Quick test_segment_insert_spills_to_new_partition;
          Alcotest.test_case "evict + install" `Quick test_segment_evict_and_install;
          Alcotest.test_case "install wrong segment" `Quick test_segment_install_wrong_segment_rejected;
          Alcotest.test_case "reserve" `Quick test_segment_reserve;
          Alcotest.test_case "deallocate" `Quick test_segment_deallocate;
        ] );
      ( "relation",
        [
          Alcotest.test_case "crud" `Quick test_relation_crud;
          Alcotest.test_case "emits redo/undo" `Quick test_relation_emits_redo_undo;
          Alcotest.test_case "cardinality + iter" `Quick test_relation_cardinality_and_iter;
          Alcotest.test_case "update relocates grown tuple" `Quick
            test_relation_update_relocates_grown_tuple;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "bootstrap" `Quick test_catalog_bootstrap;
          Alcotest.test_case "create relation" `Quick test_catalog_create_relation;
          Alcotest.test_case "add index" `Quick test_catalog_add_index;
          Alcotest.test_case "partition registry" `Quick test_catalog_partition_registry;
          Alcotest.test_case "descriptor codec" `Quick test_catalog_rel_codec_roundtrip;
          Alcotest.test_case "decode from segment" `Quick test_catalog_decode_from_segment;
          Alcotest.test_case "relations excludes self" `Quick test_catalog_relations_excludes_self;
        ] );
    ]
