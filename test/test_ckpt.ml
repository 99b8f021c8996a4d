(* Tests for the checkpoint substrate: the pseudo-circular disk allocation
   map, the request communication buffer, and the image codec. *)

open Mrdb_storage
open Mrdb_ckpt

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* -- Disk_map ------------------------------------------------------------- *)

let test_map_alloc_advances_head () =
  let m = Disk_map.create ~capacity_pages:16 in
  let a = Option.get (Disk_map.allocate m ~pages:3) in
  let b = Option.get (Disk_map.allocate m ~pages:3) in
  check int_t "first run at 0" 0 a;
  check int_t "second after first" 3 b;
  check int_t "head advanced" 6 (Disk_map.head m);
  check int_t "used" 6 (Disk_map.used_pages m)

let test_map_never_overwrites_live () =
  let m = Disk_map.create ~capacity_pages:8 in
  let a = Option.get (Disk_map.allocate m ~pages:4) in
  let b = Option.get (Disk_map.allocate m ~pages:4) in
  check bool_t "disjoint" true (a <> b);
  (* Full now. *)
  check bool_t "refuses when full" true (Disk_map.allocate m ~pages:1 = None);
  Disk_map.release m ~page:a ~pages:4;
  check bool_t "reuses released" true (Disk_map.allocate m ~pages:4 = Some a)

let test_map_skips_pinned_images () =
  (* The pseudo-circular property: stationary (rarely-checkpointed) images
     are skipped over as the head wraps past them. *)
  let m = Disk_map.create ~capacity_pages:10 in
  let stationary = Option.get (Disk_map.allocate m ~pages:2) in
  let moving = Option.get (Disk_map.allocate m ~pages:2) in
  (* Churn the moving partition many times around the disk. *)
  let current = ref moving in
  for _ = 1 to 20 do
    let next = Option.get (Disk_map.allocate m ~pages:2) in
    Disk_map.release m ~page:!current ~pages:2;
    current := next;
    check bool_t "never lands on the stationary image" true
      (next >= stationary + 2 || next + 2 <= stationary)
  done;
  check bool_t "stationary pages still used" true
    (Disk_map.is_used m ~page:stationary && Disk_map.is_used m ~page:(stationary + 1))

let test_map_release_errors () =
  let m = Disk_map.create ~capacity_pages:8 in
  Alcotest.check_raises "release free page"
    (Invalid_argument "Disk_map.release: page 0 not allocated") (fun () ->
      Disk_map.release m ~page:0 ~pages:1)

let test_map_rebuild () =
  let m = Disk_map.create ~capacity_pages:16 in
  ignore (Disk_map.allocate m ~pages:5);
  Disk_map.rebuild m [ (2, 3); (10, 4) ];
  check int_t "used after rebuild" 7 (Disk_map.used_pages m);
  check bool_t "run 1" true (Disk_map.is_used m ~page:2 && Disk_map.is_used m ~page:4);
  check bool_t "gap free" false (Disk_map.is_used m ~page:5);
  check bool_t "run 2" true (Disk_map.is_used m ~page:13)

let test_map_run_does_not_wrap_physical_end () =
  let m = Disk_map.create ~capacity_pages:8 in
  ignore (Disk_map.allocate m ~pages:6);
  Disk_map.release m ~page:0 ~pages:6;
  (* Head is at 6; a 4-page run cannot span 6..1, must come from 0. *)
  let a = Option.get (Disk_map.allocate m ~pages:4) in
  check int_t "allocated from start" 0 a

let prop_map_model =
  QCheck.Test.make ~name:"disk map = interval-set model" ~count:150
    QCheck.(small_list (pair bool (int_range 1 4)))
    (fun ops ->
      let m = Disk_map.create ~capacity_pages:32 in
      let live = ref [] in
      List.for_all
        (fun (is_alloc, pages) ->
          if is_alloc then
            match Disk_map.allocate m ~pages with
            | None -> true
            | Some start ->
                (* No overlap with any live run. *)
                let overlaps =
                  List.exists
                    (fun (s, n) -> start < s + n && s < start + pages)
                    !live
                in
                live := (start, pages) :: !live;
                not overlaps
          else
            match !live with
            | [] -> true
            | (s, n) :: rest ->
                Disk_map.release m ~page:s ~pages:n;
                live := rest;
                true)
        ops
      && Disk_map.used_pages m = List.fold_left (fun a (_, n) -> a + n) 0 !live)

(* -- Ckpt_queue ------------------------------------------------------------ *)

let part i : Addr.partition = { Addr.segment = 1; partition = i }

let test_queue_lifecycle () =
  let q = Ckpt_queue.create () in
  check bool_t "request accepted" true (Ckpt_queue.request q (part 1) Ckpt_queue.Update_count);
  check bool_t "duplicate rejected" false (Ckpt_queue.request q (part 1) Ckpt_queue.Age);
  check int_t "pending" 1 (Ckpt_queue.pending q);
  let e = Option.get (Ckpt_queue.next_requested q) in
  check bool_t "entry partition" true (Addr.equal_partition e.Ckpt_queue.part (part 1));
  check bool_t "in progress" true (e.Ckpt_queue.status = Ckpt_queue.In_progress);
  check bool_t "no more requested" true (Ckpt_queue.next_requested q = None);
  Ckpt_queue.finish q (part 1);
  check int_t "drained" 0 (Ckpt_queue.pending q);
  (* After finish, a new request for the same partition is accepted. *)
  check bool_t "re-request ok" true (Ckpt_queue.request q (part 1) Ckpt_queue.Age)

let test_queue_fifo () =
  let q = Ckpt_queue.create () in
  ignore (Ckpt_queue.request q (part 1) Ckpt_queue.Update_count);
  ignore (Ckpt_queue.request q (part 2) Ckpt_queue.Age);
  let e1 = Option.get (Ckpt_queue.next_requested q) in
  check int_t "oldest first" 1 e1.Ckpt_queue.part.Addr.partition;
  let e2 = Option.get (Ckpt_queue.next_requested q) in
  check int_t "then next" 2 e2.Ckpt_queue.part.Addr.partition

let test_queue_defer () =
  let q = Ckpt_queue.create () in
  ignore (Ckpt_queue.request q (part 1) Ckpt_queue.Update_count);
  let _ = Option.get (Ckpt_queue.next_requested q) in
  Ckpt_queue.defer q (part 1);
  (* Back to requested: picked up again. *)
  let e = Option.get (Ckpt_queue.next_requested q) in
  check int_t "re-dispatched" 1 e.Ckpt_queue.part.Addr.partition

let test_queue_finish_requires_in_progress () =
  let q = Ckpt_queue.create () in
  ignore (Ckpt_queue.request q (part 1) Ckpt_queue.Update_count);
  Alcotest.check_raises "not in progress" Not_found (fun () ->
      Ckpt_queue.finish q (part 1))

let test_queue_cancel () =
  let q = Ckpt_queue.create () in
  ignore (Ckpt_queue.request q (part 1) Ckpt_queue.Update_count);
  Ckpt_queue.cancel q (part 1);
  check int_t "gone" 0 (Ckpt_queue.pending q)

let test_queue_capacity () =
  let q = Ckpt_queue.create ~capacity:2 () in
  check bool_t "1" true (Ckpt_queue.request q (part 1) Ckpt_queue.Age);
  check bool_t "2" true (Ckpt_queue.request q (part 2) Ckpt_queue.Age);
  check bool_t "3 refused" false (Ckpt_queue.request q (part 3) Ckpt_queue.Age)

(* -- Ckpt_image ------------------------------------------------------------- *)

let test_image_roundtrip () =
  let p = Partition.create ~size:1024 ~segment:3 ~partition:7 in
  ignore (Partition.insert p (Bytes.of_string "hello"));
  let image =
    Ckpt_image.encode ~page_bytes:512
      (Ckpt_image.make ~part:{ Addr.segment = 3; partition = 7 } ~watermark:42
         ~snapshot:(Partition.snapshot p))
  in
  check int_t "page multiple" 0 (Bytes.length image mod 512);
  match Ckpt_image.decode image with
  | Error e -> Alcotest.fail e
  | Ok d ->
      check int_t "watermark" 42 d.Ckpt_image.watermark;
      check int_t "segment" 3 d.Ckpt_image.part.Addr.segment;
      let p' = Ckpt_image.to_partition d in
      check bool_t "snapshot intact" true (Partition.equal_contents p p')

let test_image_detects_corruption () =
  let p = Partition.create ~size:512 ~segment:0 ~partition:0 in
  let image =
    Ckpt_image.encode ~page_bytes:512
      (Ckpt_image.make ~part:(Partition.address p) ~watermark:0
         ~snapshot:(Partition.snapshot p))
  in
  Bytes.set image 100 '\x99';
  check bool_t "crc mismatch" true
    (match Ckpt_image.decode image with Error _ -> true | Ok _ -> false)

let test_image_pages_needed () =
  check int_t "tiny fits one page" 1 (Ckpt_image.pages_needed ~page_bytes:512 ~snapshot_bytes:100);
  check int_t "boundary" 2 (Ckpt_image.pages_needed ~page_bytes:512 ~snapshot_bytes:512);
  check int_t "exact minus header" 1
    (Ckpt_image.pages_needed ~page_bytes:512 ~snapshot_bytes:(512 - 36))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mrdb_ckpt"
    [
      ( "disk_map",
        [
          Alcotest.test_case "alloc advances head" `Quick test_map_alloc_advances_head;
          Alcotest.test_case "never overwrites live" `Quick test_map_never_overwrites_live;
          Alcotest.test_case "skips pinned images" `Quick test_map_skips_pinned_images;
          Alcotest.test_case "release errors" `Quick test_map_release_errors;
          Alcotest.test_case "rebuild" `Quick test_map_rebuild;
          Alcotest.test_case "no physical wrap" `Quick test_map_run_does_not_wrap_physical_end;
        ]
        @ qsuite [ prop_map_model ] );
      ( "ckpt_queue",
        [
          Alcotest.test_case "lifecycle" `Quick test_queue_lifecycle;
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "defer" `Quick test_queue_defer;
          Alcotest.test_case "finish requires in-progress" `Quick
            test_queue_finish_requires_in_progress;
          Alcotest.test_case "cancel" `Quick test_queue_cancel;
          Alcotest.test_case "capacity" `Quick test_queue_capacity;
        ] );
      ( "ckpt_image",
        [
          Alcotest.test_case "roundtrip" `Quick test_image_roundtrip;
          Alcotest.test_case "detects corruption" `Quick test_image_detects_corruption;
          Alcotest.test_case "pages_needed" `Quick test_image_pages_needed;
        ] );
    ]
