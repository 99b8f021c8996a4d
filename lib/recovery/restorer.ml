open Mrdb_storage
module Trace = Mrdb_sim.Trace
module Slt = Mrdb_wal.Slt
module Log_record = Mrdb_wal.Log_record
module Log_page = Mrdb_wal.Log_page
module Ckpt_image = Mrdb_ckpt.Ckpt_image
module Archive = Mrdb_archive.Archive

type t = {
  env : Recovery_env.t;
  slt : Slt.t;
  cat : Catalog.t;
  seq : int Addr.Partition_table.t;
  segments : (int, Segment.t) Hashtbl.t;
  mutable sweeping : bool;
      (* Timeline attribution: restores issued from background_step are
         charged to Background_sweep, everything else to On_demand_restore. *)
  mutable sweep_queue : Addr.partition list;
      (* The background sweep's pick order: partitions that were not
         resident when the queue was built, ascending by address. *)
}

let create ~env ~slt ~cat ~seq ~segments =
  { env; slt; cat; seq; segments; sweeping = false; sweep_queue = [] }

let segment_of r seg_id =
  match Hashtbl.find_opt r.segments seg_id with
  | Some s -> s
  | None ->
      let s =
        Segment.create ~id:seg_id ~partition_bytes:r.env.Recovery_env.partition_bytes
      in
      (* Claim the partition numbers the catalog already assigns to this
         segment before any allocation: a fresh post-crash insert must not
         collide with a not-yet-recovered partition's number (and seq
         space). *)
      (match Catalog.relation_of_segment r.cat seg_id with
      | Some rel ->
          List.iter
            (fun (d : Catalog.partition_desc) ->
              if d.Catalog.part.Addr.segment = seg_id then
                Segment.reserve s d.Catalog.part.Addr.partition)
            rel.Catalog.partitions
      | None -> ());
      Hashtbl.add r.segments seg_id s;
      s

(* Checkpoint-disk track read with one bounded retry: transient read
   errors (recoverable ECC glitches) vanish on the second attempt; a
   persistent error is the caller's cue to fall back to the archive. *)
let read_ckpt_track env ~first_page ~pages k =
  let disk = env.Recovery_env.ckpt_disk () in
  Mrdb_hw.Disk.read_track disk ~first_page ~pages (function
    | Ok data -> k (Ok data)
    | Error _ ->
        Trace.incr env.Recovery_env.trace "restorer_ckpt_read_retries";
        Mrdb_hw.Disk.read_track disk ~first_page ~pages k)

(* Read the checkpoint image at [first_page .. first_page+pages); when the
   checkpoint disk cannot produce a valid image (media failure), fall back
   to the newest archived copy of [part] — the archive saw every image
   ever written, so its newest copy is exactly the one the catalog (or,
   for catalog partitions, the well-known area) references.  A negative
   [first_page] means never checkpointed. *)
let read_ckpt_image env ~(part : Addr.partition) ~first_page ~pages k =
  let fallback reason =
    match env.Recovery_env.archiver with
    | Some a -> (
        match Archive.latest_image a part with
        | Some image ->
            Trace.incr env.Recovery_env.trace "media_recoveries";
            k (Some image)
        | None ->
            Mrdb_util.Fatal.invariant ~mod_:"Restorer"
              ("checkpoint image lost and not archived: " ^ reason))
    | None ->
        Mrdb_util.Fatal.invariant ~mod_:"Restorer" ("corrupt checkpoint image: " ^ reason)
  in
  if first_page < 0 then k None
  else
    read_ckpt_track env ~first_page ~pages (function
      | Error e -> fallback ("media read failed: " ^ e)
      | Ok data -> (
          match Ckpt_image.decode data with
          | Ok image -> k (Some image)
          | Error e -> fallback e))

(* The REDO kernel: walk the recovered frames in stream order, straight
   from the page bytes.  A record at or below the watermark is already in
   the image and is skipped on its peeked sequence number, undecoded
   (idempotent replay, for both record families).  A record is also
   skipped when it repeats the current run: within one bin a
   transaction's records form one run of rising [seq], so a frame with
   the run's txn id and a [seq] at or below its top is a second copy, left
   by a crash between a record's bin append and the ring-head advance that
   retires its chain (restart then drains the whole chain again).  Logical
   REDO is not idempotent, so each record must apply exactly once.  Txn
   ids restart at 1 after a recovery, but a reused id carries higher
   seqs, so it never extends an old run.  A physical operation
   is applied in place, its entity blitted from the page into the
   partition; a command is decoded in place and goes through the dispatch
   table — against the relation layer when [rel] is supplied (forced on
   the first applied command), else as schema-free partition-cell
   patches. *)
type replayed = { max_seq : int; frames : int; applied : int }

let replay ~partition ?rel ~watermark frames =
  let max_seq = ref watermark and seen = ref 0 and applied = ref 0 in
  (* The current run is the last frame that was not a repeat; its txn id
     is read only when a frame's seq does not rise past the run's top. *)
  let run_buf = ref Bytes.empty and run_pos = ref 0 and run_top = ref (-1) in
  let apply b ~pos ~len =
    incr seen;
    let seq = Log_record.peek_seq b ~pos in
    let repeat =
      seq <= !run_top
      && Log_record.peek_txn_id b ~pos = Log_record.peek_txn_id !run_buf ~pos:!run_pos
    in
    if not repeat then begin
      run_buf := b;
      run_pos := pos;
      run_top := seq
    end;
    if seq > watermark && not repeat then begin
      if Log_record.is_command b ~pos then begin
        let target =
          match rel with
          | Some rel -> Mrdb_logical.Dispatch.Rel { rel = Lazy.force rel; part = partition }
          | None -> Mrdb_logical.Dispatch.Part partition
        in
        Mrdb_logical.Replay.apply_cmd ~target (Log_record.command_at b ~pos ~len)
      end
      else
        Part_op.apply_encoded partition b ~pos:(Log_record.body_at b ~pos)
          ~stop:(pos + len);
      incr applied
    end;
    if seq > !max_seq then max_seq := seq
  in
  List.iter (fun f -> Log_page.iter_frames f ~f:apply) frames;
  { max_seq = !max_seq; frames = !seen; applied = !applied }

(* A relation runtime for logical replay: a private scratch segment
   holding just this partition, wrapped in a [Relation.t] carrying the
   catalogued schema.  Private so replay-time reads never perturb the
   real segment table mid-recovery. *)
let replay_relation cat ~(part : Addr.partition) ~partition_bytes partition =
  match Catalog.relation_of_segment cat part.Addr.segment with
  | None ->
      Mrdb_util.Fatal.invariant ~mod_:"Restorer"
        "command records for a segment no relation owns"
  | Some desc ->
      let seg = Segment.create ~id:part.Addr.segment ~partition_bytes in
      Segment.install seg partition;
      Relation.create ~id:desc.Catalog.rel_id ~name:desc.Catalog.rel_name
        ~schema:desc.Catalog.schema ~segment:seg

(* The restore kernel shared by catalogued partitions and the catalog
   bootstrap: the checkpoint image and the log stream are fetched in
   parallel (different disks), the clock is pumped until both land, and
   the base is the image — or an empty partition when [part] was never
   checkpointed.  Returns the base, its watermark and the recovered
   frames; the caller replays them with its own [replay] options. *)
let fetch_base env slt ~(part : Addr.partition) ~first_page ~pages =
  let image = ref None and image_done = ref false in
  let frames = ref [] and frames_done = ref false in
  read_ckpt_image env ~part ~first_page ~pages (fun img ->
      image := img;
      image_done := true);
  Slt.frames_for_recovery slt part (fun result ->
      (match result with
      | Ok fs -> frames := fs
      | Error e -> Mrdb_util.Fatal.invariant ~mod_:"Restorer" ("log recovery failed: " ^ e));
      frames_done := true);
  Recovery_env.pump_until env (fun () -> !image_done && !frames_done);
  let partition, watermark =
    match !image with
    | Some img ->
        if not (Addr.equal_partition img.Ckpt_image.part part) then
          Mrdb_util.Fatal.invariant ~mod_:"Restorer" "checkpoint image for wrong partition";
        (Ckpt_image.to_partition img, img.Ckpt_image.watermark)
    | None ->
        ( Partition.create ~size:env.Recovery_env.partition_bytes
            ~segment:part.Addr.segment ~partition:part.Addr.partition,
          0 )
  in
  (partition, watermark, !frames)

(* Restore one catalogued partition through the kernel, then install it
   and mark it resident. *)
let ensure_partition r part =
  let env = r.env in
  let desc =
    match Catalog.partition_desc r.cat part with
    | Some d -> d
    | None ->
        Mrdb_util.Fatal.invariant ~mod_:"Restorer"
          (Format.asprintf "partition %a not catalogued" Addr.pp_partition part)
  in
  if not desc.Catalog.resident then begin
    let t0 = Mrdb_sim.Sim.now env.Recovery_env.sim in
    let partition, watermark, frames =
      fetch_base env r.slt ~part ~first_page:desc.Catalog.ckpt_page
        ~pages:desc.Catalog.ckpt_page_count
    in
    let rel =
      lazy
        (replay_relation r.cat ~part
           ~partition_bytes:env.Recovery_env.partition_bytes partition)
    in
    let replayed = replay ~partition ~rel ~watermark frames in
    (* Counters are created on first bump: a partition with nothing to
       replay must leave the trace exactly as it was. *)
    if replayed.applied > 0 then
      Trace.add env.Recovery_env.trace "recovery_records_applied" replayed.applied;
    Segment.install (segment_of r part.Addr.segment) partition;
    Addr.Partition_table.replace r.seq part replayed.max_seq;
    Catalog.set_resident r.cat part true;
    Trace.incr env.Recovery_env.trace "partitions_recovered";
    Trace.incr env.Recovery_env.trace "restorer_partitions_restored";
    let obs = env.Recovery_env.obs in
    let dur_us = Mrdb_sim.Sim.now env.Recovery_env.sim -. t0 in
    Mrdb_obs.Metrics.observe_us (Mrdb_obs.Obs.restore_latency obs) dur_us;
    Mrdb_obs.Timeline.add
      (Mrdb_obs.Obs.timeline obs)
      (if r.sweeping then Mrdb_obs.Timeline.Background_sweep
       else Mrdb_obs.Timeline.On_demand_restore)
      ~dur_us;
    Mrdb_obs.Flight_recorder.partition_restored
      (Mrdb_obs.Obs.recorder obs)
      ~segment:part.Addr.segment ~partition:part.Addr.partition
      ~records:replayed.frames
  end

(* The forward path calls this before every write to an indexed relation;
   once the segment is resident the catalog's count makes it one lookup. *)
let ensure_segment r seg_id =
  if Catalog.non_resident_in_segment r.cat seg_id > 0 then
    match Catalog.relation_of_segment r.cat seg_id with
    | Some rel ->
        List.iter
          (fun (d : Catalog.partition_desc) ->
            if d.Catalog.part.Addr.segment = seg_id then ensure_partition r d.Catalog.part)
          rel.Catalog.partitions
    | None -> ()

(* -- the background sweep (§2.5) ------------------------------------------- *)

let non_resident_partitions r =
  Catalog.fold_relations
    (fun rel acc ->
      List.fold_left
        (fun acc (d : Catalog.partition_desc) ->
          if d.Catalog.resident then acc else d.Catalog.part :: acc)
        acc rel.Catalog.partitions)
    r.cat []
  |> List.sort Addr.compare_partition

(* The lowest-addressed non-resident partition, in O(1) amortised: the
   queue is built once, and entries restored on demand or dropped from the
   catalog since then are popped as they reach the front.  The pick stays
   at the front until it is resident, so a failed restore is retried.  An
   empty queue is rebuilt once before reporting that nothing is left. *)
let rec next_to_sweep r ~rebuilt =
  match r.sweep_queue with
  | part :: rest -> (
      match Catalog.partition_desc r.cat part with
      | Some d when not d.Catalog.resident -> Some part
      | Some _ | None ->
          r.sweep_queue <- rest;
          next_to_sweep r ~rebuilt)
  | [] ->
      if rebuilt then None
      else begin
        r.sweep_queue <- non_resident_partitions r;
        next_to_sweep r ~rebuilt:true
      end

let background_step r =
  match next_to_sweep r ~rebuilt:false with
  | None -> false
  | Some part ->
      r.sweeping <- true;
      Fun.protect
        ~finally:(fun () -> r.sweeping <- false)
        (fun () -> ensure_partition r part);
      true

let sweep r = while background_step r do () done

(* -- restart-time catalog bootstrap (§2.5) ---------------------------------- *)

let restore_catalog env ~slt ~entries =
  let cat_segment =
    Segment.create ~id:Catalog.catalog_segment_id
      ~partition_bytes:env.Recovery_env.partition_bytes
  in
  let catalog_seq = ref [] in
  List.iter
    (fun (e : Wellknown.entry) ->
      let partition, watermark, frames =
        fetch_base env slt ~part:e.Wellknown.part ~first_page:e.Wellknown.ckpt_page
          ~pages:e.Wellknown.pages
      in
      let replayed = replay ~partition ~watermark frames in
      catalog_seq := (e.Wellknown.part, replayed.max_seq) :: !catalog_seq;
      Segment.install cat_segment partition)
    entries;
  (cat_segment, !catalog_seq)

let drop_uncatalogued_bins ~slt ~cat =
  List.iter
    (fun part ->
      if Catalog.partition_desc cat part = None then Slt.drop_partition slt part)
    (Slt.active_partitions slt)
