exception Slb_full
exception Record_too_large of { bytes : int; limit : int }

(* Block layout: u32 txn_id | u32 next_block+1 (0 = none) | u32 used |
   payload of u16-framed records.  Block ids are region-local. *)
let hdr_txn = 0
let hdr_next = 4
let hdr_used = 8
let payload_off = 12

type chain = { mutable first : int; mutable last : int }

type region = {
  owner : int; (* region id = owning executor id *)
  layout : Stable_layout.t;
  blocks : Mrdb_hw.Stable_mem.Blocks.alloc;
  chains : (int, chain) Hashtbl.t; (* txn -> uncommitted chain *)
  scratch : bytes; (* append framing buffer: one frame composed, one write *)
  rscratch : bytes; (* drain read buffer: one block payload, read in place *)
  max_frame : int; (* largest frame that fits both an SLB block and a log page *)
  recorder : Mrdb_obs.Flight_recorder.t option ref; (* shared with t *)
}

type t = {
  layout : Stable_layout.t;
  regions : region array;
  mutable draining : bool;
  recorder : Mrdb_obs.Flight_recorder.t option ref;
}

let mk_region layout recorder owner =
  (* Both scratches are sized to a block once, up front: the steady-state
     append and drain paths never allocate. *)
  let cfg = Stable_layout.config layout in
  let block_bytes = cfg.Stable_layout.slb_block_bytes in
  {
    owner;
    layout;
    blocks = Stable_layout.slb_blocks layout ~region:owner;
    chains = Hashtbl.create 64;
    scratch = Bytes.create block_bytes;
    rscratch = Bytes.create block_bytes;
    max_frame =
      Stdlib.min (block_bytes - payload_off)
        (Log_page.payload_capacity ~page_bytes:cfg.Stable_layout.log_page_bytes
           ~dir_size:cfg.Stable_layout.dir_size);
    recorder;
  }

let create layout =
  let recorder = ref None in
  {
    layout;
    regions =
      Array.init (Stable_layout.regions layout) (mk_region layout recorder);
    draining = false;
    recorder;
  }

let set_recorder t recorder = t.recorder := recorder

let region t i =
  if i < 0 || i >= Array.length t.regions then
    Mrdb_util.Fatal.misuse "Slb.region: bad region id";
  t.regions.(i)

module Region = struct
  type t = region

  let id r = r.owner
  let mem (r : t) = Stable_layout.mem r.layout
  let block_off r i = Mrdb_hw.Stable_mem.Blocks.offset_of_block r.blocks i
  let block_bytes r = Mrdb_hw.Stable_mem.Blocks.block_bytes r.blocks

  let get_used r b = Mrdb_hw.Stable_mem.get_u32 (mem r) ~off:(block_off r b + hdr_used)
  let set_used r b v = Mrdb_hw.Stable_mem.put_u32 (mem r) ~off:(block_off r b + hdr_used) v
  let get_next r b =
    let raw = Mrdb_hw.Stable_mem.get_u32 (mem r) ~off:(block_off r b + hdr_next) in
    raw - 1
  let set_next r b v = Mrdb_hw.Stable_mem.put_u32 (mem r) ~off:(block_off r b + hdr_next) (v + 1)
  let set_txn r b v = Mrdb_hw.Stable_mem.put_u32 (mem r) ~off:(block_off r b + hdr_txn) v

  let capacity_ring (r : t) = Stable_layout.region_ring_capacity r.layout

  let ring_off (r : t) i =
    Stable_layout.committed_entry_off r.layout ~region:r.owner
      (i mod capacity_ring r)

  (* Individual entry-field readers: the drain-side merge runs per record
     batch and must not build (txn, first, seq) tuples. *)
  let ring_txn (r : t) i = Mrdb_hw.Stable_mem.get_u32 (mem r) ~off:(ring_off r i)

  let ring_first (r : t) i =
    Mrdb_hw.Stable_mem.get_u32 (mem r) ~off:(ring_off r i + 4) - 1

  let ring_seq (r : t) i = Mrdb_hw.Stable_mem.get_u32 (mem r) ~off:(ring_off r i + 8)

  let ring_get (r : t) i = (ring_txn r i, ring_first r i, ring_seq r i)

  let ring_put (r : t) i ~txn ~first ~seq =
    let off = ring_off r i in
    Mrdb_hw.Stable_mem.put_u32 (mem r) ~off txn;
    Mrdb_hw.Stable_mem.put_u32 (mem r) ~off:(off + 4) (first + 1);
    Mrdb_hw.Stable_mem.put_u32 (mem r) ~off:(off + 8) seq

  let alloc_block r ~txn_id =
    match Mrdb_hw.Stable_mem.Blocks.alloc r.blocks with
    | None -> raise Slb_full
    | Some b ->
        set_txn r b txn_id;
        set_next r b (-1);
        set_used r b 0;
        b

  let append r ~txn_id record =
    let size = Log_record.encoded_size record in
    let frame = 2 + size in
    (* The one record-size check of the pipeline: a frame the drain could
       not place in an empty log page is refused here, before anything is
       written, while the transaction can still abort. *)
    if frame > r.max_frame then
      raise (Record_too_large { bytes = frame; limit = r.max_frame });
    (* Compose the whole frame (u16 length + record) in the reusable scratch,
       then issue exactly one stable-memory write — no per-record buffers. *)
    Mrdb_util.Codec.put_u16 r.scratch 0 size;
    let stop = Log_record.encode_into record r.scratch ~pos:2 in
    if stop <> frame then
      Mrdb_util.Fatal.invariantf ~mod_:"Slb"
        "append: encoded %d bytes but encoded_size said %d" (stop - 2) size;
    let chain =
      (* find + Not_found, not find_opt: the per-append [Some] box is real
         money at this call frequency. *)
      match Hashtbl.find r.chains txn_id with
      | c -> c
      | exception Not_found ->
          let b = alloc_block r ~txn_id in
          let c = { first = b; last = b } in
          Hashtbl.add r.chains txn_id c;
          c
    in
    let used = get_used r chain.last in
    let target, used =
      if payload_off + used + frame <= block_bytes r then (chain.last, used)
      else begin
        let b = alloc_block r ~txn_id in
        set_next r chain.last b;
        chain.last <- b;
        (b, 0) (* alloc_block just zeroed the new block's used counter *)
      end
    in
    let off = block_off r target + payload_off + used in
    Mrdb_hw.Stable_mem.write_sub (mem r) ~off r.scratch ~pos:0 ~len:frame;
    set_used r target (used + frame);
    match !(r.recorder) with
    | None -> ()
    | Some fr ->
        Mrdb_obs.Flight_recorder.slb_append fr ~txn:txn_id ~bytes:frame
          ~exec:r.owner

  let iter_chain_raw r first ~f =
    let b = ref first in
    while !b >= 0 do
      let used = get_used r !b in
      (* One block-sized read into the shared scratch, then hand each frame
         to [f] in place — no per-record decode, no per-payload copies.
         The u16 frame header always precedes the payload at [pos - 2],
         which lets consumers forward the whole frame verbatim. *)
      Mrdb_hw.Stable_mem.blit_out (mem r)
        ~off:(block_off r !b + payload_off)
        r.rscratch ~pos:0 ~len:used;
      let pos = ref 0 in
      while !pos < used do
        let len = Mrdb_util.Codec.get_u16 r.rscratch !pos in
        f r.rscratch ~pos:(!pos + 2) ~len;
        pos := !pos + 2 + len
      done;
      b := get_next r !b
    done

  let free_chain r first =
    let b = ref first in
    while !b >= 0 do
      let next = get_next r !b in
      Mrdb_hw.Stable_mem.Blocks.free r.blocks !b;
      b := next
    done

  let commit (r : t) ~txn_id =
    match Hashtbl.find_opt r.chains txn_id with
    | None -> () (* read-only transaction: nothing to log *)
    | Some chain ->
        let head = Stable_layout.committed_head r.layout ~region:r.owner in
        let tail = Stable_layout.committed_tail r.layout ~region:r.owner in
        if tail - head >= capacity_ring r then raise Slb_full;
        (* Stamp the global commit sequence into the entry: the total order
           the recovery side merges the striped rings by.  Burning a
           sequence number on a commit that then dies before the tail
           advance is harmless — the merge only sorts, gaps are fine. *)
        let seq = Stable_layout.commit_seq r.layout in
        ring_put r tail ~txn:txn_id ~first:chain.first ~seq;
        Stable_layout.set_commit_seq r.layout (seq + 1);
        (* Advancing the tail cursor makes the commit durable. *)
        Stable_layout.set_committed_tail r.layout ~region:r.owner (tail + 1);
        Hashtbl.remove r.chains txn_id

  let abort r ~txn_id =
    match Hashtbl.find_opt r.chains txn_id with
    | None -> ()
    | Some chain ->
        free_chain r chain.first;
        Hashtbl.remove r.chains txn_id

  let pending_committed (r : t) =
    Stable_layout.committed_tail r.layout ~region:r.owner
    - Stable_layout.committed_head r.layout ~region:r.owner

  let uncommitted_count r = Hashtbl.length r.chains
  let blocks_free r = Mrdb_hw.Stable_mem.Blocks.free_count r.blocks

  (* Sequence number of the oldest undrained commit; -1 when none.  An int
     sentinel instead of an option: the N-way merge calls this once per
     region per drained transaction and must not allocate. *)
  let head_seq (r : t) =
    let head = Stable_layout.committed_head r.layout ~region:r.owner in
    let tail = Stable_layout.committed_tail r.layout ~region:r.owner in
    if head >= tail then -1 else ring_seq r head

  let drain_one_raw (r : t) ~f =
    let head = Stable_layout.committed_head r.layout ~region:r.owner in
    let tail = Stable_layout.committed_tail r.layout ~region:r.owner in
    if head >= tail then false
    else begin
      let txn_id = ring_txn r head in
      let first = ring_first r head in
      iter_chain_raw r first ~f:(fun buf ~pos ~len -> f ~txn_id buf ~pos ~len);
      free_chain r first;
      Stable_layout.set_committed_head r.layout ~region:r.owner (head + 1);
      true
    end
end

(* Whole-buffer queries: aggregate or search across all regions. *)
let abort t ~txn_id =
  Array.iter (fun r -> Region.abort r ~txn_id) t.regions

let pending_committed t =
  Array.fold_left (fun n r -> n + Region.pending_committed r) 0 t.regions

let uncommitted_count t =
  Array.fold_left (fun n r -> n + Region.uncommitted_count r) 0 t.regions

let blocks_free t =
  Array.fold_left (fun n r -> n + Region.blocks_free r) 0 t.regions

(* Deterministic N-way merge: always drain the region whose oldest
   undrained commit carries the smallest global sequence number, so the
   merged stream reaching the Stable Log Tail is in commit order exactly
   as in the single-region layout. *)
let next_region_to_drain t =
  (* Index of the best region, or -1: int sentinels keep the per-batch
     merge loop (the PR 6 regression source) allocation-free. *)
  let best = ref (-1) and best_seq = ref 0 in
  for i = 0 to Array.length t.regions - 1 do
    let seq = Region.head_seq t.regions.(i) in
    if seq >= 0 && (!best < 0 || seq < !best_seq) then begin
      best := i;
      best_seq := seq
    end
  done;
  !best

let drain_one_raw t ~f =
  match next_region_to_drain t with
  | -1 -> false
  | i -> Region.drain_one_raw t.regions.(i) ~f

let drain_raw t ~f =
  (* Draining can suspend on log-disk backpressure, during which the event
     loop may run another transaction's commit — whose own drain call must
     NOT process the ring concurrently (it would re-read the entry the
     outer drain is mid-way through and then skip one).  The outer drain's
     loop picks up anything committed meanwhile, so the inner call can
     simply do nothing. *)
  if t.draining then 0
  else begin
    t.draining <- true;
    Fun.protect
      ~finally:(fun () -> t.draining <- false)
      (fun () ->
        let n = ref 0 in
        while drain_one_raw t ~f do
          incr n
        done;
        !n)
  end

let recover layout =
  let t = create layout in
  (* Only blocks reachable from undrained committed entries are live;
     uncommitted chains are garbage by definition.  Each region's block
     allocator is rebuilt from its own ring stripe. *)
  Array.iter
    (fun r ->
      let live = ref [] in
      let head = Stable_layout.committed_head layout ~region:r.owner in
      let tail = Stable_layout.committed_tail layout ~region:r.owner in
      for i = head to tail - 1 do
        let _, first, _ = Region.ring_get r i in
        let b = ref first in
        while !b >= 0 do
          live := !b :: !live;
          b := Region.get_next r !b
        done
      done;
      Mrdb_hw.Stable_mem.Blocks.rebuild_after_crash r.blocks ~live:!live)
    t.regions;
  t
