open Mrdb_storage
module Trace = Mrdb_sim.Trace
module Stable_layout = Mrdb_wal.Stable_layout
module Slb = Mrdb_wal.Slb
module Slt = Mrdb_wal.Slt
module Lock_mgr = Mrdb_txn.Lock_mgr
module Txn_core = Mrdb_txn.Txn
module Undo_space = Mrdb_txn.Undo_space
module T_tree = Mrdb_index.T_tree
module Linear_hash = Mrdb_index.Linear_hash
module Disk_map = Mrdb_ckpt.Disk_map
module Ckpt_queue = Mrdb_ckpt.Ckpt_queue
module Restorer = Mrdb_recovery.Restorer
module Recovery_mgr = Mrdb_recovery.Recovery_mgr

exception Aborted of string
exception Crashed
exception Unknown_relation of string
exception Unknown_index of string

(* The slice of the database instance that the state and system layers
   need: configuration, metrics, the volatile-memory epoch, the recovery
   component's facade, and the (re-attachable) stable layout. *)
type ctx = {
  cfg : Config.t;
  trace : Trace.t;
  epoch : Mrdb_hw.Volatile.Epoch.t;
  recovery : Recovery_mgr.t;
  layout : unit -> Stable_layout.t;
  obs : Mrdb_obs.Obs.t;
}

type index_inst = Tt of T_tree.t | Lh of Linear_hash.t

type rel_rt = {
  desc : Catalog.rel_desc;
  relation : Relation.t;
  mutable index_insts : (Catalog.index_desc * index_inst) list;
  mutable indices_attached : bool;
}

type vol = {
  slb : Slb.t;
  slt : Slt.t;
  cat : Catalog.t;
  segments : (int, Segment.t) Hashtbl.t;
  rels : (string, rel_rt) Hashtbl.t;
  lock_mgr : Lock_mgr.t;
  txn_mgr : Txn_core.Manager.mgr;
  disk_map : Disk_map.t;
  ckpt_q : Ckpt_queue.t;
  seq : int Addr.Partition_table.t;
  group : (Txn_core.t * float) Queue.t; (* precommitted txn, precommit time *)
  mutable group_epoch : int; (* bumped per flush; stale timeout guards *)
  overlay_by_segment : (int, index_inst) Hashtbl.t;
  (* rel_segment -> rel_id for relations whose every column is Int — the
     only shape the command emitter can derive deltas for. *)
  cmd_rel_by_seg : (int, int) Hashtbl.t;
}

let mk_vol ctx ~slb ~slt ~cat ~ckpt_q =
  let segments = Hashtbl.create 16 in
  let overlay_by_segment = Hashtbl.create 16 in
  let undo =
    Undo_space.create ~block_bytes:ctx.cfg.Config.undo_block_bytes
      ~block_count:ctx.cfg.Config.undo_block_count ctx.epoch
  in
  let txn_mgr =
    Txn_core.Manager.create ~undo
      ~resolve_partition:(fun (part : Addr.partition) ->
        match Hashtbl.find_opt segments part.Addr.segment with
        | Some s -> Segment.find_exn s part.Addr.partition
        | None -> raise Not_found)
      ~invalidate_overlay:(fun seg ->
        match Hashtbl.find_opt overlay_by_segment seg with
        | Some (Tt tree) -> T_tree.invalidate_cache tree
        | Some (Lh h) -> Linear_hash.invalidate_cache h
        | None -> ())
      ~now:(fun () -> Mrdb_obs.Obs.now_us ctx.obs)
      ~recorder:(Mrdb_obs.Obs.recorder ctx.obs)
      ~executors:ctx.cfg.Config.executors ()
  in
  {
    slb;
    slt;
    cat;
    segments;
    rels = Hashtbl.create 16;
    (* Shard the lock table with the executor count (a few shards per
       executor keeps per-shard chains short); sharding is behavior-neutral
       so the executors=1 determinism golden is untouched. *)
    lock_mgr = Lock_mgr.create ~shards:(4 * ctx.cfg.Config.executors) ();
    txn_mgr;
    disk_map = Disk_map.create ~capacity_pages:ctx.cfg.Config.ckpt_disk_pages;
    ckpt_q;
    seq = Addr.Partition_table.create 256;
    group = Queue.create ();
    group_epoch = 0;
    overlay_by_segment;
    cmd_rel_by_seg = Hashtbl.create 16;
  }

(* Register a relation as command-capable when every column is Int: only
   then can the emitter read fixed-width cells out of the physical images
   and the replay engine reconstruct them without per-record schemas. *)
let note_cmd_capable v (desc : Catalog.rel_desc) =
  if
    Array.for_all
      (fun (c : Schema.column) -> c.Schema.ty = Schema.Int)
      (Schema.columns desc.Catalog.schema)
  then Hashtbl.replace v.cmd_rel_by_seg desc.Catalog.rel_segment desc.Catalog.rel_id

(* -- residency (delegated to the recovery component's restorer) ----------- *)

let restorer ctx = Recovery_mgr.restorer ctx.recovery
let segment_of ctx seg_id = Restorer.segment_of (restorer ctx) seg_id
let ensure_partition ctx part = Restorer.ensure_partition (restorer ctx) part
let ensure_segment ctx seg_id = Restorer.ensure_segment (restorer ctx) seg_id

(* -- relation runtimes ---------------------------------------------------- *)

let rt_of ctx v name =
  match Hashtbl.find v.rels name with
  | rt -> rt
  | exception Not_found -> (
      match Catalog.find_relation v.cat name with
      | None -> raise (Unknown_relation name)
      | Some desc ->
          let segment = segment_of ctx desc.Catalog.rel_segment in
          let rt =
            {
              desc;
              relation =
                Relation.create ~id:desc.Catalog.rel_id ~name ~schema:desc.Catalog.schema
                  ~segment;
              index_insts = [];
              indices_attached = false;
            }
          in
          note_cmd_capable v desc;
          Hashtbl.add v.rels name rt;
          rt)

let attach_index ctx v (idx : Catalog.index_desc) =
  ensure_segment ctx idx.Catalog.idx_segment;
  let segment = segment_of ctx idx.Catalog.idx_segment in
  let inst =
    match idx.Catalog.kind with
    | Catalog.Ttree -> Tt (T_tree.attach ~segment)
    | Catalog.Lhash -> Lh (Linear_hash.attach ~segment)
  in
  Hashtbl.replace v.overlay_by_segment idx.Catalog.idx_segment inst;
  inst

let ensure_indices ctx v rt =
  if not rt.indices_attached then begin
    rt.index_insts <-
      List.map
        (fun idx ->
          match List.assq_opt idx rt.index_insts with
          | Some inst -> (idx, inst)
          | None -> (idx, attach_index ctx v idx))
        rt.desc.Catalog.indices;
    rt.indices_attached <- true
  end

let ensure_rel_resident ctx v rt =
  ensure_segment ctx rt.desc.Catalog.rel_segment;
  ensure_indices ctx v rt

(* -- index maintenance ---------------------------------------------------- *)

let inst_insert inst ~log key addr =
  match inst with
  | Tt tree -> T_tree.insert tree ~log key addr
  | Lh h -> Linear_hash.insert h ~log key addr

let inst_delete inst ~log key addr =
  match inst with
  | Tt tree -> ignore (T_tree.delete tree ~log key addr)
  | Lh h -> ignore (Linear_hash.delete h ~log key addr)

let index_insert_all rt ~log tuple addr =
  List.iter
    (fun ((idx : Catalog.index_desc), inst) ->
      inst_insert inst ~log (Tuple.field tuple idx.Catalog.key_column) addr)
    rt.index_insts

let index_delete_all rt ~log tuple addr =
  List.iter
    (fun ((idx : Catalog.index_desc), inst) ->
      inst_delete inst ~log (Tuple.field tuple idx.Catalog.key_column) addr)
    rt.index_insts

let find_index rt name =
  match
    List.find_opt (fun ((i : Catalog.index_desc), _) -> i.Catalog.idx_name = name)
      rt.index_insts
  with
  | Some pair -> pair
  | None -> raise (Unknown_index name)
