type index_kind = Ttree | Lhash

type index_desc = {
  idx_id : int;
  idx_name : string;
  kind : index_kind;
  key_column : int;
  idx_segment : int;
}

type partition_desc = {
  part : Addr.partition;
  mutable ckpt_page : int;
  mutable ckpt_page_count : int;
  mutable resident : bool;
}

type rel_desc = {
  rel_id : int;
  rel_name : string;
  schema : Schema.t;
  rel_segment : int;
  mutable indices : index_desc list;
  mutable partitions : partition_desc list;
}

module Segment_table = Hashtbl.Make (Int)

(* Everything but the segment is mutable so that {!reload} can swap a
   freshly decoded state in under the same handle. *)
type t = {
  segment : Segment.t;
  mutable by_name : (string, rel_desc) Hashtbl.t;
  mutable by_id : (int, rel_desc) Hashtbl.t;
  mutable by_segment : (int, rel_desc) Hashtbl.t;
  mutable part_index : partition_desc Addr.Partition_table.t;
  mutable self_addr : (int, Addr.t) Hashtbl.t;       (* rel_id -> entity addr *)
  mutable part_addr : Addr.t Addr.Partition_table.t; (* partition -> entity addr *)
  mutable non_resident : int Segment_table.t;
      (* segment -> its non-resident descriptors; absent means 0.  Kept in
         step with every [resident] flag, so "is this segment fully
         resident?" costs one lookup. *)
  mutable non_resident_total : int;
  mutable next_rel_id : int;
  mutable next_seg_id : int;
  mutable next_idx_id : int;
}

let catalog_segment_id = 0
let catalog_rel_name = "__catalog__"

(* -- entity codecs ----------------------------------------------------------
   Two kinds of catalog entities share the segment, distinguished by a tag
   byte.  Partition descriptors are separate, fixed-size entities so that
   catalog log records stay small no matter how many partitions a relation
   accumulates (a relation descriptor is only rewritten by DDL). *)

let tag_rel = 0
let tag_part = 1

let kind_tag = function Ttree -> 0 | Lhash -> 1

let kind_of_tag = function
  | 0 -> Ttree
  | 1 -> Lhash
  | n -> Mrdb_util.Fatal.invariantf ~mod_:"Catalog" "bad index kind %d" n

let encode_rel rel =
  let open Mrdb_util.Codec.Enc in
  let enc = create () in
  u8 enc tag_rel;
  varint enc rel.rel_id;
  string enc rel.rel_name;
  Schema.encode enc rel.schema;
  varint enc rel.rel_segment;
  varint enc (List.length rel.indices);
  List.iter
    (fun i ->
      varint enc i.idx_id;
      string enc i.idx_name;
      u8 enc (kind_tag i.kind);
      varint enc i.key_column;
      varint enc i.idx_segment)
    rel.indices;
  to_bytes enc

let decode_rel_body dec =
  let open Mrdb_util.Codec.Dec in
  let rel_id = varint dec in
  let rel_name = string dec in
  let schema = Schema.decode dec in
  let rel_segment = varint dec in
  let n_idx = varint dec in
  let indices =
    List.init n_idx (fun _ ->
        let idx_id = varint dec in
        let idx_name = string dec in
        let kind = kind_of_tag (u8 dec) in
        let key_column = varint dec in
        let idx_segment = varint dec in
        { idx_id; idx_name; kind; key_column; idx_segment })
  in
  { rel_id; rel_name; schema; rel_segment; indices; partitions = [] }

let decode_rel b =
  let open Mrdb_util.Codec.Dec in
  let dec = of_bytes b in
  match u8 dec with
  | t when t = tag_rel -> decode_rel_body dec
  | t -> Mrdb_util.Fatal.invariantf ~mod_:"Catalog" "decode_rel: bad tag %d" t

let encode_part desc =
  let open Mrdb_util.Codec.Enc in
  let enc = create () in
  u8 enc tag_part;
  Addr.encode_partition enc desc.part;
  int_as_i64 enc desc.ckpt_page;
  varint enc desc.ckpt_page_count;
  to_bytes enc

let decode_part_body dec =
  let open Mrdb_util.Codec.Dec in
  let part = Addr.decode_partition dec in
  let ckpt_page = int_of_i64 dec in
  let ckpt_page_count = varint dec in
  { part; ckpt_page; ckpt_page_count; resident = false }

(* -- indexing helpers ---------------------------------------------------- *)

let index_rel t rel =
  Hashtbl.replace t.by_name rel.rel_name rel;
  Hashtbl.replace t.by_id rel.rel_id rel;
  Hashtbl.replace t.by_segment rel.rel_segment rel;
  List.iter (fun i -> Hashtbl.replace t.by_segment i.idx_segment rel) rel.indices;
  List.iter (fun p -> Addr.Partition_table.replace t.part_index p.part p) rel.partitions

let catalog_rel t = Hashtbl.find t.by_name catalog_rel_name

let non_resident_in_segment t seg =
  Option.value (Segment_table.find_opt t.non_resident seg) ~default:0

(* Count [desc] in (+1) or out of (-1) its segment's non-resident total. *)
let count_non_resident t desc delta =
  let seg = desc.part.Addr.segment in
  let n = non_resident_in_segment t seg + delta in
  if n = 0 then Segment_table.remove t.non_resident seg
  else Segment_table.replace t.non_resident seg n;
  t.non_resident_total <- t.non_resident_total + delta

let entity_exn t addr =
  match Segment.read_entity t.segment addr with
  | Some data -> data
  | None -> Mrdb_util.Fatal.invariant ~mod_:"Catalog" "tracked entity is missing"

(* Every catalog change is logged with a real before-image, as a relation
   tuple's is: DDL and checkpoint installs run as system transactions that
   abort like any other. *)
let log_op ~log (addr : Addr.t) ~before redo =
  log (Addr.partition_of addr) ~redo ~undo:(Part_op.undo_of ~before redo)

let delete_entity_logged t ~log (addr : Addr.t) =
  let old = entity_exn t addr in
  Segment.delete_entity t.segment addr;
  log_op ~log addr ~before:(Some old) (Part_op.Delete { slot = addr.Addr.slot })

(* Store an encoded entity at a tracked address (insert or update),
   logging the change; returns the (possibly new) address. *)
let store_entity t ~log ~existing data =
  let insert () =
    match Segment.insert_entity t.segment data with
    | None -> Mrdb_util.Fatal.invariant ~mod_:"Catalog" "descriptor exceeds partition size"
    | Some addr ->
        log_op ~log addr ~before:None (Part_op.Insert { slot = addr.Addr.slot; data });
        addr
  in
  match existing with
  | None -> insert ()
  | Some (addr : Addr.t) -> (
      let old = entity_exn t addr in
      match Segment.update_entity t.segment addr data with
      | () ->
          log_op ~log addr ~before:(Some old)
            (Part_op.Update { slot = addr.Addr.slot; data });
          addr
      | exception Partition.No_space _ ->
          delete_entity_logged t ~log addr;
          insert ())

let rec store_rel t ~log rel =
  let addr =
    store_entity t ~log ~existing:(Hashtbl.find_opt t.self_addr rel.rel_id)
      (encode_rel rel)
  in
  Hashtbl.replace t.self_addr rel.rel_id addr;
  sync_own_partitions t ~log

and store_part t ~log desc =
  let addr =
    store_entity t ~log
      ~existing:(Addr.Partition_table.find_opt t.part_addr desc.part)
      (encode_part desc)
  in
  Addr.Partition_table.replace t.part_addr desc.part addr;
  sync_own_partitions t ~log

and sync_own_partitions t ~log =
  (* Every partition of segment 0 must have a descriptor attached to the
     __catalog__ relation; storing descriptors can allocate new catalog
     partitions, so iterate to a fixpoint. *)
  let cat = catalog_rel t in
  let missing = ref [] in
  Segment.iter
    (fun p ->
      let part = Partition.address p in
      if not (Addr.Partition_table.mem t.part_index part) then
        missing := part :: !missing)
    t.segment;
  List.iter
    (fun part ->
      let desc = { part; ckpt_page = -1; ckpt_page_count = 0; resident = true } in
      cat.partitions <- cat.partitions @ [ desc ];
      Addr.Partition_table.replace t.part_index part desc;
      store_part t ~log desc)
    (List.rev !missing)

(* The one place an empty catalog over [segment] is built. *)
let blank segment =
  {
    segment;
    by_name = Hashtbl.create 16;
    by_id = Hashtbl.create 16;
    by_segment = Hashtbl.create 16;
    part_index = Addr.Partition_table.create 64;
    self_addr = Hashtbl.create 16;
    part_addr = Addr.Partition_table.create 64;
    non_resident = Segment_table.create 16;
    non_resident_total = 0;
    next_rel_id = 1;
    next_seg_id = 1;
    next_idx_id = 1;
  }

let create ~partition_bytes ~log =
  let t = blank (Segment.create ~id:catalog_segment_id ~partition_bytes) in
  let cat =
    {
      rel_id = 0;
      rel_name = catalog_rel_name;
      schema = Schema.of_list [ ("desc", Schema.Str) ];
      rel_segment = catalog_segment_id;
      indices = [];
      partitions = [];
    }
  in
  index_rel t cat;
  store_rel t ~log cat;
  t

let segment t = t.segment

let fresh_segment_id t =
  let id = t.next_seg_id in
  t.next_seg_id <- id + 1;
  id

let create_relation t ~log ~name ~schema =
  if Hashtbl.mem t.by_name name then
    Mrdb_util.Fatal.misuse ("Catalog.create_relation: duplicate " ^ name);
  let rel_id = t.next_rel_id in
  t.next_rel_id <- rel_id + 1;
  let rel_segment = fresh_segment_id t in
  let rel = { rel_id; rel_name = name; schema; rel_segment; indices = []; partitions = [] } in
  index_rel t rel;
  store_rel t ~log rel;
  (rel, rel_segment)

let add_index t ~log ~rel ~name ~kind ~key_column =
  if List.exists (fun i -> i.idx_name = name) rel.indices then
    Mrdb_util.Fatal.misuse ("Catalog.add_index: duplicate " ^ name);
  if key_column < 0 || key_column >= Schema.arity rel.schema then
    Mrdb_util.Fatal.misuse "Catalog.add_index: bad key column";
  let idx_id = t.next_idx_id in
  t.next_idx_id <- idx_id + 1;
  let idx_segment = fresh_segment_id t in
  let idx = { idx_id; idx_name = name; kind; key_column; idx_segment } in
  rel.indices <- rel.indices @ [ idx ];
  Hashtbl.replace t.by_segment idx_segment rel;
  store_rel t ~log rel;
  (idx, idx_segment)

let relation_of_segment t seg = Hashtbl.find_opt t.by_segment seg

let drop_relation t ~log rel =
  if rel.rel_name = catalog_rel_name then
    Mrdb_util.Fatal.misuse "Catalog.drop_relation: cannot drop the catalog";
  List.iter
    (fun desc ->
      (match Addr.Partition_table.find_opt t.part_addr desc.part with
      | Some addr ->
          delete_entity_logged t ~log addr;
          Addr.Partition_table.remove t.part_addr desc.part
      | None -> ());
      if not desc.resident then count_non_resident t desc (-1);
      Addr.Partition_table.remove t.part_index desc.part)
    rel.partitions;
  (match Hashtbl.find_opt t.self_addr rel.rel_id with
  | Some addr ->
      delete_entity_logged t ~log addr;
      Hashtbl.remove t.self_addr rel.rel_id
  | None -> ());
  Hashtbl.remove t.by_name rel.rel_name;
  Hashtbl.remove t.by_id rel.rel_id;
  Hashtbl.remove t.by_segment rel.rel_segment;
  List.iter (fun i -> Hashtbl.remove t.by_segment i.idx_segment) rel.indices

let register_partition t ~log part =
  match Addr.Partition_table.find_opt t.part_index part with
  | Some desc -> desc
  | None -> (
      match relation_of_segment t part.Addr.segment with
      | None -> raise Not_found
      | Some rel ->
          let desc = { part; ckpt_page = -1; ckpt_page_count = 0; resident = true } in
          rel.partitions <- rel.partitions @ [ desc ];
          Addr.Partition_table.replace t.part_index part desc;
          store_part t ~log desc;
          desc)

let part_desc_exn t part =
  match Addr.Partition_table.find_opt t.part_index part with
  | Some d -> d
  | None -> raise Not_found

let set_ckpt_location t ~log part ~page ~pages =
  let desc = part_desc_exn t part in
  desc.ckpt_page <- page;
  desc.ckpt_page_count <- pages;
  store_part t ~log desc

let set_resident t part resident =
  let desc = part_desc_exn t part in
  if desc.resident <> resident then begin
    desc.resident <- resident;
    count_non_resident t desc (if resident then -1 else 1)
  end

let resident_fraction t =
  let total = Addr.Partition_table.length t.part_index in
  if total = 0 then 1.0
  else float_of_int (total - t.non_resident_total) /. float_of_int total

let find_relation t name = Hashtbl.find_opt t.by_name name

let find_relation_exn t name =
  match find_relation t name with
  | Some r -> r
  | None -> raise Not_found

let find_relation_by_id t id = Hashtbl.find_opt t.by_id id

let partition_desc t part = Addr.Partition_table.find_opt t.part_index part

(* Iteration is in ascending rel_id order, never raw hash-table order:
   checkpoint and restore schedules derive their visit order from here,
   and replay determinism (R8) requires it to be a pure function of the
   catalog contents. *)
let sorted_rels t =
  Hashtbl.fold (fun _ rel acc -> rel :: acc) t.by_id []
  |> List.sort (fun a b -> Int.compare a.rel_id b.rel_id)

let iter_relations f t = List.iter f (sorted_rels t)

let fold_relations f t acc =
  List.fold_left (fun acc rel -> f rel acc) acc (sorted_rels t)

let relations t =
  List.filter (fun rel -> rel.rel_name <> catalog_rel_name) (sorted_rels t)

(* Fill a blank catalog from the entities of its segment; [resident]
   decides each partition descriptor's residency flag. *)
let decode_into t ~resident =
  (* Pass 1: relation descriptors; pass 2: partition descriptors attach to
     the relation owning their segment. *)
  let part_entities = ref [] in
  Segment.iter
    (fun p ->
      Partition.iter
        (fun slot data ->
          let addr =
            Addr.make ~segment:catalog_segment_id
              ~partition:(Partition.partition_id p) ~slot
          in
          let dec = Mrdb_util.Codec.Dec.of_bytes data in
          match Mrdb_util.Codec.Dec.u8 dec with
          | tag when tag = tag_rel ->
              let rel = decode_rel_body dec in
              Hashtbl.replace t.self_addr rel.rel_id addr;
              index_rel t rel;
              t.next_rel_id <- Stdlib.max t.next_rel_id (rel.rel_id + 1);
              t.next_seg_id <- Stdlib.max t.next_seg_id (rel.rel_segment + 1);
              List.iter
                (fun i ->
                  t.next_idx_id <- Stdlib.max t.next_idx_id (i.idx_id + 1);
                  t.next_seg_id <- Stdlib.max t.next_seg_id (i.idx_segment + 1))
                rel.indices
          | tag when tag = tag_part ->
              part_entities := (addr, decode_part_body dec) :: !part_entities
          | tag -> Mrdb_util.Fatal.invariantf ~mod_:"Catalog" "bad entity tag %d" tag)
        p)
    t.segment;
  if not (Hashtbl.mem t.by_name catalog_rel_name) then
    Mrdb_util.Fatal.invariant ~mod_:"Catalog"
      "decode_from_segment: missing __catalog__ descriptor";
  List.iter
    (fun ((addr : Addr.t), desc) ->
      match relation_of_segment t desc.part.Addr.segment with
      | None ->
          Mrdb_util.Fatal.invariant ~mod_:"Catalog"
            (Format.asprintf "partition descriptor %a has no owner"
               Addr.pp_partition desc.part)
      | Some rel ->
          desc.resident <- resident desc.part;
          if not desc.resident then count_non_resident t desc 1;
          rel.partitions <- rel.partitions @ [ desc ];
          Addr.Partition_table.replace t.part_index desc.part desc;
          Addr.Partition_table.replace t.part_addr desc.part addr)
    (List.sort
       (fun ((_, a) : _ * partition_desc) (_, b) ->
         Addr.compare_partition a.part b.part)
       !part_entities);
  t

let decode_from_segment segment =
  if Segment.id segment <> catalog_segment_id then
    Mrdb_util.Fatal.misuse "Catalog.decode_from_segment: not the catalog segment";
  (* Right after a restart only the catalog partitions are in memory. *)
  decode_into (blank segment) ~resident:(fun (part : Addr.partition) ->
      part.Addr.segment = catalog_segment_id)

let reload t ~resident =
  let f = decode_into (blank t.segment) ~resident in
  t.by_name <- f.by_name;
  t.by_id <- f.by_id;
  t.by_segment <- f.by_segment;
  t.part_index <- f.part_index;
  t.self_addr <- f.self_addr;
  t.part_addr <- f.part_addr;
  t.non_resident <- f.non_resident;
  t.non_resident_total <- f.non_resident_total;
  t.next_rel_id <- f.next_rel_id;
  t.next_seg_id <- f.next_seg_id;
  t.next_idx_id <- f.next_idx_id
