type t =
  | Insert of { slot : int; data : bytes }
  | Update of { slot : int; data : bytes }
  | Delete of { slot : int }

let apply p = function
  | Insert { slot; data } -> Partition.insert_at p ~slot data ~pos:0 ~len:(Bytes.length data)
  | Update { slot; data } -> Partition.update_at p ~slot data ~pos:0 ~len:(Bytes.length data)
  | Delete { slot } -> Partition.delete_at p ~slot

(* The replay kernel's form of [decode] then [apply]: fields are read in
   place and an entity is blitted from [b] into the partition, so a
   physical REDO record costs no allocation. *)
let overrun ~pos ~stop =
  Mrdb_util.Fatal.invariantf ~mod_:"Part_op"
    "apply_encoded: op at %d does not end at frame end %d" pos stop

let apply_encoded p b ~pos ~stop =
  let open Mrdb_util.Codec in
  let tag = Char.code (Bytes.get b pos) in
  let slot = get_varint b (pos + 1) in
  let after_slot = skip_varint b (pos + 1) in
  match tag with
  | 0 | 1 ->
      let len = get_varint b after_slot in
      let data = skip_varint b after_slot in
      if data + len <> stop then overrun ~pos ~stop;
      if tag = 0 then Partition.insert_at p ~slot b ~pos:data ~len
      else Partition.update_at p ~slot b ~pos:data ~len
  | 2 ->
      if after_slot <> stop then overrun ~pos ~stop;
      Partition.delete_at p ~slot
  | n -> Mrdb_util.Fatal.invariantf ~mod_:"Part_op" "decode: bad tag %d" n

let undo_of ~before op =
  match (op, before) with
  | Insert { slot; _ }, None -> Delete { slot }
  | Update { slot; _ }, Some old -> Update { slot; data = old }
  | Delete { slot }, Some old -> Insert { slot; data = old }
  | Insert _, Some _ -> Mrdb_util.Fatal.misuse "Part_op.undo_of: insert with a before-image"
  | (Update _ | Delete _), None ->
      Mrdb_util.Fatal.misuse "Part_op.undo_of: update/delete without a before-image"

let slot = function
  | Insert { slot; _ } | Update { slot; _ } | Delete { slot } -> slot

let encoded_size op =
  let open Mrdb_util.Codec in
  match op with
  | Insert { slot; data } | Update { slot; data } ->
      let n = Bytes.length data in
      1 + varint_size slot + varint_size n + n
  | Delete { slot } -> 1 + varint_size slot

let encode_into op b ~pos =
  let open Mrdb_util.Codec in
  let tagged tag slot = Bytes.unsafe_set b pos (Char.unsafe_chr tag); put_varint b (pos + 1) slot in
  match op with
  | Insert { slot; data } | Update { slot; data } ->
      let tag = match op with Insert _ -> 0 | _ -> 1 in
      let n = Bytes.length data in
      let pos = tagged tag slot in
      let pos = put_varint b pos n in
      Bytes.blit data 0 b pos n;
      pos + n
  | Delete { slot } -> tagged 2 slot

let encode enc op =
  let open Mrdb_util.Codec.Enc in
  match op with
  | Insert { slot; data } ->
      u8 enc 0;
      varint enc slot;
      varint enc (Bytes.length data);
      bytes enc data
  | Update { slot; data } ->
      u8 enc 1;
      varint enc slot;
      varint enc (Bytes.length data);
      bytes enc data
  | Delete { slot } ->
      u8 enc 2;
      varint enc slot

let decode dec =
  let open Mrdb_util.Codec.Dec in
  match u8 dec with
  | 0 ->
      let slot = varint dec in
      let n = varint dec in
      Insert { slot; data = bytes dec n }
  | 1 ->
      let slot = varint dec in
      let n = varint dec in
      Update { slot; data = bytes dec n }
  | 2 -> Delete { slot = varint dec }
  | n -> Mrdb_util.Fatal.invariantf ~mod_:"Part_op" "decode: bad tag %d" n

let equal a b =
  match (a, b) with
  | Insert { slot = s1; data = d1 }, Insert { slot = s2; data = d2 }
  | Update { slot = s1; data = d1 }, Update { slot = s2; data = d2 } ->
      s1 = s2 && Bytes.equal d1 d2
  | Delete { slot = s1 }, Delete { slot = s2 } -> s1 = s2
  | (Insert _ | Update _ | Delete _), _ -> false

let pp ppf = function
  | Insert { slot; data } -> Format.fprintf ppf "insert@%d[%d]" slot (Bytes.length data)
  | Update { slot; data } -> Format.fprintf ppf "update@%d[%d]" slot (Bytes.length data)
  | Delete { slot } -> Format.fprintf ppf "delete@%d" slot
