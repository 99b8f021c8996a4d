type slot = Live of Partition.t | Evicted | Dead

type t = {
  id : int;
  partition_bytes : int;
  mutable slots : slot array;
  mutable count : int;
  mutable last_with_room : int; (* insertion hint *)
}

let create ~id ~partition_bytes =
  if partition_bytes < 256 then Mrdb_util.Fatal.misuse "Segment.create: partition_bytes";
  { id; partition_bytes; slots = [||]; count = 0; last_with_room = -1 }

let id t = t.id
let partition_bytes t = t.partition_bytes
let partition_count t = t.count

let grow t =
  if t.count = Array.length t.slots then begin
    let cap = Stdlib.max 8 (2 * t.count) in
    let bigger = Array.make cap Dead in
    Array.blit t.slots 0 bigger 0 t.count;
    t.slots <- bigger
  end

let allocate_partition t =
  grow t;
  let pno = t.count in
  let p = Partition.create ~size:t.partition_bytes ~segment:t.id ~partition:pno in
  t.slots.(pno) <- Live p;
  t.count <- t.count + 1;
  p

let find t pno =
  if pno < 0 || pno >= t.count then None
  else match t.slots.(pno) with Live p -> Some p | Evicted | Dead -> None

let find_exn t pno =
  match find t pno with Some p -> p | None -> raise Not_found

let deallocate t pno =
  match find t pno with
  | Some _ -> t.slots.(pno) <- Dead
  | None -> raise Not_found

let install t p =
  if Partition.segment_id p <> t.id then
    Mrdb_util.Fatal.misuse "Segment.install: wrong segment";
  let pno = Partition.partition_id p in
  while t.count <= pno do
    grow t;
    t.slots.(t.count) <- Evicted;
    t.count <- t.count + 1
  done;
  t.slots.(pno) <- Live p

let reserve t pno =
  if pno < 0 then Mrdb_util.Fatal.misuse "Segment.reserve";
  while t.count <= pno do
    grow t;
    t.slots.(t.count) <- Evicted;
    t.count <- t.count + 1
  done

let is_resident t pno =
  match find t pno with Some _ -> true | None -> false

let evict t pno =
  if pno < 0 || pno >= t.count then raise Not_found;
  match t.slots.(pno) with
  | Live _ -> t.slots.(pno) <- Evicted
  | Evicted -> ()
  | Dead -> raise Not_found

let iter f t =
  for i = 0 to t.count - 1 do
    match t.slots.(i) with Live p -> f p | Evicted | Dead -> ()
  done

let fold f init t =
  let acc = ref init in
  iter (fun p -> acc := f !acc p) t;
  !acc

let partitions t = List.rev (fold (fun acc p -> p :: acc) [] t)

let insert_entity t b =
  let try_insert p =
    match Partition.insert p b with
    | Some slot ->
        t.last_with_room <- Partition.partition_id p;
        Some (Addr.make ~segment:t.id ~partition:(Partition.partition_id p) ~slot)
    | None -> None
  in
  let from_hint =
    match find t t.last_with_room with
    | Some p -> try_insert p
    | None -> None
  in
  match from_hint with
  | Some addr -> Some addr
  | None ->
      (* Scan existing partitions, then allocate a fresh one. *)
      let rec scan pno =
        if pno >= t.count then None
        else
          match find t pno with
          | Some p -> ( match try_insert p with Some a -> Some a | None -> scan (pno + 1))
          | None -> scan (pno + 1)
      in
      (match scan 0 with
      | Some addr -> Some addr
      | None ->
          let p = allocate_partition t in
          try_insert p)

let read_entity t (addr : Addr.t) =
  if addr.Addr.segment <> t.id then None
  else
    match find t addr.Addr.partition with
    | Some p -> Partition.read p ~slot:addr.Addr.slot
    | None -> None

let read_entity_with t (addr : Addr.t) ~alloc =
  if addr.Addr.segment <> t.id then None
  else
    match find t addr.Addr.partition with
    | Some p -> Partition.read_with p ~slot:addr.Addr.slot ~alloc
    | None -> None

let update_entity t (addr : Addr.t) b =
  if addr.Addr.segment <> t.id then Mrdb_util.Fatal.misuse "Segment.update_entity: wrong segment";
  let p = find_exn t addr.Addr.partition in
  Partition.update_at p ~slot:addr.Addr.slot b ~pos:0 ~len:(Bytes.length b)

let delete_entity t (addr : Addr.t) =
  if addr.Addr.segment <> t.id then Mrdb_util.Fatal.misuse "Segment.delete_entity: wrong segment";
  let p = find_exn t addr.Addr.partition in
  Partition.delete_at p ~slot:addr.Addr.slot
