open Mrdb_storage
module Codec = Mrdb_util.Codec

(* Built-in command vocabulary.  Column-addressed single-cell updates are
   the hot case (the paper's "numerical field updates"); the first eight
   columns get their own op ids so the column index rides the tag byte
   for free.  Generic forms cover wider schemas. *)
let op_insert_ints = 1
let op_delete = 2
let op_add_i64 = 3 (* args = [col; delta] *)
let op_set_i64 = 4 (* args = [col; value] *)
let op_add_col0 = 8 (* 8..15: add args.(0) into column (op - 8) *)
let op_set_col0 = 16 (* 16..23: set column (op - 16) to args.(0) *)
let folded_cols = 8

let fatal fmt = Mrdb_util.Fatal.invariantf ~mod_:"Replay" fmt

(* All-Int canonical tuple encoding: one tag byte '\000' + 8-byte i64 per
   column.  The partition-level appliers patch these cells directly; the
   cell layout is locked by test_logical's relation-vs-partition
   equivalence check. *)
let cell_bytes = 9

let addr_of part ~slot =
  Addr.make
    ~segment:(Partition.segment_id part)
    ~partition:(Partition.partition_id part)
    ~slot

let check_live p ~slot =
  if not (Partition.is_live p ~slot) then
    fatal "command addresses dead slot %d in partition %d.%d" slot
      (Partition.segment_id p) (Partition.partition_id p)

let check_int_col rel ~col =
  let schema = Relation.schema rel in
  if col < 0 || col >= Schema.arity schema then
    fatal "column %d out of range (arity %d)" col (Schema.arity schema);
  match Schema.column_type schema col with
  | Schema.Int -> ()
  | Schema.Float | Schema.Str -> fatal "column %d is not Int-typed" col

(* Validate-and-read an Int cell out of raw tuple bytes. *)
let int_cell data ~col =
  let off = col * cell_bytes in
  if col < 0 || off + cell_bytes > Bytes.length data then
    fatal "column %d out of range (%d tuple bytes)" col (Bytes.length data);
  if Bytes.get data off <> '\000' then
    fatal "column %d is not an Int cell" col;
  Codec.get_i64 data (off + 1)

let read_cell_rel rel part ~slot ~col =
  check_int_col rel ~col;
  match Relation.read rel (addr_of part ~slot) with
  | None -> fatal "command addresses dead slot %d" slot
  | Some tuple -> (
      match Tuple.field tuple col with
      | Schema.I v -> v
      | Schema.F _ | Schema.S _ -> fatal "column %d is not an Int value" col)

let patch_cell_part p ~slot ~col v =
  check_live p ~slot;
  match Partition.read p ~slot with
  | None -> fatal "command addresses dead slot %d" slot
  | Some data ->
      ignore (int_cell data ~col);
      Codec.put_i64 data ((col * cell_bytes) + 1) v;
      Partition.update_at p ~slot data ~pos:0 ~len:(Bytes.length data)

let set_col target ~slot ~col v =
  match target with
  | Dispatch.Rel { rel; part } ->
      ignore (read_cell_rel rel part ~slot ~col);
      ignore
        (Relation.update_field rel ~log:Relation.null_sink (addr_of part ~slot)
           col (Schema.I v))
  | Dispatch.Part p -> patch_cell_part p ~slot ~col v

let add_col target ~slot ~col delta =
  match target with
  | Dispatch.Rel { rel; part } ->
      let old = read_cell_rel rel part ~slot ~col in
      ignore
        (Relation.update_field rel ~log:Relation.null_sink (addr_of part ~slot)
           col
           (Schema.I (Int64.add old delta)))
  | Dispatch.Part p ->
      let old = match Partition.read p ~slot with
        | Some data -> int_cell data ~col
        | None -> fatal "command addresses dead slot %d" slot
      in
      patch_cell_part p ~slot ~col (Int64.add old delta)

let insert_ints ?alloc target ~slot args =
  let n = Array.length args in
  let part =
    match target with Dispatch.Rel { part; _ } -> part | Dispatch.Part p -> p
  in
  if Partition.is_live part ~slot then fatal "insert into live slot %d" slot;
  let buf =
    match target with
    | Dispatch.Rel { rel; _ } ->
        let schema = Relation.schema rel in
        if Schema.arity schema <> n then
          fatal "insert arity %d vs schema arity %d" n (Schema.arity schema);
        for col = 0 to n - 1 do
          check_int_col rel ~col
        done;
        let tuple = Array.map (fun v -> Schema.I v) args in
        let size = Tuple.encoded_size schema tuple in
        let b = match alloc with Some a -> a size | None -> Bytes.create size in
        ignore (Tuple.encode_into schema tuple b 0);
        b
    | Dispatch.Part _ ->
        let size = n * cell_bytes in
        let b = match alloc with Some a -> a size | None -> Bytes.create size in
        for i = 0 to n - 1 do
          Bytes.set b (i * cell_bytes) '\000';
          Codec.put_i64 b ((i * cell_bytes) + 1) args.(i)
        done;
        b
  in
  Partition.insert_at part ~slot buf ~pos:0 ~len:(Bytes.length buf)

let delete ?alloc target ~slot =
  match target with
  | Dispatch.Rel { rel; part } ->
      check_live part ~slot;
      ignore
        (Relation.delete rel ?alloc ~log:Relation.null_sink (addr_of part ~slot))
  | Dispatch.Part p ->
      check_live p ~slot;
      Partition.delete_at p ~slot

let col_of_arg v =
  let col = Int64.to_int v in
  if col < 0 || col > 255 || not (Int64.equal (Int64.of_int col) v) then
    fatal "bad column argument %Ld" v;
  col

let builtin () =
  let t = Dispatch.create () in
  Dispatch.register t ~op_id:op_insert_ints (fun ?alloc target ~key ~args ->
      insert_ints ?alloc target ~slot:key args);
  Dispatch.register t ~op_id:op_delete (fun ?alloc target ~key ~args ->
      if Array.length args <> 0 then fatal "delete takes no arguments";
      delete ?alloc target ~slot:key);
  Dispatch.register t ~op_id:op_add_i64 (fun ?alloc:_ target ~key ~args ->
      match args with
      | [| col; delta |] -> add_col target ~slot:key ~col:(col_of_arg col) delta
      | _ -> fatal "add takes [col; delta]");
  Dispatch.register t ~op_id:op_set_i64 (fun ?alloc:_ target ~key ~args ->
      match args with
      | [| col; v |] -> set_col target ~slot:key ~col:(col_of_arg col) v
      | _ -> fatal "set takes [col; value]");
  for col = 0 to folded_cols - 1 do
    Dispatch.register t ~op_id:(op_add_col0 + col)
      (fun ?alloc:_ target ~key ~args ->
        match args with
        | [| delta |] -> add_col target ~slot:key ~col delta
        | _ -> fatal "column add takes [delta]");
    Dispatch.register t ~op_id:(op_set_col0 + col)
      (fun ?alloc:_ target ~key ~args ->
        match args with
        | [| v |] -> set_col target ~slot:key ~col v
        | _ -> fatal "column set takes [value]")
  done;
  t

(* The process-wide table every replayer shares.  Commands are only
   meaningful under one interpretation, so there is exactly one table on
   the replay side; tests build private tables with [Dispatch.create]. *)
let default = lazy (builtin ())

let apply_cmd ?alloc ~target (cmd : Cmd_op.t) =
  (match target with
  | Dispatch.Rel { rel; _ } ->
      if Relation.id rel <> cmd.Cmd_op.rel_id then
        fatal "command for relation %d replayed against relation %d"
          cmd.Cmd_op.rel_id (Relation.id rel)
  | Dispatch.Part _ -> ());
  match Dispatch.find (Lazy.force default) cmd.Cmd_op.op_id with
  | Some h -> h ?alloc target ~key:cmd.Cmd_op.key ~args:cmd.Cmd_op.args
  | None -> fatal "no handler registered for op %d" cmd.Cmd_op.op_id
