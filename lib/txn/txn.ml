open Mrdb_storage

type status = Active | Precommitted | Committed | Aborted

type t = {
  id : int;
  executor : int;
  mutable status : status;
  mutable chain : Undo_space.chain option;
  mutable redo_count : int;
  started_us : float;
  mutable sink : (Addr.partition -> redo:Part_op.t -> undo:Part_op.t -> unit) option;
      (* The facade's per-transaction redo sink, cached here so DML calls
         reuse one closure instead of building one per operation. *)
}

let id t = t.id
let executor t = t.executor
let status t = t.status

let undo_records t =
  match t.chain with Some c -> Undo_space.record_count c | None -> 0

let redo_records t = t.redo_count
let started_us t = t.started_us
let sink t = t.sink
let set_sink t s = t.sink <- Some s

let is_terminated t =
  match t.status with Committed | Aborted -> true | Active | Precommitted -> false

module Manager = struct
  type mgr = {
    undo : Undo_space.t;
    resolve_partition : Addr.partition -> Partition.t;
    invalidate_overlay : int -> unit;
    live : (int, t) Hashtbl.t;
    mutable next_id : int;
    now : unit -> float;
    recorder : Mrdb_obs.Flight_recorder.t option;
    arenas : Arena.t array; (* one per executor *)
    active : int array; (* Active transactions per executor *)
  }

  let create ~undo ~resolve_partition ~invalidate_overlay ?(now = fun () -> 0.0)
      ?recorder ?(executors = 1) () =
    if executors < 1 then Mrdb_util.Fatal.misuse "Txn.Manager.create: executors";
    { undo; resolve_partition; invalidate_overlay; live = Hashtbl.create 64;
      next_id = 1; now; recorder;
      arenas = Array.init executors (fun _ -> Arena.create ());
      active = Array.make executors 0 }

  let arena mgr ~executor = mgr.arenas.(executor)
  let arena_of mgr t = mgr.arenas.(t.executor)
  let _ = arena_of

  (* The arena resets only when its executor goes fully idle: system
     transactions nest inside user transactions on the same executor, so a
     nested commit must not recycle buffers the outer transaction is still
     staging through. *)
  let leave_active mgr t =
    let e = t.executor in
    mgr.active.(e) <- mgr.active.(e) - 1;
    if mgr.active.(e) = 0 then Arena.reset mgr.arenas.(e)

  let begin_txn ?(executor = 0) mgr =
    if executor < 0 || executor >= Array.length mgr.active then
      Mrdb_util.Fatal.misuse "Txn.begin_txn: executor out of range";
    let t =
      { id = mgr.next_id; executor; status = Active; chain = None;
        redo_count = 0; started_us = mgr.now (); sink = None }
    in
    mgr.next_id <- mgr.next_id + 1;
    Hashtbl.add mgr.live t.id t;
    mgr.active.(executor) <- mgr.active.(executor) + 1;
    (match mgr.recorder with
    | None -> ()
    | Some fr -> Mrdb_obs.Flight_recorder.txn_begin fr ~txn:t.id ~exec:executor);
    t

  let find mgr id = Hashtbl.find_opt mgr.live id

  let active_count mgr =
    Hashtbl.fold
      (fun _ t n -> match t.status with Active -> n + 1 | _ -> n)
      mgr.live 0

  let require_active t what =
    if t.status <> Active then
      Mrdb_util.Fatal.misuse (Printf.sprintf "Txn.%s: transaction %d is not active" what t.id)

  let record_update mgr t part ~redo ~undo =
    require_active t "record_update";
    ignore redo;
    let chain =
      match t.chain with
      | Some c -> c
      | None ->
          let c = Undo_space.open_chain mgr.undo in
          t.chain <- Some c;
          c
    in
    Undo_space.push mgr.undo chain part undo;
    t.redo_count <- t.redo_count + 1

  let drop_undo mgr t =
    match t.chain with
    | Some c ->
        Undo_space.discard mgr.undo c;
        t.chain <- None
    | None -> ()

  let retire mgr t = Hashtbl.remove mgr.live t.id

  let precommit mgr t =
    require_active t "precommit";
    drop_undo mgr t;
    t.status <- Precommitted;
    (* A precommitted transaction no longer references arena staging: its
       undo is discarded and its redo is already in the SLB. *)
    leave_active mgr t

  let finalize_commit mgr t =
    if t.status <> Precommitted then
      Mrdb_util.Fatal.misuse (Printf.sprintf "Txn.finalize_commit: transaction %d not precommitted" t.id);
    t.status <- Committed;
    (match mgr.recorder with
    | None -> ()
    | Some fr -> Mrdb_obs.Flight_recorder.txn_commit fr ~txn:t.id ~exec:t.executor);
    retire mgr t

  let commit mgr t =
    precommit mgr t;
    finalize_commit mgr t

  let abort mgr t =
    require_active t "abort";
    (match t.chain with
    | None -> ()
    | Some chain ->
        let records = Undo_space.pop_all mgr.undo chain in
        t.chain <- None;
        let touched_segments = Hashtbl.create 8 in
        List.iter
          (fun ((part : Addr.partition), op) ->
            let p = mgr.resolve_partition part in
            Part_op.apply p op;
            Hashtbl.replace touched_segments part.Addr.segment ())
          records;
        Hashtbl.iter (fun seg () -> mgr.invalidate_overlay seg) touched_segments);
    t.status <- Aborted;
    leave_active mgr t;
    (match mgr.recorder with
    | None -> ()
    | Some fr -> Mrdb_obs.Flight_recorder.txn_abort fr ~txn:t.id ~exec:t.executor);
    retire mgr t

  let crash_discard mgr =
    Hashtbl.reset mgr.live;
    Array.fill mgr.active 0 (Array.length mgr.active) 0;
    Array.iter Arena.reset mgr.arenas
end
