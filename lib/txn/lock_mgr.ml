type mode = IS | IX | S | SIX | X

type resource =
  | Relation of int
  | Entity of Mrdb_storage.Addr.t

type outcome = Granted | Blocked | Deadlock

(* Modes are ranked ints internally (IS=0 IX=1 S=2 SIX=3 X=4, -1 = none):
   the hot path runs on table lookups and never boxes a [mode option].
   The compatibility matrix is five bitmasks; the supremum a flat 5x5
   table. *)
let rank = function IS -> 0 | IX -> 1 | S -> 2 | SIX -> 3 | X -> 4
let of_rank = function
  | 0 -> IS
  | 1 -> IX
  | 2 -> S
  | 3 -> SIX
  | _ -> X

(* compat_mask.(a) bit b <=> a compatible with b (symmetric). *)
let compat_mask = [| 0b01111; 0b00011; 0b00101; 0b00001; 0b00000 |]
let compat_i a b = (compat_mask.(a) lsr b) land 1 <> 0

(* sup_tab.(a*5+b) = least mode covering both. *)
let sup_tab =
  [| 0; 1; 2; 3; 4;
     1; 1; 3; 3; 4;
     2; 3; 2; 3; 4;
     3; 3; 3; 3; 4;
     4; 4; 4; 4; 4 |]
let sup_i a b = sup_tab.((a * 5) + b)
let covers_i held wanted = held = wanted || sup_i held wanted = held

let compatible a b = compat_i (rank a) (rank b)
let supremum a b = of_rank (sup_i (rank a) (rank b))

(* One request per (resource, txn), pooled and intrusively linked twice:
   [next_e] chains the owning entry's FIFO queue, [next_t] chains the
   transaction's lock list (what release_all walks).  [nil_req] is the
   shared list terminator, so the steady-state lock path allocates
   nothing — acquire pops a node from the free list and release pushes it
   back. *)
type entry = {
  mutable res_rel : int; (* relation id, or -1 for an entity entry *)
  mutable res_ent : Mrdb_storage.Addr.t; (* meaningful iff res_rel < 0 *)
  mutable head : request; (* FIFO queue; nil_req = empty *)
  mutable tail : request;
  mutable free_e : entry; (* entry free-list link *)
}

and request = {
  mutable txn : int;
  mutable granted : int; (* -1 = none *)
  mutable waiting : int; (* -1 = none *)
  mutable owner : entry;
  mutable next_e : request;
  mutable next_t : request;
}

let dummy_addr = Mrdb_storage.Addr.make ~segment:0 ~partition:0 ~slot:0

let rec nil_req =
  { txn = min_int; granted = -1; waiting = -1; owner = nil_entry;
    next_e = nil_req; next_t = nil_req }

and nil_entry =
  { res_rel = -1; res_ent = dummy_addr; head = nil_req; tail = nil_req;
    free_e = nil_entry }

module Addr_table = Hashtbl.Make (struct
  type t = Mrdb_storage.Addr.t

  let equal = Mrdb_storage.Addr.equal
  let hash = Mrdb_storage.Addr.hash
end)

(* Entity entries are sharded by address hash (executors working disjoint
   key ranges touch disjoint shards); relation entries live in one small
   table.  Sharding is purely a partition of storage — grant, FIFO and
   deadlock semantics are identical for any shard count. *)
type t = {
  rels : (int, entry) Hashtbl.t;
  ents : entry Addr_table.t array;
  by_txn : (int, request) Hashtbl.t; (* txn -> newest-first request chain *)
  mutable free_req : request;
  mutable free_entry : entry;
}

let create ?(shards = 1) () =
  if shards < 1 then Mrdb_util.Fatal.misuse "Lock_mgr.create: shards must be >= 1";
  {
    rels = Hashtbl.create 64;
    ents = Array.init shards (fun _ -> Addr_table.create 512);
    by_txn = Hashtbl.create 64;
    free_req = nil_req;
    free_entry = nil_entry;
  }

let shard_count t = Array.length t.ents

let res_hash = function
  | Relation x -> ((x * 0x3b58_66e9) + 0x9e37_79b9) land max_int
  | Entity a -> Mrdb_storage.Addr.hash a

let shard_of t res = res_hash res mod Array.length t.ents
let ent_table t a = t.ents.(Mrdb_storage.Addr.hash a mod Array.length t.ents)

(* -- pools ----------------------------------------------------------------- *)

let alloc_req t =
  let r = t.free_req in
  if r == nil_req then
    { txn = 0; granted = -1; waiting = -1; owner = nil_entry;
      next_e = nil_req; next_t = nil_req }
  else begin
    t.free_req <- r.next_t;
    r
  end

let free_req t r =
  r.granted <- -1;
  r.waiting <- -1;
  r.owner <- nil_entry;
  r.next_e <- nil_req;
  r.next_t <- t.free_req;
  t.free_req <- r

let alloc_entry t =
  let e = t.free_entry in
  if e == nil_entry then
    { res_rel = -1; res_ent = dummy_addr; head = nil_req; tail = nil_req;
      free_e = nil_entry }
  else begin
    t.free_entry <- e.free_e;
    e.free_e <- nil_entry;
    e
  end

let free_entry t e =
  e.res_rel <- -1;
  e.res_ent <- dummy_addr;
  e.head <- nil_req;
  e.tail <- nil_req;
  e.free_e <- t.free_entry;
  t.free_entry <- e

(* -- entry lookup ----------------------------------------------------------- *)

let entry_find t res =
  match res with
  | Relation id -> (
      match Hashtbl.find t.rels id with
      | e -> e
      | exception Not_found -> nil_entry)
  | Entity a -> (
      match Addr_table.find (ent_table t a) a with
      | e -> e
      | exception Not_found -> nil_entry)

let entry_of t res =
  let e = entry_find t res in
  if e != nil_entry then e
  else
    let e = alloc_entry t in
    (match res with
    | Relation id ->
        e.res_rel <- id;
        Hashtbl.add t.rels id e
    | Entity a ->
        e.res_rel <- -1;
        e.res_ent <- a;
        Addr_table.add (ent_table t a) a e);
    e

let drop_entry t e =
  if e.res_rel >= 0 then Hashtbl.remove t.rels e.res_rel
  else Addr_table.remove (ent_table t e.res_ent) e.res_ent;
  free_entry t e

let queue_append e r =
  r.next_e <- nil_req;
  if e.head == nil_req then e.head <- r else e.tail.next_e <- r;
  e.tail <- r

let request_of e txn =
  let r = ref e.head in
  while !r != nil_req && !r.txn <> txn do r := !r.next_e done;
  !r

let chain_add t ~txn r =
  match Hashtbl.find t.by_txn txn with
  | head ->
      r.next_t <- head;
      Hashtbl.replace t.by_txn txn r
  | exception Not_found ->
      r.next_t <- nil_req;
      Hashtbl.add t.by_txn txn r

(* -- wait graph -------------------------------------------------------------- *)

(* Transactions that must release before mode [m] can be granted to [txn]:
   holders of incompatible granted modes, plus (for fresh requests, FIFO
   fairness) incompatible waiters; pure upgrades only wait on holders. *)
let blockers_for e ~txn ~m ~upgrade =
  let acc = ref [] in
  let note id = if id <> txn && not (List.mem id !acc) then acc := id :: !acc in
  let r = ref e.head in
  while !r != nil_req do
    let o = !r in
    if o.txn <> txn then begin
      if o.granted >= 0 && not (compat_i m o.granted) then note o.txn;
      if o.waiting >= 0 && (not upgrade) && not (compat_i m o.waiting) then
        note o.txn
    end;
    r := o.next_e
  done;
  !acc

let waiting_request_of t ~txn =
  match Hashtbl.find t.by_txn txn with
  | head ->
      let r = ref head in
      while !r != nil_req && !r.waiting < 0 do r := !r.next_t done;
      !r
  | exception Not_found -> nil_req

let waiting_for t ~txn =
  let r = waiting_request_of t ~txn in
  if r == nil_req then []
  else
    blockers_for r.owner ~txn ~m:r.waiting ~upgrade:(r.granted >= 0)

(* Would making [txn] wait on [new_blockers] close a waits-for cycle? *)
let creates_cycle t ~txn new_blockers =
  let visited = Hashtbl.create 16 in
  let rec reaches target id =
    if id = target then true
    else if Hashtbl.mem visited id then false
    else begin
      Hashtbl.add visited id ();
      List.exists (reaches target) (waiting_for t ~txn:id)
    end
  in
  List.exists (reaches txn) new_blockers

(* A fresh request appends at the queue tail, so every existing element is
   ahead of it: any incompatible holder or any waiter at all (FIFO — no
   overtaking) blocks it. *)
let fresh_can_grant e ~m =
  let ok = ref true in
  let r = ref e.head in
  while !ok && !r != nil_req do
    let o = !r in
    if o.granted >= 0 && not (compat_i m o.granted) then ok := false;
    if o.waiting >= 0 then ok := false;
    r := o.next_e
  done;
  !ok

(* -- acquire ----------------------------------------------------------------- *)

let acquire t ~txn res mode =
  let m = rank mode in
  let e = entry_of t res in
  let r = request_of e txn in
  if r != nil_req then begin
    if r.granted >= 0 && covers_i r.granted m then Granted
    else if r.granted >= 0 then begin
      let target = sup_i r.granted m in
      let others_block = ref false in
      let o = ref e.head in
      while (not !others_block) && !o != nil_req do
        if !o.txn <> txn && !o.granted >= 0 && not (compat_i target !o.granted)
        then others_block := true;
        o := !o.next_e
      done;
      if not !others_block then begin
        r.granted <- target;
        Granted
      end
      else begin
        let blockers = blockers_for e ~txn ~m:target ~upgrade:true in
        if creates_cycle t ~txn blockers then Deadlock
        else begin
          r.waiting <- target;
          Blocked
        end
      end
    end
    else begin
      (* Already queued and still waiting; treat as blocked (possibly
         raising the waiting mode). *)
      r.waiting <- sup_i r.waiting m;
      Blocked
    end
  end
  else if fresh_can_grant e ~m then begin
    let r = alloc_req t in
    r.txn <- txn;
    r.granted <- m;
    r.owner <- e;
    queue_append e r;
    chain_add t ~txn r;
    Granted
  end
  else begin
    let blockers = blockers_for e ~txn ~m ~upgrade:false in
    if creates_cycle t ~txn blockers then begin
      (* Nothing is queued for the victim; an entry freshly created by this
         very call must not leak. *)
      if e.head == nil_req then drop_entry t e;
      Deadlock
    end
    else begin
      let r = alloc_req t in
      r.txn <- txn;
      r.waiting <- m;
      r.owner <- e;
      queue_append e r;
      chain_add t ~txn r;
      Blocked
    end
  end

let holds t ~txn res mode =
  let e = entry_find t res in
  if e == nil_entry then false
  else
    let r = request_of e txn in
    r != nil_req && r.granted >= 0 && covers_i r.granted (rank mode)

(* -- promotion & release ------------------------------------------------------ *)

(* After queue changes, promote waiting requests that can now be granted.
   Returns the txns whose requests became granted (reverse queue order,
   matching the wake-order the deterministic schedule depends on). *)
let promote e =
  let newly = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    let r = ref e.head in
    while !r != nil_req do
      let cand = !r in
      if cand.waiting >= 0 then begin
        let target =
          if cand.granted >= 0 then sup_i cand.granted cand.waiting
          else cand.waiting
        in
        let upgrade = cand.granted >= 0 in
        (* Is [o] queued ahead of [cand]? *)
        let before o =
          let x = ref e.head in
          let res = ref false and decided = ref false in
          while not !decided do
            if !x == o then begin res := true; decided := true end
            else if !x == cand || !x == nil_req then decided := true
            else x := !x.next_e
          done;
          !res
        in
        let ok = ref true in
        let o = ref e.head in
        while !ok && !o != nil_req do
          let other = !o in
          if other.txn <> cand.txn then begin
            if other.granted >= 0 then begin
              if not (compat_i target other.granted) then ok := false
            end
            else if
              (* FIFO among pure waiters: an upgrade may overtake; a pure
                 waiter must not pass an earlier incompatible waiter. *)
              (not upgrade)
              && before other
              && not (compat_i target other.waiting)
            then ok := false
          end;
          o := other.next_e
        done;
        if !ok then begin
          cand.granted <- target;
          cand.waiting <- -1;
          newly := cand.txn :: !newly;
          progress := true
        end
      end;
      r := cand.next_e
    done
  done;
  !newly

let queue_remove e ~txn =
  let removed = ref false in
  let prev = ref nil_req and r = ref e.head in
  while !r != nil_req do
    let cur = !r in
    let next = cur.next_e in
    if cur.txn = txn then begin
      if !prev == nil_req then e.head <- next else !prev.next_e <- next;
      if e.tail == cur then e.tail <- !prev;
      removed := true
    end
    else prev := cur;
    r := next
  done;
  !removed

let release_all t ~txn =
  match Hashtbl.find t.by_txn txn with
  | exception Not_found -> []
  | head ->
      Hashtbl.remove t.by_txn txn;
      let woken = ref [] in
      let r = ref head in
      while !r != nil_req do
        let cur = !r in
        let next = cur.next_t in
        let e = cur.owner in
        ignore (queue_remove e ~txn);
        free_req t cur;
        if e.head == nil_req then drop_entry t e
        else
          List.iter
            (fun id -> if not (List.mem id !woken) then woken := id :: !woken)
            (promote e);
        r := next
      done;
      (* Only report txns that are no longer waiting on anything. *)
      List.filter (fun id -> waiting_request_of t ~txn:id == nil_req) !woken

let locked_resources t ~txn =
  match Hashtbl.find t.by_txn txn with
  | exception Not_found -> []
  | head ->
      let acc = ref [] in
      let r = ref head in
      while !r != nil_req do
        let e = !r.owner in
        acc :=
          (if e.res_rel >= 0 then Relation e.res_rel else Entity e.res_ent)
          :: !acc;
        r := !r.next_t
      done;
      List.rev !acc

let pp_resource ppf = function
  | Relation id -> Format.fprintf ppf "rel:%d" id
  | Entity a -> Format.fprintf ppf "ent:%a" Mrdb_storage.Addr.pp a
