(* Struct-of-arrays ring: recording touches five preallocated arrays and
   a cursor — nothing is boxed, so the recorder can sit inside
   Slb.Region.append without moving the hot-path needle
   (bench/hotpath.ml's append_obs bounds the cost in CI). *)

type event =
  | Txn_begin of { txn : int; exec : int }
  | Txn_commit of { txn : int; exec : int }
  | Txn_abort of { txn : int; exec : int }
  | Slb_append of { txn : int; bytes : int; exec : int }
  | Sorter_drain of { txns : int; records : int }
  | Bin_flush of { segment : int; partition : int }
  | Ckpt_trigger of { segment : int; partition : int; by_age : bool }
  | Crash
  | Fault of string
  | Partition_restored of { segment : int; partition : int; records : int }
  | Phase of string

(* Kind codes for the flat encoding. *)
let k_txn_begin = 0
and k_txn_commit = 1
and k_txn_abort = 2
and k_slb_append = 3
and k_sorter_drain = 4
and k_bin_flush = 5
and k_ckpt_trigger = 6
and k_crash = 7
and k_fault = 8
and k_partition_restored = 9
and k_phase = 10

type t = {
  now : unit -> float;
  cap : int;
  kinds : int array;
  a : int array;
  b : int array;
  c : int array;
  times : float array;
  mutable next : int; (* total recorded; slot = next mod cap *)
  (* Interned strings for the rare string-carrying events; [a] holds the
     intern index.  Linear scan on record is fine: the table stays tiny
     (a handful of fault kinds and phase names). *)
  mutable strings : string array;
  mutable n_strings : int;
}

let create ?(capacity = 4096) ~now () =
  let cap = Stdlib.max 16 capacity in
  {
    now;
    cap;
    kinds = Array.make cap 0;
    a = Array.make cap 0;
    b = Array.make cap 0;
    c = Array.make cap 0;
    times = Array.make cap 0.0;
    next = 0;
    strings = Array.make 8 "";
    n_strings = 0;
  }

let intern t s =
  let rec find i = if i >= t.n_strings then -1 else if t.strings.(i) == s || t.strings.(i) = s then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then i
  else begin
    if t.n_strings = Array.length t.strings then begin
      let bigger = Array.make (2 * t.n_strings) "" in
      Array.blit t.strings 0 bigger 0 t.n_strings;
      t.strings <- bigger
    end;
    t.strings.(t.n_strings) <- s;
    t.n_strings <- t.n_strings + 1;
    t.n_strings - 1
  end

let push t kind a b c =
  let slot = t.next mod t.cap in
  t.kinds.(slot) <- kind;
  t.a.(slot) <- a;
  t.b.(slot) <- b;
  t.c.(slot) <- c;
  t.times.(slot) <- t.now ();
  t.next <- t.next + 1

let txn_begin t ~txn ~exec = push t k_txn_begin txn exec 0
let txn_commit t ~txn ~exec = push t k_txn_commit txn exec 0
let txn_abort t ~txn ~exec = push t k_txn_abort txn exec 0
let slb_append t ~txn ~bytes ~exec = push t k_slb_append txn bytes exec
let sorter_drain t ~txns ~records = push t k_sorter_drain txns records 0
let bin_flush t ~segment ~partition = push t k_bin_flush segment partition 0

let ckpt_trigger t ~segment ~partition ~by_age =
  push t k_ckpt_trigger segment partition (if by_age then 1 else 0)

let crash t = push t k_crash 0 0 0
let fault t ~kind = push t k_fault (intern t kind) 0 0

let partition_restored t ~segment ~partition ~records =
  push t k_partition_restored segment partition records

let phase t name = push t k_phase (intern t name) 0 0

let capacity t = t.cap
let recorded t = t.next

let clear t = t.next <- 0

let decode t slot =
  let a = t.a.(slot) and b = t.b.(slot) and c = t.c.(slot) in
  match t.kinds.(slot) with
  | 0 -> Txn_begin { txn = a; exec = b }
  | 1 -> Txn_commit { txn = a; exec = b }
  | 2 -> Txn_abort { txn = a; exec = b }
  | 3 -> Slb_append { txn = a; bytes = b; exec = c }
  | 4 -> Sorter_drain { txns = a; records = b }
  | 5 -> Bin_flush { segment = a; partition = b }
  | 6 -> Ckpt_trigger { segment = a; partition = b; by_age = c = 1 }
  | 7 -> Crash
  | 8 -> Fault t.strings.(a)
  | 9 -> Partition_restored { segment = a; partition = b; records = c }
  | 10 -> Phase t.strings.(a)
  | k -> Mrdb_util.Fatal.invariantf ~mod_:"Flight_recorder" "unknown event kind %d" k

let events ?limit t =
  let live = Stdlib.min t.next t.cap in
  let keep = match limit with None -> live | Some l -> Stdlib.min l live in
  let first = t.next - keep in
  List.init keep (fun i ->
      let idx = first + i in
      let slot = idx mod t.cap in
      (t.times.(slot), decode t slot))

let pp_event ppf = function
  | Txn_begin { txn; exec } -> Format.fprintf ppf "txn_begin txn=%d e%d" txn exec
  | Txn_commit { txn; exec } ->
      Format.fprintf ppf "txn_commit txn=%d e%d" txn exec
  | Txn_abort { txn; exec } -> Format.fprintf ppf "txn_abort txn=%d e%d" txn exec
  | Slb_append { txn; bytes; exec } ->
      Format.fprintf ppf "slb_append txn=%d bytes=%d e%d" txn bytes exec
  | Sorter_drain { txns; records } ->
      Format.fprintf ppf "sorter_drain txns=%d records=%d" txns records
  | Bin_flush { segment; partition } ->
      Format.fprintf ppf "bin_flush part=%d.%d" segment partition
  | Ckpt_trigger { segment; partition; by_age } ->
      Format.fprintf ppf "ckpt_trigger part=%d.%d by=%s" segment partition
        (if by_age then "age" else "update_count")
  | Crash -> Format.pp_print_string ppf "crash"
  | Fault kind -> Format.fprintf ppf "fault %s" kind
  | Partition_restored { segment; partition; records } ->
      Format.fprintf ppf "partition_restored part=%d.%d records=%d" segment
        partition records
  | Phase name -> Format.fprintf ppf "phase %s" name

let dump ?(limit = 200) ppf t =
  let evs = events ~limit t in
  Format.fprintf ppf "flight recorder: %d recorded, showing last %d@."
    (recorded t) (List.length evs);
  List.iter
    (fun (at, ev) -> Format.fprintf ppf "  [%12.1f us] %a@." at pp_event ev)
    evs
