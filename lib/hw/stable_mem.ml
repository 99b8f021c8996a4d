type fault_hook = { on_write : off:int -> len:int -> unit }

type t = {
  data : bytes;
  slowdown : float;
  mutable hook : fault_hook option;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

let create ?(slowdown = 4.0) ~size () =
  if size <= 0 then Mrdb_util.Fatal.misuse "Stable_mem.create: size";
  { data = Bytes.make size '\000'; slowdown; hook = None; bytes_read = 0; bytes_written = 0 }

let size t = Bytes.length t.data
let slowdown t = t.slowdown

let check t off len =
  if off < 0 || len < 0 || off + len > size t then
    Mrdb_util.Fatal.misuse
      (Printf.sprintf "Stable_mem: access [%d, %d) outside [0, %d)" off
         (off + len) (size t))

(* One branch on the logging hot path; bench/hotpath.ml's [append_hooked]
   guards its cost.  Every mutator calls it before its store, so a hook
   that raises means "crash before this write". *)
let notify_write t ~off ~len =
  match t.hook with None -> () | Some h -> h.on_write ~off ~len

let write_sub t ~off b ~pos ~len =
  check t off len;
  notify_write t ~off ~len;
  Bytes.blit b pos t.data off len;
  t.bytes_written <- t.bytes_written + len

let write t ~off b = write_sub t ~off b ~pos:0 ~len:(Bytes.length b)

let read t ~off ~len =
  check t off len;
  t.bytes_read <- t.bytes_read + len;
  Bytes.sub t.data off len

let blit_out t ~off b ~pos ~len =
  check t off len;
  Bytes.blit t.data off b pos len;
  t.bytes_read <- t.bytes_read + len

let fill t ~off ~len c =
  check t off len;
  notify_write t ~off ~len;
  Bytes.fill t.data off len c;
  t.bytes_written <- t.bytes_written + len

let get_u32 t ~off =
  check t off 4;
  t.bytes_read <- t.bytes_read + 4;
  Mrdb_util.Codec.get_u32 t.data off

let put_u32 t ~off v =
  check t off 4;
  notify_write t ~off ~len:4;
  t.bytes_written <- t.bytes_written + 4;
  Mrdb_util.Codec.put_u32 t.data off v

let get_i64 t ~off =
  check t off 8;
  t.bytes_read <- t.bytes_read + 8;
  Mrdb_util.Codec.get_i64 t.data off

let put_i64 t ~off v =
  check t off 8;
  notify_write t ~off ~len:8;
  t.bytes_written <- t.bytes_written + 8;
  Mrdb_util.Codec.put_i64 t.data off v

let crash (_ : t) = ()

let set_fault_hook t hook = t.hook <- hook

(* Injection only (lint R9): flip bytes behind the wild-write protection —
   models a stable-memory cell losing its contents, which the redundant
   structures above (the well-known area's second copy) must absorb. *)
let corrupt t ~off ~len =
  check t off len;
  for i = off to off + len - 1 do
    Bytes.set t.data i (Char.chr (Char.code (Bytes.get t.data i) lxor 0xFF))
  done

let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written

module Blocks = struct
  type alloc = {
    mem : t;
    region_off : int;
    block_bytes : int;
    used : Mrdb_util.Bitset.t;
    mutable next_hint : int;
  }

  let create mem ~region_off ~block_bytes ~count =
    if block_bytes <= 0 || count <= 0 then Mrdb_util.Fatal.misuse "Stable_mem.Blocks.create";
    check mem region_off (block_bytes * count);
    {
      mem;
      region_off;
      block_bytes;
      used = Mrdb_util.Bitset.create count;
      next_hint = 0;
    }

  let block_bytes a = a.block_bytes
  let count a = Mrdb_util.Bitset.length a.used
  let free_count a = count a - Mrdb_util.Bitset.cardinal a.used

  let alloc a =
    match Mrdb_util.Bitset.first_clear_from a.used a.next_hint with
    | None -> None
    | Some i ->
        Mrdb_util.Bitset.set a.used i;
        a.next_hint <- (i + 1) mod count a;
        Some i

  let free a i =
    if not (Mrdb_util.Bitset.mem a.used i) then
      Mrdb_util.Fatal.misuse "Stable_mem.Blocks.free: block not allocated";
    Mrdb_util.Bitset.clear a.used i

  let offset_of_block a i =
    if i < 0 || i >= count a then Mrdb_util.Fatal.misuse "Stable_mem.Blocks.offset_of_block";
    a.region_off + (i * a.block_bytes)

  let is_allocated a i = Mrdb_util.Bitset.mem a.used i

  let rebuild_after_crash a ~live =
    Mrdb_util.Bitset.reset a.used;
    List.iter (fun i -> Mrdb_util.Bitset.set a.used i) live;
    a.next_hint <- 0
end
