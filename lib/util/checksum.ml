(* Slice-by-8 CRC-32 on native ints.  [table] holds eight 256-entry
   tables back to back: slice 0 is the classic byte-at-a-time table of the
   reflected polynomial, and slice k maps a byte to its contribution after
   k further zero bytes, so one step folds 8 input bytes with two 32-bit
   loads and eight lookups.  Every value fits in 32 bits, so the OCaml
   63-bit int holds the register without boxing. *)
let table =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let crc32 ?(init = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    Fatal.misuse "Checksum.crc32";
  (* Indices below are masked to 0..2047, so the unchecked reads are safe. *)
  let tab i = Array.unsafe_get table i in
  let c = ref ((Int32.to_int init land 0xFFFFFFFF) lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let one = (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) lxor !c in
    let two = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    c :=
      tab (1792 + (one land 0xFF))
      lxor tab (1536 + ((one lsr 8) land 0xFF))
      lxor tab (1280 + ((one lsr 16) land 0xFF))
      lxor tab (1024 + (one lsr 24))
      lxor tab (768 + (two land 0xFF))
      lxor tab (512 + ((two lsr 8) land 0xFF))
      lxor tab (256 + ((two lsr 16) land 0xFF))
      lxor tab (two lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := tab ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32_bytes b = crc32 b ~pos:0 ~len:(Bytes.length b)
