type t = { words : Bytes.t; n : int; mutable set_count : int }

let create n =
  if n < 0 then Fatal.misuse "Bitset.create";
  { words = Bytes.make ((n + 7) / 8) '\000'; n; set_count = 0 }

let length t = t.n

let check t i = if i < 0 || i >= t.n then Fatal.misuse "Bitset: index out of range"

let mem t i =
  check t i;
  Char.code (Bytes.get t.words (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  if not (mem t i) then begin
    let byte = Char.code (Bytes.get t.words (i lsr 3)) in
    Bytes.set t.words (i lsr 3) (Char.chr (byte lor (1 lsl (i land 7))));
    t.set_count <- t.set_count + 1
  end

let clear t i =
  check t i;
  if mem t i then begin
    let byte = Char.code (Bytes.get t.words (i lsr 3)) in
    Bytes.set t.words (i lsr 3) (Char.chr (byte land lnot (1 lsl (i land 7)) land 0xFF));
    t.set_count <- t.set_count - 1
  end

let cardinal t = t.set_count

let first_clear_from t start =
  if t.set_count = t.n then None
  else begin
    let start = if t.n = 0 then 0 else start mod t.n in
    let rec scan k =
      if k >= t.n then None
      else
        let i = (start + k) mod t.n in
        if mem t i then scan (k + 1) else Some i
    in
    scan 0
  end

let first_clear t = first_clear_from t 0

let copy t = { words = Bytes.copy t.words; n = t.n; set_count = t.set_count }

let reset t =
  Bytes.fill t.words 0 (Bytes.length t.words) '\000';
  t.set_count <- 0
