type t = {
  used : Mrdb_util.Bitset.t;
  mutable head : int;
  mutable used_count : int;
}

let create ~capacity_pages =
  if capacity_pages < 1 then Mrdb_util.Fatal.misuse "Disk_map.create";
  { used = Mrdb_util.Bitset.create capacity_pages; head = 0; used_count = 0 }

let capacity_pages t = Mrdb_util.Bitset.length t.used
let used_pages t = t.used_count
let head t = t.head
let is_used t ~page = Mrdb_util.Bitset.mem t.used page

(* Scan from the head, wrapping once, for [pages] contiguous free pages.
   Runs never wrap the physical end of the disk. *)
let allocate t ~pages =
  if pages < 1 then Mrdb_util.Fatal.misuse "Disk_map.allocate";
  let cap = capacity_pages t in
  if pages > cap - t.used_count then None
  else begin
    let found = ref None in
    let pos = ref t.head in
    let scanned = ref 0 in
    while !found = None && !scanned < cap do
      let start = !pos in
      if start + pages <= cap then begin
        let run = ref 0 in
        while !run < pages && not (Mrdb_util.Bitset.mem t.used (start + !run)) do
          incr run
        done;
        if !run = pages then found := Some start
        else begin
          let skip = !run + 1 in
          pos := (start + skip) mod cap;
          scanned := !scanned + skip
        end
      end
      else begin
        scanned := !scanned + (cap - start);
        pos := 0
      end
    done;
    match !found with
    | None -> None
    | Some start ->
        for i = start to start + pages - 1 do
          Mrdb_util.Bitset.set t.used i
        done;
        t.used_count <- t.used_count + pages;
        t.head <- (start + pages) mod cap;
        Some start
  end

let release t ~page ~pages =
  for i = page to page + pages - 1 do
    if not (Mrdb_util.Bitset.mem t.used i) then
      Mrdb_util.Fatal.misuse (Printf.sprintf "Disk_map.release: page %d not allocated" i)
  done;
  for i = page to page + pages - 1 do
    Mrdb_util.Bitset.clear t.used i
  done;
  t.used_count <- t.used_count - pages

let mark_used t ~page ~pages =
  for i = page to page + pages - 1 do
    if Mrdb_util.Bitset.mem t.used i then
      Mrdb_util.Fatal.misuse (Printf.sprintf "Disk_map.mark_used: page %d already used" i)
  done;
  for i = page to page + pages - 1 do
    Mrdb_util.Bitset.set t.used i
  done;
  t.used_count <- t.used_count + pages

let rebuild t runs =
  Mrdb_util.Bitset.reset t.used;
  t.used_count <- 0;
  t.head <- 0;
  List.iter (fun (page, pages) -> mark_used t ~page ~pages) runs
