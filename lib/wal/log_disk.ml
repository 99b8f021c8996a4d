type read_error =
  | Out_of_window of { lsn : int64; window_start : int64; next_lsn : int64 }
  | Stale_slot of { wanted : int64; found : int64 }
  | Unreadable of { lsn : int64; reason : string }

let read_error_to_string = function
  | Out_of_window { lsn; window_start; next_lsn } ->
      Printf.sprintf "lsn %Ld outside window [%Ld, %Ld)" lsn window_start next_lsn
  | Stale_slot { wanted; found } ->
      Printf.sprintf "slot reused: wanted lsn %Ld, found %Ld" wanted found
  | Unreadable { lsn; reason } -> Printf.sprintf "lsn %Ld unreadable: %s" lsn reason

type t = {
  sim : Mrdb_sim.Sim.t;
  layout : Stable_layout.t;
  duplex : Mrdb_hw.Duplex.t;
  window_pages : int;
  mutable pages_written : int;
  mutable tap : (lsn:int64 -> bytes -> unit) option;
}

let create sim ~layout ?params ?trace ~window_pages () =
  if window_pages < 1 then Mrdb_util.Fatal.misuse "Log_disk.create: window_pages";
  let cfg = Stable_layout.config layout in
  let params =
    match params with
    | Some p -> p
    | None -> Mrdb_hw.Disk.default_log_params ~page_bytes:cfg.Stable_layout.log_page_bytes
  in
  if params.Mrdb_hw.Disk.page_bytes <> cfg.Stable_layout.log_page_bytes then
    Mrdb_util.Fatal.misuse "Log_disk.create: disk page size <> log page size";
  {
    sim;
    layout;
    duplex =
      Mrdb_hw.Duplex.create ~name:"logdisk" ?trace sim ~params ~capacity_pages:window_pages;
    window_pages;
    pages_written = 0;
    tap = None;
  }

let sim t = t.sim

let set_tap t f = t.tap <- Some f

let window_pages t = t.window_pages
let page_bytes t = (Stable_layout.config t.layout).Stable_layout.log_page_bytes
let dir_size t = (Stable_layout.config t.layout).Stable_layout.dir_size
let duplex t = t.duplex
let trace t = Mrdb_hw.Duplex.trace t.duplex

let next_lsn t = Stable_layout.next_lsn t.layout

let window_start t =
  let n = next_lsn t in
  Int64.max 0L (Int64.sub n (Int64.of_int t.window_pages))

let in_window t lsn =
  lsn >= 0L && lsn < next_lsn t && lsn >= window_start t

let alloc_lsn t =
  let lsn = next_lsn t in
  Stable_layout.set_next_lsn t.layout (Int64.add lsn 1L);
  lsn

let slot t lsn = Int64.to_int (Int64.rem lsn (Int64.of_int t.window_pages))

let write_page t ~lsn image k =
  if Bytes.length image <> page_bytes t then
    Mrdb_util.Fatal.misuse "Log_disk.write_page: wrong image size";
  if lsn < 0L || lsn >= next_lsn t || lsn < window_start t then
    Mrdb_util.Fatal.misuse "Log_disk.write_page: LSN outside window";
  t.pages_written <- t.pages_written + 1;
  (match t.tap with Some f -> f ~lsn image | None -> ());
  Mrdb_hw.Duplex.write_page t.duplex ~page:(slot t lsn) image k

let read_page t ~lsn k =
  if not (in_window t lsn) then
    k (Error (Out_of_window { lsn; window_start = window_start t; next_lsn = next_lsn t }))
  else
    (* Duplex-level verification: a copy failing the CRC triggers the
       mirror fallback; only a page unreadable from every mirror surfaces
       here as [Unreadable].  A younger page legitimately occupying the
       slot passes the CRC on both mirrors and is reported [Stale_slot].
       Only the accepted image's header is decoded, without a second CRC
       pass; its records stay in the image for the replay kernel. *)
    Mrdb_hw.Duplex.read_page t.duplex ~page:(slot t lsn)
      ~verify:(Log_page.verify ~page_bytes:(page_bytes t))
      (function
        | Error reason -> k (Error (Unreadable { lsn; reason }))
        | Ok image -> (
            match Log_page.decode ~page_bytes:(page_bytes t) ~dir_size:(dir_size t) image with
            | Error e -> k (Error (Unreadable { lsn; reason = e }))
            | Ok ((header, _) as page) ->
                if header.Log_page.lsn <> lsn then
                  k (Error (Stale_slot { wanted = lsn; found = header.Log_page.lsn }))
                else k (Ok page)))

let install_page t ~lsn image =
  if Bytes.length image <> page_bytes t then
    Mrdb_util.Fatal.misuse "Log_disk.install_page: wrong image size";
  if lsn < 0L then Mrdb_util.Fatal.misuse "Log_disk.install_page: negative LSN";
  Mrdb_hw.Duplex.install_page t.duplex ~page:(slot t lsn) image

let peek_page t ~lsn =
  if in_window t lsn then Mrdb_hw.Duplex.peek_page t.duplex ~page:(slot t lsn)
  else None

let pages_written t = t.pages_written
