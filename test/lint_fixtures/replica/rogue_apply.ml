(* R9 fixture: a standby-side module writing stable memory raw and
   degrading the ship link — only replica/apply.ml may install a stable
   image, and no replica file may inject device faults. *)

let smuggle mem = Mrdb_hw.Stable_mem.put_u32 mem ~off:0 0xBEEF

let strangle ch = Mrdb_hw.Ship_channel.set_drop ch true
