(* R7 fixture: a non-WAL module appending directly to an SLB region,
   bypassing the per-executor redo sink that owns the region. *)

let smuggle region = Mrdb_wal.Slb.Region.append region ~txn_id:7 "rogue record"
