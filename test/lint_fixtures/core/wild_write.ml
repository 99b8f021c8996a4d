(* R9 fixture (stable memory): the main-CPU transaction path writing
   stable memory raw, bypassing the SLB/SLT/partition-bin interfaces. *)

let clobber mem = Mrdb_hw.Stable_mem.put_u32 mem ~off:0 0xDEAD
