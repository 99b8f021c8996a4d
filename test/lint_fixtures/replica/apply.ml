(* Negative fixture: the batch-install path itself.  replica/apply.ml is
   the one replication file owning R9's stable-memory resource, so the same
   mutation that convicts rogue_apply.ml is sanctioned here — asserted by
   this file's absence from the golden diagnostic list. *)

let install mem = Mrdb_hw.Stable_mem.put_u32 mem ~off:0 0xC0FFEE
