(* Negative fixture: the fault subsystem owns R9's device fault injection
   resource, so the call that convicts core/inject.ml is sanctioned here. *)

let break_disk disk = Mrdb_hw.Disk.fail disk
