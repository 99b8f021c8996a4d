(* R9 fixture (device fault injection): production code fabricating a
   device fault — only lib/fault (and unlinted tests) may do this. *)

let sabotage disk = Mrdb_hw.Disk.fail disk
