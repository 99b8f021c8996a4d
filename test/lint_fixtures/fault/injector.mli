val break_disk : Mrdb_hw.Disk.t -> unit
