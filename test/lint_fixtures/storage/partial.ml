(* R10 fixture: bare partial functions instead of Mrdb_util.Fatal, one per
   banned spelling; each raises an unregistered stdlib exception. *)
let explode () = failwith "boom"
let refuse n = if n < 0 then invalid_arg "negative" else n
let unreachable () = assert false
let force o = Option.get o
let first xs = List.hd xs
let qualified () = Stdlib.failwith "boom"
