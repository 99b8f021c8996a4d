(* Fixture: nondeterminism sources at varying reachability.  Only [stamp]
   is reachable from the fixture entry point (Driver.commit_like), so only
   its clock read is an R8 violation; [offline] is dead from the entry
   points and must not be flagged; [tally] iterates a hash table, which
   the fixture configuration's allow row exempts. *)

let stamp () = int_of_float (Sys.time ())

let offline () = int_of_float (Unix.gettimeofday ())

let tally () =
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl 0 1;
  let xs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.fold_left (fun acc (_, v) -> acc + v) 0 (List.sort compare xs)
