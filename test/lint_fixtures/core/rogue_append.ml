(* A non-WAL module appending directly to an SLB region, bypassing the
   per-executor redo sink that owns the region.  The real tree's R9
   "striped SLB regions" resource flags it ([mrdb_lint test/lint_fixtures]);
   the golden's fixture configuration does not register that resource,
   so the golden carries no row for this file. *)

let smuggle region = Mrdb_wal.Slb.Region.append region ~txn_id:7 "rogue record"
