type rule =
  | R4
  | R6
  | R8
  | R9
  | R10
  | R11
  | Parse_error

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  msg : string;
}

let rule_name = function
  | R4 -> "R4"
  | R6 -> "R6"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"
  | R11 -> "R11"
  | Parse_error -> "parse"

let all_rules = [ R4; R6; R8; R9; R10; R11 ]

let rule_of_name s =
  List.find_opt (fun r -> rule_name r = s) all_rules

let rule_title = function
  | R4 -> "sealed interfaces"
  | R6 -> "output discipline"
  | R8 -> "determinism"
  | R9 -> "ownership"
  | R10 -> "structured raises"
  | R11 -> "allowlist hygiene"
  | Parse_error -> "unparseable source"

let paper_clause = function
  | R4 -> "architecture: every module under lib/ ships a sealed .mli interface"
  | R6 ->
      "observability: runtime output goes through Mrdb_obs.Export or "
      ^ "Mrdb_util.Texttab; no bare Printf.printf/print_string under lib/ "
      ^ "outside lib/obs and util/texttab.ml"
  | R8 ->
      "paper 2.3/2.5: recovery replays the SLB->SLT commit order to "
      ^ "reconstruct the exact committed state, so no function reachable "
      ^ "from the commit, drain, or recovery entry points may draw hidden "
      ^ "nondeterminism (wall clock, Random, polymorphic Hashtbl.hash, or "
      ^ "unordered Hashtbl iteration) unless a justified allowlist entry "
      ^ "covers it"
  | R9 ->
      "single-owner log chains (Wu et al., parallel replay): every piece "
      ^ "of shared mutable state has exactly one owning module; a write "
      ^ "site outside the owner is legal only when every call chain to it "
      ^ "passes through the owner (checked on the cross-module call graph, "
      ^ "not per-file paths); the registry includes raw stable-memory "
      ^ "writes (paper 2.2: stable memory is \"protected from wild or "
      ^ "malicious stores\") and device fault injection (faults are "
      ^ "simulated inputs, never production behaviour)"
  | R10 ->
      "recovery correctness: every raise under lib/ must construct a "
      ^ "declared structured exception (Fatal.Invariant, the capacity "
      ^ "exceptions) so corruption, misuse and capacity stay distinguishable "
      ^ "after a crash; a bare partial function (failwith, invalid_arg, "
      ^ "assert false, Option.get, List.hd) raises an unregistered stdlib "
      ^ "exception, so go through Mrdb_util.Fatal; 'try ... with _ ->' "
      ^ "wildcards swallow that evidence"
  | R11 ->
      "analyzer hygiene: every allowlist/registry entry in Rules must "
      ^ "still match a real file, binding or identifier, so suppressions "
      ^ "cannot go stale silently"
  | Parse_error -> "mrdb_lint cannot check what it cannot parse"

let make ~rule ~file ~line ~col msg = { rule; file; line; col; msg }

let compare_diag a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (rule_name a.rule) (rule_name b.rule)

(* The rule id sits in its own column right after the position, so
   diagnostics grep by rule with a stable pattern: ': R8 \['. *)
let pp ppf d =
  Format.fprintf ppf "%s:%d:%d: %s [%s] %s@,    (%s)" d.file d.line d.col
    (rule_name d.rule) (rule_title d.rule) d.msg (paper_clause d.rule)

let to_string d = Format.asprintf "@[<v>%a@]" pp d
