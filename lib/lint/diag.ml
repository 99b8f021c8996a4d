type rule =
  | R1
  | R3
  | R4
  | R5
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
  fp : string;
}

let rule_name = function
  | R1 -> "R1"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"
  | R11 -> "R11"
  | Parse_error -> "parse"

let all_rules = [ R1; R3; R4; R5; R6; R8; R9; R10; R11 ]

let rule_of_name s =
  List.find_opt (fun r -> rule_name r = s) all_rules

let rule_title = function
  | R1 -> "wild-write discipline"
  | R3 -> "partiality"
  | R4 -> "sealed interfaces"
  | R5 -> "fault-injection containment"
  | R6 -> "output discipline"
  | R8 -> "determinism"
  | R9 -> "ownership"
  | R10 -> "structured raises"
  | R11 -> "allowlist hygiene"
  | Parse_error -> "unparseable source"

let paper_clause = function
  | R1 ->
      "paper 2.2: stable memory is \"protected from wild or malicious "
      ^ "stores\"; only the log components (mrdb_wal, recovery/wellknown.ml) "
      ^ "may write it raw"
  | R3 ->
      "recovery correctness: corruption-vs-bug must be structured and "
      ^ "greppable; use Mrdb_util.Fatal (or a structured exception), never "
      ^ "a bare partial function"
  | R4 -> "architecture: every module under lib/ ships a sealed .mli interface"
  | R5 ->
      "robustness: faults are simulated inputs, never production behavior; "
      ^ "only lib/fault (and tests) may arm fault hooks or inject "
      ^ "failures/corruption on the simulated devices"
  | R6 ->
      "observability: runtime output goes through Mrdb_obs.Export or "
      ^ "Mrdb_util.Texttab; no bare Printf.printf/print_string under lib/ "
      ^ "outside lib/obs and util/texttab.ml"
  | R8 ->
      "paper 2.3/2.5: recovery replays the SLB->SLT commit order to "
      ^ "reconstruct the exact committed state, so no function reachable "
      ^ "from the commit, drain, or recovery entry points may draw hidden "
      ^ "nondeterminism (wall clock, Random, polymorphic Hashtbl.hash, or "
      ^ "unordered Hashtbl iteration that is neither sorted at the call "
      ^ "site nor allowlisted)"
  | R9 ->
      "single-owner log chains (Wu et al., parallel replay): every piece "
      ^ "of shared mutable state has exactly one owning module; a write "
      ^ "site outside the owner is legal only when every call chain to it "
      ^ "passes through the owner (checked on the cross-module call graph, "
      ^ "not per-file paths)"
  | R10 ->
      "recovery correctness: every raise under lib/ must construct a "
      ^ "declared structured exception (Fatal.Invariant, the capacity "
      ^ "exceptions) so corruption, misuse and capacity stay distinguishable "
      ^ "after a crash; 'try ... with _ ->' wildcards swallow that evidence"
  | R11 ->
      "analyzer hygiene: every allowlist/registry entry in Rules must "
      ^ "still match a real file, binding or identifier, so suppressions "
      ^ "cannot go stale silently and the baseline shrinks monotonically"
  | Parse_error -> "mrdb_lint cannot check what it cannot parse"

(* The fingerprint identifies a diagnostic across unrelated edits: it is
   keyed on the rule, the file, and a caller-supplied context key (the
   enclosing binding plus the offending identifier) rather than the line
   number, so a baseline entry survives code motion above the violation.
   When no key is supplied the line number is the best we have. *)
let make ~rule ~file ~line ~col ?key msg =
  let key = match key with Some k -> k | None -> Printf.sprintf "L%d" line in
  let fp = Printf.sprintf "%s:%s:%s" (rule_name rule) file key in
  { rule; file; line; col; msg; fp }

let compare_diag a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (rule_name a.rule) (rule_name b.rule)

(* The rule id sits in its own column right after the position, so CI can
   grep diagnostics by rule with a stable pattern: ': R8 \['. *)
let pp ppf d =
  Format.fprintf ppf "%s:%d:%d: %s [%s] %s@,    (%s)" d.file d.line d.col
    (rule_name d.rule) (rule_title d.rule) d.msg (paper_clause d.rule)

let to_string d = Format.asprintf "@[<v>%a@]" pp d
