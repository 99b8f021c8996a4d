(** Lint diagnostics: a violated rule anchored at [file:line:col]. *)

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

val rule_name : rule -> string
val rule_title : rule -> string

val all_rules : rule list
(** Every enforced rule, in order (excludes [Parse_error]).  Retired
    numbers are never reused: R2 (layering) is left to dune; R1
    (wild-write discipline), R5 (fault-injection containment) and R7 (SLB
    region ownership) are R9 resources; R3 (partiality) is part of R10. *)

val rule_of_name : string -> rule option
(** ["R8"] -> [Some R8]; drives [mrdb_lint --explain]. *)

val paper_clause : rule -> string
(** The paper clause (or architectural principle) the rule enforces,
    printed with every diagnostic. *)

val make : rule:rule -> file:string -> line:int -> col:int -> string -> t

val compare_diag : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Renders [file:line:col: R<n> [title] msg (clause)] — the rule id in a
    stable column of its own, so diagnostics grep by [': R8 \[']. *)

val to_string : t -> string
