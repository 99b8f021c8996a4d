(** Lint diagnostics: a violated rule anchored at [file:line:col]. *)

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
  fp : string;  (** stable fingerprint, used by the baseline file *)
}

val rule_name : rule -> string
val rule_title : rule -> string

val all_rules : rule list
(** Every enforced rule, in order (excludes [Parse_error]).  R2
    (layering) is left to dune, and R7 (SLB region ownership) was folded
    into R9's "striped SLB regions" resource; both numbers are retired. *)

val rule_of_name : string -> rule option
(** ["R8"] -> [Some R8]; drives [mrdb_lint --explain]. *)

val paper_clause : rule -> string
(** The paper clause (or architectural principle) the rule enforces,
    printed with every diagnostic. *)

val make :
  rule:rule -> file:string -> line:int -> col:int -> ?key:string -> string -> t
(** [key] is the stable fingerprint context (enclosing binding +
    offending identifier); when omitted the line number is used, which
    makes the fingerprint sensitive to code motion. *)

val compare_diag : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Renders [file:line:col: R<n> [title] msg (clause)] — the rule id in a
    stable column of its own, so CI can grep by [': R8 \['] robustly. *)

val to_string : t -> string
