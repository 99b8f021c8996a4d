(** The single sanctioned escape hatch for fatal conditions.

    The paper's recovery argument distinguishes two failure classes that a
    bare [failwith] conflates: {e corruption or internal bugs} (states the
    design proves unreachable — a torn log page outside a crash window, a
    slot directory that disagrees with its live count) and {e caller
    misuse} (precondition violations at an API boundary).  [mrdb_lint]
    rule R10 bans the bare partial forms ([failwith], [invalid_arg],
    [assert false], [Option.get], [List.hd]) everywhere under [lib/];
    this module is the whitelisted replacement, so every "cannot happen"
    site is tagged with its module and greppable. *)

exception Invariant of { mod_ : string; what : string }
(** A broken internal invariant: detected corruption or an implementation
    bug.  Never a condition a caller could have avoided. *)

val invariant : mod_:string -> string -> 'a
(** [invariant ~mod_ what] raises {!Invariant} tagged with the reporting
    module, e.g. [invariant ~mod_:"Partition" "of_snapshot: bad magic"]. *)

val invariantf : mod_:string -> ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style {!invariant}. *)

val expect : mod_:string -> string -> 'a option -> 'a
(** Structured [Option.get]: [expect ~mod_ what None] raises
    {!Invariant}. *)

val misuse : string -> 'a
(** A caller precondition violation.  Raises [Invalid_argument] with the
    given message (unchanged from the historical [invalid_arg] sites, so
    existing handlers and tests keep working) — but routed through here so
    rule R10 can ban the bare form. *)

val misusef : ('a, unit, string, 'b) format4 -> 'a
(** [Printf]-style {!misuse}. *)
