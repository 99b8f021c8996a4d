(** Plain-text table rendering for the benchmark harness.

    The benches regenerate the paper's tables and graph series as aligned
    text so that `dune exec bench/main.exe` output can be compared with the
    paper directly. *)

type align = Left | Right

type t

val create : headers:string list -> t
val create_aligned : headers:(string * align) list -> t

val row : t -> string list -> unit
(** @raise Invalid_argument when the arity differs from the header. *)

val render : t -> string
val print : t -> unit
(** Render to stdout followed by a newline. *)

val series :
  title:string -> x_label:string -> y_labels:string list ->
  (float * float list) list -> string
(** [series ~title ~x_label ~y_labels points] renders a graph's data as a
    table: one row per x value, one column per series — the textual
    equivalent of the paper's Graphs 1–3. *)
