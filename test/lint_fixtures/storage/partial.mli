val explode : unit -> unit
val refuse : int -> int
val unreachable : unit -> unit
val force : 'a option -> 'a
val first : 'a list -> 'a
val qualified : unit -> unit
