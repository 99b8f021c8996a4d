(* Wall-clock instruments: the clock, preallocated latency samples and the
   per-call spans of the traced pass.

   Nothing here allocates on the measured path.  [now_ns] is the raw
   CLOCK_MONOTONIC reading (an unboxed int64 turned straight into an int);
   samples go into int arrays sized before the loop starts. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* -- latency samples ------------------------------------------------------ *)

type samples = { mutable data : int array; mutable n : int }

let samples capacity = { data = Array.make (max 1 capacity) 0; n = 0 }

(* Grows when full.  Latency arrays are sized from the transaction counts
   up front, so only the traced pass's span tails ever grow. *)
let add s v =
  if s.n = Array.length s.data then begin
    let bigger = Array.make (2 * s.n) 0 in
    Array.blit s.data 0 bigger 0 s.n;
    s.data <- bigger
  end;
  s.data.(s.n) <- v;
  s.n <- s.n + 1

let count s = s.n

(* Nearest-rank percentile of the recorded values; 0 when empty. *)
let percentile s q =
  if s.n = 0 then 0
  else begin
    let sorted = Array.sub s.data 0 s.n in
    Array.sort compare sorted;
    let rank = int_of_float (Float.ceil (q *. float_of_int s.n)) in
    sorted.(max 0 (min (s.n - 1) (rank - 1)))
  end

let sum s =
  let t = ref 0 in
  for i = 0 to s.n - 1 do
    t := !t + s.data.(i)
  done;
  !t

let concat a b =
  let s = samples (a.n + b.n) in
  Array.blit a.data 0 s.data 0 a.n;
  Array.blit b.data 0 s.data a.n b.n;
  s.n <- a.n + b.n;
  s

(* -- spans ------------------------------------------------------------------ *)

(* One accumulator per public entry point the benchmark calls.  While
   [tracing] is set every call is counted; a call is also timed when its
   span is always timed ([turn = -1]) or when it is that span's turn.
   Rotating spans take turns transaction by transaction, so a traced
   transaction reads the clock around one kind of call only: the tracing
   cost stays a few clock reads per transaction, and the per-call means
   stay unbiased because every kind is timed on an even share of the
   transactions. *)
type span = {
  name : string;
  slot : int;  (** rotation slot, or -1 for always timed *)
  mutable calls : int;
  mutable timed : int;
  mutable total_ns : int;  (** over the timed calls *)
  tail : samples option;  (** every timed duration, for the spans whose p99 is reported *)
}

let tracing = ref false
let turn = ref 0

let span ?(tail = false) ?(slot = -1) name =
  {
    name;
    slot;
    calls = 0;
    timed = 0;
    total_ns = 0;
    tail = (if tail then Some (samples 65536) else None);
  }

(* Count a call made while tracing; true when it is to be timed. *)
let enter sp =
  !tracing
  && begin
       sp.calls <- sp.calls + 1;
       sp.slot < 0 || sp.slot = !turn
     end

let record sp dt =
  sp.timed <- sp.timed + 1;
  sp.total_ns <- sp.total_ns + dt;
  match sp.tail with Some s -> add s dt | None -> ()

let stop sp t0 = record sp (now_ns () - t0)

(* A call counted and timed by the caller, for spans no wrapper enters. *)
let observe sp dt =
  sp.calls <- sp.calls + 1;
  record sp dt

(* Mean timed duration, and that mean extended to every counted call. *)
let ns_per_call sp = if sp.timed = 0 then 0.0 else float_of_int sp.total_ns /. float_of_int sp.timed
let estimated_ns sp = ns_per_call sp *. float_of_int sp.calls

let reset sp =
  sp.calls <- 0;
  sp.timed <- 0;
  sp.total_ns <- 0;
  match sp.tail with Some s -> s.n <- 0 | None -> ()
