(** Monotonic time source.

    CLOCK_MONOTONIC nanoseconds via bechamel's C stub — wall-clock-jump
    free, which is what span durations and drift measurements need.  All of
    [Obs] expresses time as int64 nanoseconds from this clock; exporters
    convert at the edge. *)

let now_ns () : int64 = Monotonic_clock.now ()

(** Elapsed nanoseconds of [f ()], as a float for ratio arithmetic. *)
let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (now_ns ()) t0))

(** The timing probe every measurement shares: [f ()] runs once as a
    warm-up (caches fill, the JIT compiles, the pool spawns its workers),
    then [n] more times, each timed on its own.  Returns the [n] per-trial
    nanoseconds sorted ascending, so [.(0)] is the best trial. *)
let trials ~n f =
  f ();
  let ts = Array.init n (fun _ -> snd (time_ns f)) in
  Array.sort Float.compare ts;
  ts

(** Quantile [q] (in \[0, 1\]) of the sorted array [ts], interpolating
    linearly between order statistics. *)
let quantile ts q =
  let last = Array.length ts - 1 in
  let h = q *. float_of_int last in
  let lo = int_of_float h in
  let hi = min last (lo + 1) in
  ts.(lo) +. ((h -. float_of_int lo) *. (ts.(hi) -. ts.(lo)))
