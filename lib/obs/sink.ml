(** The event sink: a global on/off switch, the current lane, and the
    trace-event buffer.

    Everything in [Obs] is gated on {!enabled}: with the sink off (the
    default) instrumented code pays exactly one atomic load and branch per
    *sweep-level* operation — never per cell — which is what makes the
    instrumentation effectively free when disabled (the path perfbench's
    untraced end-to-end runs take).

    Lanes map onto the Chrome trace-event process/thread hierarchy:

    - [pid] is the {e lane}: 0 is the local process; [1 + r] is simulated
      rank [r].  The time-stepping layer sets the lane around per-rank
      work ({!set_lane}), so a forest run renders one track per rank.
    - [tid] is the slice within a lane: 0 is the coordinating thread,
      [i > 0] is the i-th OCaml domain of a sliced kernel sweep.

    The buffer is mutex-protected because sliced sweeps emit slice spans
    from multiple domains concurrently; contention is bounded by two events
    per domain per sweep. *)

type phase = B | E | I  (** span begin, span end, instant event *)

type event = {
  phase : phase;
  name : string;
  cat : string;  (** trace-event category, e.g. "vm", "step", "comm" *)
  ts_ns : int64;
  pid : int;
  tid : int;
  args : (string * float) list;
}

let on = Atomic.make false
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* The lane is only mutated by the coordinating thread, between sweeps, so
   a plain ref suffices: spawned domains read a value that is constant for
   the duration of their slice. *)
let cur_lane = ref 0
let set_lane p = cur_lane := p
let lane () = !cur_lane

(** Lane of simulated rank [r]. *)
let rank_lane r = 1 + r

(** Lane of farm job [j]: job lanes live in their own band above the rank
    lanes, so a [pfgen serve] trace renders one track per job. *)
let job_lane_base = 1000

let job_lane j = job_lane_base + j

let mu = Mutex.create ()
let events_rev : event list ref = ref []

let record ev =
  Mutex.lock mu;
  events_rev := ev :: !events_rev;
  Mutex.unlock mu

(** All recorded events, in emission order. *)
let events () =
  Mutex.lock mu;
  let evs = List.rev !events_rev in
  Mutex.unlock mu;
  evs

let clear () =
  Mutex.lock mu;
  events_rev := [];
  Mutex.unlock mu
