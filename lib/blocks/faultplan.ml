(** Deterministic, seed-driven fault plans for the simulated MPI substrate.

    A plan describes *which* communication faults a run experiences: per
    message, a Philox stream keyed on (channel, sequence number, plan seed)
    decides whether the message is delivered, dropped, delayed by a few
    virtual-clock ticks, or duplicated; independently, the plan may name one
    rank that crashes at a given time step.  Because every decision is a
    pure function of the key, a run under a given plan is exactly
    reproducible — the property the resilience oracles rely on: the
    self-healing exchange must turn any plan into the bitwise result of the
    fault-free run. *)

type decision =
  | Deliver
  | Drop             (** the message is lost in flight (recoverable by retransmit) *)
  | Delay of int     (** delivery is deferred by this many virtual-clock ticks *)
  | Duplicate        (** the message arrives twice with the same sequence number *)

type t = {
  seed : int;             (** keys every per-message decision *)
  drop : float;           (** probability a message is dropped *)
  delay : float;          (** probability a message is delayed *)
  duplicate : float;      (** probability a message is duplicated *)
  max_delay : int;        (** delays are drawn uniformly from 1..max_delay *)
  crash : (int * int) option;
      (** [Some (rank, step)]: that rank dies at the start of that step.
          The crash fires once per run; a restarted substrate treats it as
          already consumed. *)
}

(** No faults at all — under [none] the reliable exchange degenerates to
    the plain one. *)
let none = { seed = 0; drop = 0.; delay = 0.; duplicate = 0.; max_delay = 4; crash = None }

(** A representative soak plan: a few percent of each fault kind plus one
    rank crash at [crash_step]. *)
let chaos ?(seed = 1) ?(crash_rank = 1) ~crash_step () =
  {
    seed;
    drop = 0.06;
    delay = 0.08;
    duplicate = 0.05;
    max_delay = 3;
    crash = Some (crash_rank, crash_step);
  }

(* One uniform draw in [0,1) per (channel, seq, salt). *)
let uniform t ~chan ~seq ~salt =
  (Philox.symmetric ~cell:chan ~step:seq ~slot:(t.seed lxor salt) +. 1.) /. 2.

(** The fate of message [seq] on channel (src, dst, tag).  Pure: the same
    arguments always yield the same decision, so reruns after a rollback
    see the same network. *)
let decide t ~src ~dst ~tag ~seq =
  let chan = (((src * 8191) + dst) * 8191) + tag in
  let u = uniform t ~chan ~seq ~salt:0x0FA17 in
  if u < t.drop then Drop
  else if u < t.drop +. t.delay then
    let v = uniform t ~chan ~seq ~salt:0xDE1A7 in
    Delay (1 + int_of_float (v *. float_of_int (max 1 t.max_delay)))
  else if u < t.drop +. t.delay +. t.duplicate then Duplicate
  else Deliver

let pp ppf t =
  Fmt.pf ppf "plan{seed=%d drop=%.2f delay=%.2f dup=%.2f%s}" t.seed t.drop t.delay
    t.duplicate
    (match t.crash with
    | None -> ""
    | Some (r, k) -> Printf.sprintf " crash=rank %d@step %d" r k)
