(** In-process message passing with deterministic fault injection.

    Ranks live in one address space; messages are copied float arrays in
    per-(src, dst, tag) FIFO queues with MPI-like nonblocking semantics: all
    sends of a communication phase are posted before the matching receives
    are drained, and delivery order is deterministic.  This exercises the
    real pack / send / receive / unpack path of the ghost-layer exchange
    while remaining reproducible in a sealed container.

    On top of the fault-free substrate sits the machinery the resilience
    subsystem needs:

    + every message carries a per-channel sequence number and is kept in a
      bounded retransmission log on the sender side;
    + an optional {!Faultplan.t} decides, deterministically per (channel,
      seq), whether a message is delivered, dropped, delayed against the
      virtual clock, or duplicated — and whether one rank crashes at a
      given step;
    + receivers drive a virtual clock ([advance_clock] / [release_due]) and
      can request retransmission of a missing sequence number, which is the
      basis of the self-healing exchange in {!Ghost};
    + [restart] models a failed rank being brought back: all in-flight
      state is discarded (the caller reloads field state from a checkpoint)
      and the crash is marked consumed so the replay runs clean. *)

type message = { seq : int; payload : float array }

(** One (src, dst, tag) channel: its delivery queue, both ends' sequence
    counters, and the sender's retransmission log — a ring holding the
    last [log_limit] messages sent, seq [s] at slot [s mod log_limit]. *)
type channel = {
  queue : message Queue.t;
  mutable next_send : int;  (** next seq to assign *)
  mutable expected : int;   (** next seq the receiver expects *)
  log : message array;
}

type t = {
  n_ranks : int;
  channels : (int * int * int, channel) Hashtbl.t;
  mutable delayed : (int * (int * int * int) * message) list;
      (** (release_time, channel, message), sorted for deterministic release *)
  mutable clock : int;          (** virtual time, driven by receiver backoff *)
  mutable step : int;           (** current simulation step (crash trigger) *)
  mutable plan : Faultplan.t option;
  mutable crashed : int option; (** currently-dead rank, if any *)
  mutable crash_consumed : bool;
  mutable bytes_sent : int;     (** cumulative payload volume *)
  mutable messages_sent : int;
  mutable delivered : int;      (** messages handed to a receiver *)
  mutable retransmissions : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed_count : int;
  mutable stale_discarded : int; (** duplicates/late arrivals discarded by seq *)
  mutable restarts : int;
}

(* Observability mirror: the substrate's own counters are authoritative
   (and always on); the net.* registry copies are what `pfgen simulate
   --metrics` reports.  Each goes through [Obs.Metrics.count], so with the
   sink off a counted event costs one atomic load and branch and registers
   nothing. *)

let log_limit = 16

let create n_ranks =
  {
    n_ranks;
    channels = Hashtbl.create 64;
    delayed = [];
    clock = 0;
    step = 0;
    plan = None;
    crashed = None;
    crash_consumed = false;
    bytes_sent = 0;
    messages_sent = 0;
    delivered = 0;
    retransmissions = 0;
    dropped = 0;
    duplicated = 0;
    delayed_count = 0;
    stale_discarded = 0;
    restarts = 0;
  }

let set_fault_plan t plan = t.plan <- plan

let channel t key =
  match Hashtbl.find_opt t.channels key with
  | Some ch -> ch
  | None ->
    let ch =
      { queue = Queue.create (); next_send = 0; expected = 0;
        log = Array.make log_limit { seq = -1; payload = [||] } }
    in
    Hashtbl.replace t.channels key ch;
    ch

let is_crashed t rank = t.crashed = Some rank
let live t rank = not (is_crashed t rank)

(** Activate a pending crash: called at the start of every lockstep time
    step with the current step index. *)
let begin_step t ~step =
  t.step <- step;
  match t.plan with
  | Some { Faultplan.crash = Some (rank, at); _ }
    when step >= at && not t.crash_consumed ->
    t.crashed <- Some rank
  | _ -> ()

let advance_clock t ticks = t.clock <- t.clock + max 1 ticks

(* Deterministic insertion: the delayed pool stays sorted by
   (release, channel, seq). *)
let add_delayed t release key msg =
  t.delayed <-
    List.merge compare t.delayed [ (release, key, msg) ]

(** Move every delayed message whose release time has come into its
    delivery queue (in deterministic order). *)
let release_due t =
  if t.delayed <> [] then begin
    let due, later = List.partition (fun (r, _, _) -> r <= t.clock) t.delayed in
    t.delayed <- later;
    List.iter (fun (_, key, msg) -> Queue.push msg (channel t key).queue) due
  end

let expected_seq t ~src ~dst ~tag =
  match Hashtbl.find_opt t.channels (src, dst, tag) with
  | Some ch -> ch.expected
  | None -> 0

(** Post [data] on the (src, dst, tag) channel.  The substrate owns the
    array from here on: it is queued, logged for retransmission and handed
    to the receiver without a copy, so the caller must not write to it
    afterwards. *)
let send t ~src ~dst ~tag data =
  if src < 0 || src >= t.n_ranks || dst < 0 || dst >= t.n_ranks then
    invalid_arg "Mpisim.send: rank out of range";
  if is_crashed t src || is_crashed t dst then begin
    (* a dead rank neither sends nor receives; nothing enters the network *)
    t.dropped <- t.dropped + 1;
    Obs.Metrics.count "net.dropped" 1
  end
  else begin
    let key = (src, dst, tag) in
    let ch = channel t key in
    let msg = { seq = ch.next_send; payload = data } in
    ch.next_send <- ch.next_send + 1;
    ch.log.(msg.seq mod log_limit) <- msg;
    t.bytes_sent <- t.bytes_sent + (8 * Array.length data);
    t.messages_sent <- t.messages_sent + 1;
    Obs.Metrics.count "net.messages_sent" 1;
    Obs.Metrics.count "net.bytes_sent" (8 * Array.length data);
    match t.plan with
    | None -> Queue.push msg ch.queue
    | Some plan -> (
      match Faultplan.decide plan ~src ~dst ~tag ~seq:msg.seq with
      | Faultplan.Deliver -> Queue.push msg ch.queue
      | Faultplan.Drop ->
        t.dropped <- t.dropped + 1;
        Obs.Metrics.count "net.dropped" 1
      | Faultplan.Delay ticks ->
        t.delayed_count <- t.delayed_count + 1;
        Obs.Metrics.count "net.delayed" 1;
        add_delayed t (t.clock + ticks) key msg
      | Faultplan.Duplicate ->
        t.duplicated <- t.duplicated + 1;
        Obs.Metrics.count "net.duplicated" 1;
        Queue.push msg ch.queue;
        Queue.push { msg with payload = msg.payload } ch.queue)
  end

exception No_message of (int * int * int)

let deliver t (msg : message) =
  t.delivered <- t.delivered + 1;
  Obs.Metrics.count "net.delivered" 1;
  msg.payload

(** Plain FIFO receive (the fault-free fast path): pops the head message of
    the channel, whatever its sequence number. *)
let recv t ~src ~dst ~tag =
  let key = (src, dst, tag) in
  match Hashtbl.find_opt t.channels key with
  | Some ch when not (Queue.is_empty ch.queue) ->
    let msg = Queue.pop ch.queue in
    ch.expected <- max ch.expected (msg.seq + 1);
    deliver t msg
  | _ -> raise (No_message key)

(** Sequenced receive: returns the message with exactly the next expected
    sequence number, discarding any stale (already-consumed) duplicates
    encountered on the way, and leaving future messages queued.  [None]
    means the expected message has not arrived (yet).  A channel holding
    just the expected message — every receive of a fault-free exchange —
    takes O(1) work; only a faulty channel is rescanned. *)
let recv_expected t ~src ~dst ~tag =
  match Hashtbl.find_opt t.channels (src, dst, tag) with
  | None -> None
  | Some ch when Queue.length ch.queue = 1 && (Queue.peek ch.queue).seq = ch.expected ->
    ch.expected <- ch.expected + 1;
    Some (deliver t (Queue.pop ch.queue))
  | Some ch ->
    let expected = ch.expected in
    let q = ch.queue in
    let fresh, stale =
      List.partition
        (fun m -> m.seq >= expected)
        (List.of_seq (Queue.to_seq q))
    in
    t.stale_discarded <- t.stale_discarded + List.length stale;
    Obs.Metrics.count "net.stale_discarded" (List.length stale);
    Queue.clear q;
    let hit = ref None in
    List.iter
      (fun m ->
        if !hit = None && m.seq = expected then hit := Some m
        else Queue.push m q)
      fresh;
    Option.map
      (fun m ->
        ch.expected <- expected + 1;
        deliver t m)
      !hit

(** Re-deliver sequence number [seq] of the channel from the sender's
    retransmission log, bypassing fault injection (retry-until-success).
    [`Crashed] if the sender rank is dead, [`Lost] if the log no longer
    holds that message. *)
let request_retransmit t ~src ~dst ~tag ~seq =
  if is_crashed t src then `Crashed
  else
    match Hashtbl.find_opt t.channels (src, dst, tag) with
    | Some ch when seq >= 0 && seq < ch.next_send && seq >= ch.next_send - log_limit ->
      t.retransmissions <- t.retransmissions + 1;
      Obs.Metrics.count "net.retransmissions" 1;
      Queue.push ch.log.(seq mod log_limit) ch.queue;
      `Sent
    | _ -> `Lost

(* ------------------------------------------------------------------ *)
(* Nonblocking surface                                                 *)
(* ------------------------------------------------------------------ *)

(** MPI-style request handles.  An [isend] completes at post time (the
    substrate buffers every message), mirroring an eager-protocol
    [MPI_Isend]; an [irecv] completes when {!test} or {!wait} matches the
    channel's next expected sequence number.  The per-channel sequence
    numbers of the blocking surface are preserved — [irecv] consumes
    exactly the message [recv_expected] would have, so nonblocking and
    blocking exchanges are interchangeable message for message. *)
type request =
  | Isend of { dst : int }
  | Irecv of {
      src : int;
      dst : int;
      tag : int;
      mutable arrived : float array option;
    }

(** Post a message and return its (already-complete) send request. *)
let isend t ~src ~dst ~tag data =
  send t ~src ~dst ~tag data;
  Isend { dst }

(** Post a receive for the channel's next in-sequence message.  Nothing is
    consumed until {!test} or {!wait} observes the arrival. *)
let irecv (_ : t) ~src ~dst ~tag = Irecv { src; dst; tag; arrived = None }

(** Poll a request: [true] when complete.  Polling an [Irecv] releases due
    delayed messages and consumes the expected message if it has arrived
    (discarding stale duplicates on the way, like the blocking path). *)
let test t = function
  | Isend _ -> true
  | Irecv r -> (
    r.arrived <> None
    ||
    (release_due t;
     match recv_expected t ~src:r.src ~dst:r.dst ~tag:r.tag with
     | Some p ->
       r.arrived <- Some p;
       true
     | None -> false))

(** Drive a request to completion through the self-healing protocol: a
    missing message is treated as a timeout against the virtual clock — the
    receiver backs off exponentially (releasing delayed messages) and
    requests bounded retransmission from the sender's log.  [`Done n]
    reports the number of retries the healing needed (0 on the fault-free
    path); [`Crashed] surfaces a dead sender for the recovery driver;
    [`Lost] means the retries were exhausted on a live channel. *)
let wait ?(max_retries = 10) t = function
  | Isend _ -> `Done 0
  | Irecv r -> (
    match r.arrived with
    | Some _ -> `Done 0
    | None ->
      let rec attempt retries backoff =
        release_due t;
        match recv_expected t ~src:r.src ~dst:r.dst ~tag:r.tag with
        | Some p ->
          r.arrived <- Some p;
          `Done retries
        | None ->
          if retries >= max_retries then
            if is_crashed t r.src then `Crashed r.src else `Lost (r.src, r.dst, r.tag)
          else begin
            advance_clock t backoff;
            match
              request_retransmit t ~src:r.src ~dst:r.dst ~tag:r.tag
                ~seq:(expected_seq t ~src:r.src ~dst:r.dst ~tag:r.tag)
            with
            | `Crashed -> `Crashed r.src
            | `Sent | `Lost -> attempt (retries + 1) (2 * backoff)
          end
      in
      attempt 0 1)

(** The payload of a completed [Irecv] (call {!wait} or {!test} first). *)
let payload = function
  | Isend _ -> invalid_arg "Mpisim.payload: send requests carry no payload"
  | Irecv { arrived = Some p; _ } -> p
  | Irecv _ -> invalid_arg "Mpisim.payload: request not complete"

(** All channels drained and nothing in the delayed pool. *)
let quiescent t =
  t.delayed = []
  && Hashtbl.fold (fun _ ch acc -> acc && Queue.is_empty ch.queue) t.channels true

exception Unquiescent of (int * int * int * int) list
(** Raised by {!finalize} when live (not-yet-consumed) messages remain
    queued: one ((src, dst, tag), count) entry per offending channel. *)

(** End-of-phase invariant: after a completed exchange nothing live may
    remain in flight.  Releases the whole delayed pool and discards stale
    duplicates first — those are legitimate leftovers of healed faults —
    then raises {!Unquiescent} if any channel still holds a message with a
    sequence number the receiver never consumed. *)
let finalize t =
  (match t.delayed with
  | [] -> ()
  | ds ->
    t.clock <- List.fold_left (fun acc (r, _, _) -> max acc r) t.clock ds;
    release_due t);
  let leftovers = ref [] in
  Hashtbl.iter
    (fun (src, dst, tag) ch ->
      let q = ch.queue in
      if not (Queue.is_empty q) then begin
        let live =
          Queue.fold (fun acc m -> if m.seq >= ch.expected then acc + 1 else acc) 0 q
        in
        let stale = Queue.length q - live in
        t.stale_discarded <- t.stale_discarded + stale;
        Obs.Metrics.count "net.stale_discarded" stale;
        Queue.clear q;
        if live > 0 then leftovers := (src, dst, tag, live) :: !leftovers
      end)
    t.channels;
  match List.sort compare !leftovers with
  | [] -> ()
  | ls -> raise (Unquiescent ls)

(** Bring a crashed substrate back for replay after a rollback: every
    queue, log, counter stream and the delayed pool are discarded, and the
    crash is marked consumed so the same step replays cleanly.  Cumulative
    traffic statistics survive. *)
let restart t =
  Hashtbl.reset t.channels;
  t.delayed <- [];
  t.crashed <- None;
  t.crash_consumed <- true;
  t.restarts <- t.restarts + 1;
  Obs.Metrics.count "net.restarts" 1

let () =
  Printexc.register_printer (function
    | No_message (src, dst, tag) ->
      Some
        (Printf.sprintf
           "Mpisim.No_message: no message queued from rank %d to rank %d with tag %d" src
           dst tag)
    | Unquiescent ls ->
      Some
        (Printf.sprintf "Mpisim.Unquiescent: undelivered messages at finalize: %s"
           (String.concat ", "
              (List.map
                 (fun (src, dst, tag, n) ->
                   Printf.sprintf "%d message(s) from rank %d to rank %d with tag %d" n
                     src dst tag)
                 ls)))
    | _ -> None)
