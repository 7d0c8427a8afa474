(** In-process message passing with deterministic fault injection.

    Ranks live in one address space; messages are float arrays the
    substrate owns, in per-(src, dst, tag) FIFO queues that senders and
    receivers reach through channel handles, with MPI-like nonblocking
    semantics: all sends of a communication phase are posted before the
    matching receives are drained, and delivery order is deterministic.
    This exercises the real pack / send / receive / unpack path of the
    ghost-layer exchange while remaining reproducible in a sealed
    container.

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

(** One (src, dst, tag) channel, and the handle a sender or receiver keeps
    for it: its delivery queue, both ends' sequence counters, and the
    sender's retransmission log — a ring holding the last [log_limit]
    messages sent, seq [s] at slot [s mod log_limit].  The queue is a ring
    of (seq, payload) pairs that grows on demand, so a message in flight
    costs no allocation.  {!restart} resets a channel in place, so a handle
    outlives a rollback. *)
type channel = {
  src : int;
  dst : int;
  tag : int;
  mutable q_seq : int array;
  mutable q_payload : float array array;
  mutable q_head : int;
  mutable q_len : int;
  mutable next_send : int;  (** next seq to assign *)
  mutable expected : int;   (** next seq the receiver expects *)
  mutable used : bool;
      (** a message was posted since the channel was opened or reset; an
          unused channel answers a receive as if it did not exist *)
  log_seq : int array;  (** seq held by each log slot; [-1]: none *)
  log_payload : float array array;
}

type t = {
  n_ranks : int;
  channels : (int * int * int, channel) Hashtbl.t;
  mutable delayed : (int * channel * message) list;
      (** (release_time, channel, message), sorted by (release, channel
          key, seq) for deterministic release *)
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

let key ch = (ch.src, ch.dst, ch.tag)

(** The handle of channel (src, dst, tag), opened on first request. *)
let channel t ~src ~dst ~tag =
  if src < 0 || src >= t.n_ranks || dst < 0 || dst >= t.n_ranks then
    invalid_arg "Mpisim: rank out of range";
  match Hashtbl.find t.channels (src, dst, tag) with
  | ch -> ch
  | exception Not_found ->
    let ch =
      {
        src;
        dst;
        tag;
        q_seq = Array.make 4 0;
        q_payload = Array.make 4 [||];
        q_head = 0;
        q_len = 0;
        next_send = 0;
        expected = 0;
        used = false;
        log_seq = Array.make log_limit (-1);
        log_payload = Array.make log_limit [||];
      }
    in
    Hashtbl.replace t.channels (src, dst, tag) ch;
    ch

(** Whether handle [ch] is the channel (src, dst, tag): a cached handle is
    checked against the channel its user needs now. *)
let is_channel ch ~src ~dst ~tag = ch.src = src && ch.dst = dst && ch.tag = tag

(* ---- the delivery queue ---- *)

let push ch seq payload =
  let cap = Array.length ch.q_seq in
  if ch.q_len = cap then begin
    let seqs = Array.make (2 * cap) 0 and payloads = Array.make (2 * cap) [||] in
    for i = 0 to cap - 1 do
      seqs.(i) <- ch.q_seq.((ch.q_head + i) mod cap);
      payloads.(i) <- ch.q_payload.((ch.q_head + i) mod cap)
    done;
    ch.q_seq <- seqs;
    ch.q_payload <- payloads;
    ch.q_head <- 0
  end;
  let i = (ch.q_head + ch.q_len) mod Array.length ch.q_seq in
  ch.q_seq.(i) <- seq;
  ch.q_payload.(i) <- payload;
  ch.q_len <- ch.q_len + 1

(* Take the head (the queue must not be empty); the ring forgets it. *)
let pop ch =
  let i = ch.q_head in
  let p = ch.q_payload.(i) in
  ch.q_payload.(i) <- [||];
  ch.q_head <- (i + 1) mod Array.length ch.q_seq;
  ch.q_len <- ch.q_len - 1;
  p

(* The queued messages, head first, and an emptied queue. *)
let drain_queue ch =
  let out = ref [] in
  while ch.q_len > 0 do
    let seq = ch.q_seq.(ch.q_head) in
    out := { seq; payload = pop ch } :: !out
  done;
  ch.q_head <- 0;
  List.rev !out

let fold_queue f acc ch =
  let acc = ref acc in
  for i = 0 to ch.q_len - 1 do
    acc := f !acc ch.q_seq.((ch.q_head + i) mod Array.length ch.q_seq)
  done;
  !acc

let is_crashed t rank = match t.crashed with Some r -> r = rank | None -> false
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

let delayed_order (r, ch, m) (r', ch', m') =
  match compare r r' with
  | 0 -> ( match compare (key ch) (key ch') with 0 -> compare m.seq m'.seq | c -> c)
  | c -> c

(* Deterministic insertion: the delayed pool stays sorted by
   (release, channel, seq). *)
let add_delayed t release ch msg =
  t.delayed <- List.merge delayed_order t.delayed [ (release, ch, msg) ]

(** Move every delayed message whose release time has come into its
    delivery queue (in deterministic order). *)
let release_due t =
  if t.delayed <> [] then begin
    let due, later = List.partition (fun (r, _, _) -> r <= t.clock) t.delayed in
    t.delayed <- later;
    List.iter (fun (_, ch, msg) -> push ch msg.seq msg.payload) due
  end

let expected_seq t ~src ~dst ~tag =
  match Hashtbl.find_opt t.channels (src, dst, tag) with
  | Some ch -> ch.expected
  | None -> 0

(** An array of [len] elements to pack the next message on [ch] into: the
    payload of the log slot that message evicts when the receiver has
    consumed it (or a rollback discarded it), otherwise a fresh one.  So a
    payload a receiver takes stays valid until its channel's next
    [log_limit] sends. *)
let payload_for ch ~len =
  let k = ch.next_send mod log_limit in
  let old = ch.log_payload.(k) in
  if Array.length old = len && ch.log_seq.(k) < ch.expected then old
  else Array.create_float len

(** Post [data] on channel [ch].  The substrate owns the array from here
    on: it is queued, logged for retransmission and handed to the receiver
    without a copy, so the caller must not write to it afterwards. *)
let post t ch data =
  if is_crashed t ch.src || is_crashed t ch.dst then begin
    (* a dead rank neither sends nor receives; nothing enters the network *)
    t.dropped <- t.dropped + 1;
    Obs.Metrics.count "net.dropped" 1
  end
  else begin
    let seq = ch.next_send in
    ch.next_send <- seq + 1;
    ch.used <- true;
    ch.log_seq.(seq mod log_limit) <- seq;
    ch.log_payload.(seq mod log_limit) <- data;
    t.bytes_sent <- t.bytes_sent + (8 * Array.length data);
    t.messages_sent <- t.messages_sent + 1;
    Obs.Metrics.count "net.messages_sent" 1;
    Obs.Metrics.count "net.bytes_sent" (8 * Array.length data);
    match t.plan with
    | None -> push ch seq data
    | Some plan -> (
      match Faultplan.decide plan ~src:ch.src ~dst:ch.dst ~tag:ch.tag ~seq with
      | Faultplan.Deliver -> push ch seq data
      | Faultplan.Drop ->
        t.dropped <- t.dropped + 1;
        Obs.Metrics.count "net.dropped" 1
      | Faultplan.Delay ticks ->
        t.delayed_count <- t.delayed_count + 1;
        Obs.Metrics.count "net.delayed" 1;
        add_delayed t (t.clock + ticks) ch { seq; payload = data }
      | Faultplan.Duplicate ->
        t.duplicated <- t.duplicated + 1;
        Obs.Metrics.count "net.duplicated" 1;
        push ch seq data;
        push ch seq data)
  end

(** Post [data] on the (src, dst, tag) channel ({!post}). *)
let send t ~src ~dst ~tag data = post t (channel t ~src ~dst ~tag) data

exception No_message of (int * int * int)

let deliver t payload =
  t.delivered <- t.delivered + 1;
  Obs.Metrics.count "net.delivered" 1;
  payload

(** Plain FIFO receive (the fault-free fast path): pops the head message of
    the channel, whatever its sequence number. *)
let recv t ~src ~dst ~tag =
  match Hashtbl.find_opt t.channels (src, dst, tag) with
  | Some ch when ch.q_len > 0 ->
    ch.expected <- max ch.expected (ch.q_seq.(ch.q_head) + 1);
    deliver t (pop ch)
  | _ -> raise (No_message (src, dst, tag))

(** Sequenced receive on [ch]: the message with exactly the next expected
    sequence number, discarding any stale (already-consumed) duplicates
    encountered on the way, and leaving future messages queued.  [None]
    means the expected message has not arrived (yet).  A channel holding
    just the expected message — every receive of a fault-free exchange —
    takes O(1) work and allocates nothing but the option; only a faulty
    channel is rescanned. *)
let take_expected t ch =
  if not ch.used then None
  else if ch.q_len = 1 && ch.q_seq.(ch.q_head) = ch.expected then begin
    ch.expected <- ch.expected + 1;
    Some (deliver t (pop ch))
  end
  else begin
    let expected = ch.expected in
    let fresh, stale = List.partition (fun m -> m.seq >= expected) (drain_queue ch) in
    t.stale_discarded <- t.stale_discarded + List.length stale;
    Obs.Metrics.count "net.stale_discarded" (List.length stale);
    let hit = ref None in
    List.iter
      (fun m ->
        if Option.is_none !hit && m.seq = expected then hit := Some m.payload
        else push ch m.seq m.payload)
      fresh;
    Option.map
      (fun p ->
        ch.expected <- expected + 1;
        deliver t p)
      !hit
  end

let recv_expected t ~src ~dst ~tag =
  match Hashtbl.find_opt t.channels (src, dst, tag) with
  | None -> None
  | Some ch -> take_expected t ch

(* Re-deliver [seq] of [ch] from the sender's log. *)
let retransmit t ch ~seq =
  if is_crashed t ch.src then `Crashed
  else if seq >= 0 && seq < ch.next_send && seq >= ch.next_send - log_limit then begin
    t.retransmissions <- t.retransmissions + 1;
    Obs.Metrics.count "net.retransmissions" 1;
    push ch seq ch.log_payload.(seq mod log_limit);
    `Sent
  end
  else `Lost

(** Re-deliver sequence number [seq] of the channel from the sender's
    retransmission log, bypassing fault injection (retry-until-success).
    [`Crashed] if the sender rank is dead, [`Lost] if the log no longer
    holds that message. *)
let request_retransmit t ~src ~dst ~tag ~seq =
  if is_crashed t src then `Crashed
  else
    match Hashtbl.find_opt t.channels (src, dst, tag) with
    | Some ch -> retransmit t ch ~seq
    | None -> `Lost

(* ------------------------------------------------------------------ *)
(* The self-healing receive                                            *)
(* ------------------------------------------------------------------ *)

(** One attempt of the self-healing receive on [ch]: release the delayed
    messages that are due, then take the expected message ({!take_expected}).
    A fault-free receive is this first attempt and nothing more. *)
let attempt t ch =
  release_due t;
  take_expected t ch

(** The rest of the self-healing loop after a first {!attempt} missed: the
    missing message is treated as a timeout against the virtual clock —
    the receiver backs off exponentially (releasing delayed messages) and
    requests bounded retransmission from the sender's log, attempting
    again after each request.  [`Done (payload, n)] reports the retries
    the healing needed; [`Crashed] surfaces a dead sender for the recovery
    driver; [`Lost] means the retries were exhausted on a live channel. *)
let heal ?(max_retries = 10) t ch =
  let rec retry retries backoff =
    if retries >= max_retries then
      if is_crashed t ch.src then `Crashed ch.src else `Lost (key ch)
    else begin
      advance_clock t backoff;
      match retransmit t ch ~seq:ch.expected with
      | `Crashed -> `Crashed ch.src
      | `Sent | `Lost -> (
        match attempt t ch with
        | Some p -> `Done (p, retries + 1)
        | None -> retry (retries + 1) (2 * backoff))
    end
  in
  retry 0 1

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
  | Irecv of { ch : channel; mutable arrived : float array option }

(** Post a message and return its (already-complete) send request. *)
let isend t ~src ~dst ~tag data =
  send t ~src ~dst ~tag data;
  Isend { dst }

(** Post a receive for the channel's next in-sequence message.  Nothing is
    consumed until {!test} or {!wait} observes the arrival. *)
let irecv t ~src ~dst ~tag = Irecv { ch = channel t ~src ~dst ~tag; arrived = None }

(** Poll a request: [true] when complete.  Polling an [Irecv] releases due
    delayed messages and consumes the expected message if it has arrived
    (discarding stale duplicates on the way, like the blocking path). *)
let test t = function
  | Isend _ -> true
  | Irecv r -> (
    r.arrived <> None
    ||
    match attempt t r.ch with
    | Some p ->
      r.arrived <- Some p;
      true
    | None -> false)

(** Drive a request to completion through the self-healing protocol
    ({!attempt}, then {!heal}).  [`Done n] reports the number of retries
    the healing needed (0 on the fault-free path). *)
let wait ?max_retries t = function
  | Isend _ -> `Done 0
  | Irecv r -> (
    match r.arrived with
    | Some _ -> `Done 0
    | None -> (
      match attempt t r.ch with
      | Some p ->
        r.arrived <- Some p;
        `Done 0
      | None -> (
        match heal ?max_retries t r.ch with
        | `Done (p, n) ->
          r.arrived <- Some p;
          `Done n
        | (`Crashed _ | `Lost _) as failed -> failed)))

(** The payload of a completed [Irecv] (call {!wait} or {!test} first). *)
let payload = function
  | Isend _ -> invalid_arg "Mpisim.payload: send requests carry no payload"
  | Irecv { arrived = Some p; _ } -> p
  | Irecv _ -> invalid_arg "Mpisim.payload: request not complete"

(** All channels drained and nothing in the delayed pool. *)
let quiescent t =
  t.delayed = [] && Hashtbl.fold (fun _ ch acc -> acc && ch.q_len = 0) t.channels true

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
      if ch.q_len > 0 then begin
        let live = fold_queue (fun acc seq -> if seq >= ch.expected then acc + 1 else acc) 0 ch in
        let stale = ch.q_len - live in
        t.stale_discarded <- t.stale_discarded + stale;
        Obs.Metrics.count "net.stale_discarded" stale;
        while ch.q_len > 0 do
          ignore (pop ch)
        done;
        if live > 0 then leftovers := (src, dst, tag, live) :: !leftovers
      end)
    t.channels;
  match List.sort compare !leftovers with
  | [] -> ()
  | ls -> raise (Unquiescent ls)

(* A channel as freshly opened; the log keeps its arrays for {!payload_for}
   (their messages are gone with the queues). *)
let reset ch =
  while ch.q_len > 0 do
    ignore (pop ch)
  done;
  ch.q_head <- 0;
  ch.next_send <- 0;
  ch.expected <- 0;
  ch.used <- false;
  Array.fill ch.log_seq 0 log_limit (-1)

(** Bring a crashed substrate back for replay after a rollback: every
    queue, log, counter stream and the delayed pool are discarded, and the
    crash is marked consumed so the same step replays cleanly.  Channels
    are reset in place, so handles stay valid.  Cumulative traffic
    statistics survive. *)
let restart t =
  Hashtbl.iter (fun _ ch -> reset ch) t.channels;
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
