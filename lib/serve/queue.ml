(** Priority job queue with tenant quotas and memory admission control.

    Ordering is priority-descending, FIFO within a priority class (ties
    break on submission order, so the queue is deterministic).  Admission
    happens in two stages:

    - {!submit} rejects outright any job whose projected resident bytes
      exceed the whole budget — it could never run;
    - {!next} hands out the best pending job that currently fits: its
      projected bytes must fit in the unused part of the budget and its
      tenant must be below the per-tenant residency quota.  Jobs that are
      skipped stay parked in the queue (counted in {!stats}) and become
      eligible again as residents finish or are preempted away. *)

type entry = {
  spec : Workload.spec;
  bytes : int;  (** projected resident bytes (admission charge) *)
  seqno : int;  (** FIFO tiebreaker within a priority class *)
}

type stats = {
  submitted : int;
  rejected : int;
  parked_budget : int;  (** handout skips because the budget was full *)
  parked_quota : int;  (** handout skips because the tenant was at quota *)
}

type t = {
  budget_bytes : int;
  tenant_quota : int;  (** max resident jobs per tenant *)
  mutable pending : entry list;  (** kept in handout order *)
  mutable seqno : int;
  mutable submitted : int;
  mutable rejected : int;
  mutable parked_budget : int;
  mutable parked_quota : int;
}

let create ?(budget_bytes = 64 * 1024 * 1024) ?(tenant_quota = max_int) () =
  if budget_bytes < 1 then invalid_arg "Queue.create: budget must be positive";
  if tenant_quota < 1 then invalid_arg "Queue.create: tenant quota must be positive";
  {
    budget_bytes;
    tenant_quota;
    pending = [];
    seqno = 0;
    submitted = 0;
    rejected = 0;
    parked_budget = 0;
    parked_quota = 0;
  }

let before a b =
  a.spec.Workload.priority > b.spec.Workload.priority
  || (a.spec.Workload.priority = b.spec.Workload.priority && a.seqno < b.seqno)

let insert t e =
  let rec go = function
    | [] -> [ e ]
    | x :: rest -> if before e x then e :: x :: rest else x :: go rest
  in
  t.pending <- go t.pending

type verdict = Accepted | Rejected of string

(** Submit a job; [bytes] is its projected resident footprint.  A job that
    could never fit the budget is rejected now rather than starving the
    queue forever. *)
let submit t (spec : Workload.spec) ~bytes =
  t.submitted <- t.submitted + 1;
  if bytes > t.budget_bytes then begin
    t.rejected <- t.rejected + 1;
    Obs.Metrics.count "serve.rejected" 1;
    Rejected
      (Printf.sprintf "projected %d bytes exceed the %d-byte memory budget" bytes
         t.budget_bytes)
  end
  else begin
    insert t { spec; bytes; seqno = t.seqno };
    t.seqno <- t.seqno + 1;
    Accepted
  end

(** A preempted job re-enters the queue keeping its priority; it queues
    behind already-pending peers of the same class (round-robin fairness
    between a parked long job and fresh arrivals). *)
let requeue t (spec : Workload.spec) ~bytes = ignore (submit t spec ~bytes)

(** Hand out the best pending job that fits right now.  [resident_bytes]
    is the admission charge of all currently resident jobs;
    [tenant_residents] counts residents per tenant. *)
let next t ~resident_bytes ~tenant_residents =
  let fits e =
    if resident_bytes + e.bytes > t.budget_bytes then begin
      t.parked_budget <- t.parked_budget + 1;
      Obs.Metrics.count "serve.parked_budget" 1;
      false
    end
    else if tenant_residents e.spec.Workload.tenant >= t.tenant_quota then begin
      t.parked_quota <- t.parked_quota + 1;
      Obs.Metrics.count "serve.parked_quota" 1;
      false
    end
    else true
  in
  let rec go skipped = function
    | [] -> None
    | e :: rest ->
      if fits e then begin
        t.pending <- List.rev_append skipped rest;
        Some (e.spec, e.bytes)
      end
      else go (e :: skipped) rest
  in
  go [] t.pending

let is_empty t = t.pending = []
let length t = List.length t.pending

let stats t =
  {
    submitted = t.submitted;
    rejected = t.rejected;
    parked_budget = t.parked_budget;
    parked_quota = t.parked_quota;
  }
