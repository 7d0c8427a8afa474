(** Persistent domain pool.

    The engine used to [Domain.spawn]/[join] fresh domains on every kernel
    invocation; a simulation makes millions of kernel invocations, so the
    spawn cost dominated small sweeps and the domain count grew without
    bound over a trace.  This pool mirrors what an OpenMP runtime does for
    the paper's generated code: worker domains are spawned {e once}, parked
    on a condition variable, and fed jobs through an [Atomic] tile queue.

    Determinism: a job is a bag of independent tiles.  Workers pull tile
    indices with [Atomic.fetch_and_add] — which tile runs on which lane is
    racy by design — but tiles write disjoint cells with values that do not
    depend on the schedule, so the result is bitwise identical to serial
    execution (oracle 7 enforces this).

    Error handling: an exception inside a tile aborts the remaining tiles,
    is recorded, and is re-raised by the {e coordinator} after every
    participant has checked out.  Workers never die from a tile exception —
    the pool stays usable — and the exception propagates outside the
    per-lane [wrap], so observability span streams stay balanced.

    Lane numbering is stable: the coordinator is lane 0 and worker [i]
    (spawned once, in order) is always lane [i + 1], so pool lanes map to
    stable Chrome-trace tids. *)

type job = {
  ntiles : int;
  participants : int;  (** lanes 0 .. participants-1 may pull tiles *)
  f : lane:int -> int -> unit;
  wrap : int -> (unit -> unit) -> unit;  (** per-lane bracket (obs span) *)
  next : int Atomic.t;  (** tile queue head *)
  tiles_by_lane : int array;
  steals_by_lane : int array;
  mutable pending : int;  (** participating workers not yet checked out *)
  mutable error : exn option;  (** first tile exception, re-raised by lane 0 *)
}

type t = {
  mu : Mutex.t;
  work : Condition.t;  (** signals workers: a new job (or stop) is posted *)
  idle : Condition.t;  (** signals the coordinator: a worker checked out *)
  run_mu : Mutex.t;  (** serializes whole jobs (the pool runs one at a time) *)
  mutable generation : int;  (** bumped per posted job; wakes exactly once *)
  mutable job : job option;
  mutable stop : bool;
  mutable workers : unit Domain.t list;  (** newest first *)
  mutable size : int;
  mutable spawned : int;  (** cumulative spawn count — the regression metric *)
  mutable at_exit_registered : bool;
}

let pool =
  {
    mu = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    run_mu = Mutex.create ();
    generation = 0;
    job = None;
    stop = false;
    workers = [];
    size = 0;
    spawned = 0;
    at_exit_registered = false;
  }

(** Cumulative number of worker domains ever spawned.  Constant across any
    number of kernel invocations once the pool is warm — the 100-invocation
    regression test pins exactly this. *)
let spawned_total () = pool.spawned

let live_workers () = pool.size

(** Pool width requested by the environment: [PFGEN_DOMAINS], default 1
    (serial).  Read lazily so tests can set it per dune alias. *)
let default_domains () =
  match Sys.getenv_opt "PFGEN_DOMAINS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> max 1 n | None -> 1)
  | None -> 1

let record_error j e =
  Mutex.lock pool.mu;
  if j.error = None then j.error <- Some e;
  Mutex.unlock pool.mu;
  (* abort: push the queue head past the end so no lane starts another tile *)
  Atomic.set j.next j.ntiles

(* Pull tiles until the queue is drained (or aborted).  Exceptions from a
   tile are recorded and stop this lane; they never escape into [wrap]. *)
let drain j ~lane =
  let continue_ = ref true in
  while !continue_ do
    let ti = Atomic.fetch_and_add j.next 1 in
    if ti >= j.ntiles then continue_ := false
    else begin
      j.tiles_by_lane.(lane) <- j.tiles_by_lane.(lane) + 1;
      if ti mod j.participants <> lane then
        j.steals_by_lane.(lane) <- j.steals_by_lane.(lane) + 1;
      try j.f ~lane ti
      with e ->
        record_error j e;
        continue_ := false
    end
  done

let rec worker_loop i seen =
  Mutex.lock pool.mu;
  while pool.generation = seen && not pool.stop do
    Condition.wait pool.work pool.mu
  done;
  if pool.stop then Mutex.unlock pool.mu
  else begin
    let gen = pool.generation in
    let j = pool.job in
    Mutex.unlock pool.mu;
    (match j with
    | Some j when i + 1 < j.participants ->
      let lane = i + 1 in
      (try j.wrap lane (fun () -> drain j ~lane) with e -> record_error j e);
      Mutex.lock pool.mu;
      j.pending <- j.pending - 1;
      if j.pending = 0 then Condition.broadcast pool.idle;
      Mutex.unlock pool.mu
    | _ -> ());
    worker_loop i gen
  end

(** Join all workers and reset the pool (registered via [at_exit]; also
    used by tests to force a cold start).  [spawned_total] is cumulative
    and survives a shutdown.

    Idempotent and safe to call concurrently: the whole teardown holds
    [run_mu], so a second caller (e.g. a service layer's own [at_exit]
    firing after the pool's registered one) serializes behind the first,
    finds an empty worker list, and returns without raising.  Serializing
    also closes a race in the old two-caller interleaving where the second
    caller could reset [stop] before the first caller's workers had
    observed it, parking them forever under the first caller's join. *)
let shutdown () =
  Mutex.lock pool.run_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock pool.run_mu) @@ fun () ->
  Mutex.lock pool.mu;
  pool.stop <- true;
  Condition.broadcast pool.work;
  let ws = pool.workers in
  pool.workers <- [];
  pool.size <- 0;
  Mutex.unlock pool.mu;
  List.iter Domain.join ws;
  Mutex.lock pool.mu;
  pool.stop <- false;
  Mutex.unlock pool.mu

(* Grow the pool to [n] workers.  Workers are only ever added — a warm pool
   never respawns — and each new worker starts parked at the current
   generation. *)
let ensure_workers n =
  Mutex.lock pool.mu;
  if not pool.at_exit_registered then begin
    pool.at_exit_registered <- true;
    Stdlib.at_exit shutdown
  end;
  while pool.size < n do
    let i = pool.size in
    let seen = pool.generation in
    pool.size <- pool.size + 1;
    pool.spawned <- pool.spawned + 1;
    pool.workers <- Domain.spawn (fun () -> worker_loop i seen) :: pool.workers
  done;
  Mutex.unlock pool.mu

type stats = {
  tiles_run : int;
  steals : int;  (** tiles run by a lane other than [index mod participants] *)
  lanes : int;  (** participating lanes (including the coordinator) *)
}

let serial_stats ntiles = { tiles_run = ntiles; steals = 0; lanes = 1 }

(** Run [ntiles] tiles through the pool with [domains] lanes.  Lane 0 is
    the calling domain; [wrap lane body] brackets each lane's share (the
    engine hangs its per-lane observability span there).  Serial fallback
    ([domains <= 1] or a single tile) runs everything on lane 0 inside
    [wrap 0] — the exact code path of a serial sweep, so pooled and serial
    execution cannot drift.  Re-raises the first tile exception after the
    job has fully quiesced; the pool remains usable afterwards. *)
let serial f ntiles =
  for ti = 0 to ntiles - 1 do
    f ~lane:0 ti
  done

let run ?wrap ~domains ~ntiles f =
  if ntiles <= 0 then serial_stats 0
  else if domains <= 1 || ntiles <= 1 then begin
    (match wrap with
    | None -> serial f ntiles
    | Some wrap -> wrap 0 (fun () -> serial f ntiles));
    serial_stats ntiles
  end
  else begin
    let wrap = match wrap with Some w -> w | None -> fun _ f -> f () in
    Mutex.lock pool.run_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock pool.run_mu) @@ fun () ->
    ensure_workers (domains - 1);
    let j =
      {
        ntiles;
        participants = domains;
        f;
        wrap;
        next = Atomic.make 0;
        tiles_by_lane = Array.make domains 0;
        steals_by_lane = Array.make domains 0;
        pending = domains - 1;
        error = None;
      }
    in
    Mutex.lock pool.mu;
    pool.job <- Some j;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mu;
    (* the coordinator is participant 0 *)
    (try j.wrap 0 (fun () -> drain j ~lane:0) with e -> record_error j e);
    Mutex.lock pool.mu;
    while j.pending > 0 do
      Condition.wait pool.idle pool.mu
    done;
    pool.job <- None;
    Mutex.unlock pool.mu;
    (match j.error with Some e -> raise e | None -> ());
    {
      tiles_run = Array.fold_left ( + ) 0 j.tiles_by_lane;
      steals = Array.fold_left ( + ) 0 j.steals_by_lane;
      lanes = domains;
    }
  end

(** Tile-level collection hook for the reduction layer: run [ntiles]
    tiles through the pool and return the per-tile results indexed by
    tile, independent of which lane computed which tile.  Lanes write
    disjoint slots, so no synchronization beyond the job barrier is
    needed; the caller combines the slots in tile order (or by content
    key), never in completion order.  Exceptions propagate exactly like
    {!run}: re-raised after quiescence, pool left usable. *)
let collect ?wrap ~domains ~ntiles f =
  let out = Array.make ntiles None in
  let (_ : stats) =
    run ?wrap ~domains ~ntiles (fun ~lane ti -> out.(ti) <- Some (f ~lane ti))
  in
  Array.map (function Some v -> v | None -> invalid_arg "Pool.collect: missing tile") out
