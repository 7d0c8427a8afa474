(** Cooperative round-robin farm scheduler.

    Jobs are sliced into [quantum]-timestep slices and multiplexed over
    the one persistent [Vm.Pool]: at most [max_active] jobs are resident
    (buffers live, admission-charged against the memory budget) at a time,
    and one scheduler pass advances every resident job by one quantum.
    Long single-block jobs are preempted after [park_after] consecutive
    quanta — their state is captured by [Resilience.Snapshot], their
    buffers go back to the mempool, and the job re-enters the queue to
    resume later into recycled storage.  Crash-injected jobs run every
    quantum under [Resilience.Recovery.run_protected], which checkpoints
    before the quantum's first step.  Before the first admission, the
    JIT programs of every accepted job are built in one fan-out, so no
    quantum waits for a compiler.

    Correctness contract (oracle 9): any quantum size, admission order,
    preemption pattern and injected fault schedule yields, per job, a
    final state bitwise identical to {!run_solo} of the same spec, and
    final blocks whose state and destination buffers, ghosts included,
    are bitwise {!solo_exec}'s — because every multiplexing mechanism is
    individually bitwise-neutral (quanta just split [run] loops; a park
    holds the state fields' interiors and the resume re-primes their
    ghosts, and the step writes every other buffer before it reads it;
    pooled arrays are zero-filled; pool width, tile shape and backend are
    covered by oracles 7 and 8; crash recovery by oracle 6). *)

type config = {
  quantum : int;  (** timesteps per slice *)
  max_active : int;  (** resident-job cap *)
  budget_bytes : int;  (** admission memory budget *)
  tenant_quota : int;  (** max resident jobs per tenant *)
  park_after : int;  (** preempt after this many consecutive quanta; 0 = never *)
  num_domains : int;  (** pool width of every kernel sweep *)
  autotune : bool;  (** take tile shapes from the shared [Vm.Tune] cache *)
  ckpt_every : int;  (** checkpoint cadence of crash-protected jobs *)
}

let default_config () =
  {
    quantum = 2;
    max_active = 3;
    budget_bytes = 64 * 1024 * 1024;
    tenant_quota = 2;
    park_after = 3;
    num_domains = Vm.Pool.default_domains ();
    autotune = false;
    ckpt_every = 2;
  }

(* Kernel generation is the expensive part of admitting a model family;
   one process-wide cache keyed by family serves the scheduler, the solo
   verifier and repeated farm runs alike. *)
let gens : (Workload.family, Pfcore.Genkernels.t) Hashtbl.t = Hashtbl.create 4

let gen_of family =
  match Hashtbl.find_opt gens family with
  | Some g -> g
  | None ->
    let g = Pfcore.Genkernels.generate (Workload.params_of_family family) in
    Hashtbl.add gens family g;
    g

let variant_of split = if split then Pfcore.Timestep.Split else Pfcore.Timestep.Full

(* ------------------------------------------------------------------ *)
(* Job runtime state                                                   *)
(* ------------------------------------------------------------------ *)

type exec = Single of Pfcore.Timestep.t | Forest of Blocks.Forest.t

type job = {
  spec : Workload.spec;
  bytes : int;  (** admission charge while resident *)
  mutable exec : exec option;  (** [None] while parked *)
  mutable parked : Resilience.Snapshot.t option;  (** a preempted job's state *)
  mutable quanta : int;
  mutable consecutive : int;  (** quanta since last (re)admission *)
  mutable preemptions : int;
  mutable restarts : int;
  mutable tune_hit : bool;
}

type job_result = {
  r_spec : Workload.spec;
  final : Resilience.Snapshot.t;
  r_quanta : int;
  r_preemptions : int;
  r_restarts : int;
  latency_ns : float;  (** batch start to job completion *)
  r_tune_hit : bool;  (** tile plan served from the shared tune cache *)
}

type run_stats = {
  results : job_result list;  (** completion order *)
  rejected : (Workload.spec * string) list;
  queue : Queue.stats;
  mempool : Mempool.stats;
  preemptions : int;
  restarts : int;
  elapsed_ns : float;
}

let step_count job =
  match job.exec with
  | Some (Single sim) -> sim.Pfcore.Timestep.step_count
  | Some (Forest f) -> Blocks.Forest.step_count f
  | None -> ( match job.parked with Some p -> p.Resilience.Snapshot.step | None -> 0)

(* ------------------------------------------------------------------ *)
(* Building and tearing down resident state                            *)
(* ------------------------------------------------------------------ *)

(* Tile shape for this job: from the shared tune cache when autotuning is
   on (probes run once per (model, pool width) fingerprint; every further
   job of the family is a cache hit), otherwise the default slab split. *)
let tile_plan config (job : job) gen =
  if not config.autotune then None
  else begin
    let _, misses0 = Vm.Tune.cache_stats () in
    let plan = Pfcore.Timestep.autotune ~domains:config.num_domains ~probe_n:6 gen in
    let _, misses1 = Vm.Tune.cache_stats () in
    job.tune_hit <- misses1 = misses0;
    plan.Pfcore.Timestep.plan_tile
  end

(* Make [job] resident: bind its time step(s), then fill or resume its
   state — inside a [serve.activate] span on the job's lane, so a trace
   shows what admitting a job costs next to its quanta. *)
let activate config mempool (job : job) =
  let spec = job.spec in
  let lane = Obs.Sink.job_lane spec.Workload.id in
  Obs.Span.in_lane lane @@ fun () ->
  Obs.Span.with_ ~cat:"serve" ~args:[ ("job", float_of_int spec.Workload.id) ] "serve.activate"
  @@ fun () ->
  let gen = gen_of spec.Workload.family in
  let alloc = Mempool.alloc mempool in
  let tile = tile_plan config job gen in
  (match spec.Workload.ranks with
  | 1 ->
    let sim =
      Pfcore.Timestep.create ~variant_phi:(variant_of spec.Workload.split)
        ~variant_mu:(variant_of spec.Workload.split) ~num_domains:config.num_domains ?tile
        ~backend:spec.Workload.backend ~lane ~alloc
        ~dims:(Array.make (Workload.dim_of spec) spec.Workload.size)
        gen
    in
    (match job.parked with
    | Some p ->
      Resilience.Snapshot.restore_single p sim;
      Obs.Span.instant ~cat:"serve" "preempt:resume";
      job.parked <- None
    | None ->
      Workload.init_sim sim ~seed:spec.Workload.seed;
      Pfcore.Timestep.prime sim);
    job.exec <- Some (Single sim)
  | _ ->
    let grid, block_dims = Workload.decomposition spec in
    let forest =
      Blocks.Forest.create ~variant_phi:(variant_of spec.Workload.split)
        ~variant_mu:(variant_of spec.Workload.split) ~num_domains:config.num_domains ?tile
        ~backend:spec.Workload.backend ~alloc ~grid ~block_dims gen
    in
    (match spec.Workload.crash_step with
    | Some k ->
      let plan = Blocks.Faultplan.chaos ~seed:spec.Workload.seed ~crash_step:k () in
      Blocks.Mpisim.set_fault_plan forest.Blocks.Forest.comm (Some plan)
    | None -> ());
    Array.iter
      (fun sim -> Workload.init_sim sim ~seed:spec.Workload.seed)
      forest.Blocks.Forest.sims;
    Blocks.Forest.prime forest;
    job.exec <- Some (Forest forest));
  job.consecutive <- 0

let release_exec mempool (job : job) =
  (match job.exec with
  | Some (Single sim) -> Mempool.release_block mempool sim.Pfcore.Timestep.block
  | Some (Forest f) ->
    Array.iter
      (fun (sim : Pfcore.Timestep.t) -> Mempool.release_block mempool sim.Pfcore.Timestep.block)
      f.Blocks.Forest.sims
  | None -> ());
  job.exec <- None

(** The blocks of an execution, in block order. *)
let exec_sims = function
  | Single sim -> [ sim ]
  | Forest f -> Array.to_list f.Blocks.Forest.sims

let capture_exec = function
  | Single sim -> Resilience.Snapshot.capture_single sim
  | Forest f -> Resilience.Snapshot.capture f

let capture_final (job : job) =
  match job.exec with
  | Some exec -> capture_exec exec
  | None -> invalid_arg "Scheduler.capture_final: job is not resident"

(* Build the JIT programs of every step kernel [specs]' JIT jobs will
   sweep in one fan-out ([Vm.Jit.prepare]), inside a [serve.compile] span:
   the batch, not the job, is the unit of compilation, so no quantum waits
   for a compiler and the compiler runs use every core.  The kernels come
   from [Timestep.step_kernels], which [Timestep.create] binds. *)
let compile_batch specs =
  let kernels =
    List.concat_map
      (fun (spec : Workload.spec) ->
        if spec.Workload.backend <> Vm.Engine.Jit then []
        else
          let phi, projection, mu =
            Pfcore.Timestep.step_kernels ~variant_phi:(variant_of spec.Workload.split)
              ~variant_mu:(variant_of spec.Workload.split) (gen_of spec.Workload.family)
          in
          phi @ Option.to_list projection @ mu)
      specs
  in
  if kernels <> [] then
    Obs.Span.with_ ~cat:"serve" "serve.compile" (fun () ->
        Vm.Engine.jit_prepare_kernels kernels)

(* ------------------------------------------------------------------ *)
(* Quantum execution                                                   *)
(* ------------------------------------------------------------------ *)

let run_quantum config (job : job) =
  let remaining = job.spec.Workload.steps - step_count job in
  let steps = min config.quantum remaining in
  Obs.Span.in_lane (Obs.Sink.job_lane job.spec.Workload.id) (fun () ->
      Obs.Span.with_ ~cat:"serve"
        ~args:
          [
            ("job", float_of_int job.spec.Workload.id);
            ("steps", float_of_int steps);
          ]
        "quantum"
        (fun () ->
          match job.exec with
          | Some (Single sim) -> Pfcore.Timestep.run sim ~steps
          | Some (Forest forest) ->
            let stats = Resilience.Recovery.run_protected ~every:config.ckpt_every ~steps forest in
            job.restarts <- job.restarts + stats.Resilience.Recovery.restarts
          | None -> invalid_arg "Scheduler.run_quantum: job is not resident"));
  job.quanta <- job.quanta + 1;
  job.consecutive <- job.consecutive + 1;
  Obs.Metrics.count "serve.quanta" 1;
  if Obs.Sink.enabled () then
    Obs.Metrics.count ("serve.tenant." ^ job.spec.Workload.tenant ^ ".steps") steps

(* ------------------------------------------------------------------ *)
(* The scheduler loop                                                  *)
(* ------------------------------------------------------------------ *)

(* The farm owns the pool's lifetime from its side too: its own at_exit
   teardown stacks on the pool's, so process exit exercises exactly the
   double-shutdown idempotence the pool regression test holds it to. *)
let at_exit_registered = Atomic.make false

(** Run [specs] to completion through the farm; returns per-job results in
    completion order plus queue/mempool/preemption accounting.
    [on_finish], when given, sees each finished job's blocks before they
    go back to the mempool: ghosts and scratch beside the state its
    [final] holds. *)
let run ?(config = default_config ()) ?(on_finish = fun _ _ -> ()) ~mempool specs =
  if config.quantum < 1 then invalid_arg "Scheduler.run: quantum must be positive";
  if not (Atomic.exchange at_exit_registered true) then
    Stdlib.at_exit Vm.Pool.shutdown;
  if config.max_active < 1 then invalid_arg "Scheduler.run: max_active must be positive";
  let t0 = Obs.Clock.now_ns () in
  let since_start () = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) in
  let q = Queue.create ~budget_bytes:config.budget_bytes ~tenant_quota:config.tenant_quota () in
  let jobs : (int, job) Hashtbl.t = Hashtbl.create 32 in
  let rejected = ref [] in
  List.iter
    (fun (spec : Workload.spec) ->
      let bytes = Workload.projected_bytes ~gen:(gen_of spec.Workload.family) spec in
      match Queue.submit q spec ~bytes with
      | Queue.Accepted ->
        Hashtbl.replace jobs spec.Workload.id
          {
            spec;
            bytes;
            exec = None;
            parked = None;
            quanta = 0;
            consecutive = 0;
            preemptions = 0;
            restarts = 0;
            tune_hit = false;
          }
      | Queue.Rejected reason -> rejected := (spec, reason) :: !rejected)
    specs;
  compile_batch (List.filter (fun (s : Workload.spec) -> Hashtbl.mem jobs s.Workload.id) specs);
  let roster = ref [] in
  let results = ref [] in
  let preemptions = ref 0 in
  let restarts = ref 0 in
  let resident_bytes () = List.fold_left (fun acc j -> acc + j.bytes) 0 !roster in
  let tenant_residents tenant =
    List.fold_left
      (fun acc j -> if j.spec.Workload.tenant = tenant then acc + 1 else acc)
      0 !roster
  in
  let admit () =
    let progress = ref false in
    let continue_ = ref true in
    while !continue_ && List.length !roster < config.max_active do
      match Queue.next q ~resident_bytes:(resident_bytes ()) ~tenant_residents with
      | None -> continue_ := false
      | Some (spec, _bytes) ->
        let job = Hashtbl.find jobs spec.Workload.id in
        activate config mempool job;
        roster := !roster @ [ job ];
        progress := true
    done;
    !progress
  in
  let finish job =
    let final = capture_final job in
    Option.iter (fun exec -> on_finish job.spec (exec_sims exec)) job.exec;
    release_exec mempool job;
    roster := List.filter (fun j -> j != job) !roster;
    let latency = since_start () in
    Obs.Metrics.count "serve.jobs_completed" 1;
    if Obs.Sink.enabled () then begin
      Obs.Metrics.count ("serve.tenant." ^ job.spec.Workload.tenant ^ ".jobs") 1;
      Obs.Metrics.observe (Obs.Metrics.histogram "serve.job_latency_ns") latency
    end;
    restarts := !restarts + job.restarts;
    results :=
      {
        r_spec = job.spec;
        final;
        r_quanta = job.quanta;
        r_preemptions = job.preemptions;
        r_restarts = job.restarts;
        latency_ns = latency;
        r_tune_hit = job.tune_hit;
      }
      :: !results
  in
  let park job =
    (match job.exec with
    | Some (Single sim) ->
      let snap = Resilience.Snapshot.capture_single sim in
      Obs.Metrics.count "preempt.parks" 1;
      Obs.Metrics.count "preempt.parked_bytes" (Resilience.Snapshot.state_bytes snap);
      Obs.Span.instant ~cat:"serve" "preempt:park";
      job.parked <- Some snap;
      release_exec mempool job
    | _ -> invalid_arg "Scheduler.park: only single-block jobs are preemptible");
    roster := List.filter (fun j -> j != job) !roster;
    job.preemptions <- job.preemptions + 1;
    incr preemptions;
    Obs.Metrics.count "serve.preemptions" 1;
    Queue.requeue q job.spec ~bytes:job.bytes
  in
  while !roster <> [] || not (Queue.is_empty q) do
    let admitted = admit () in
    if !roster = [] then begin
      if not admitted then
        (* cannot happen while the budget admits every accepted job on an
           empty roster; a violated invariant must fail loudly, not spin *)
        failwith "Scheduler.run: stalled with pending jobs and an empty roster"
    end;
    (* one round-robin pass over a snapshot of the roster: finish/park only
       ever remove the job being processed, so the snapshot stays valid *)
    List.iter
      (fun job ->
        run_quantum config job;
        if step_count job >= job.spec.Workload.steps then finish job
        else if
          config.park_after > 0
          && job.consecutive >= config.park_after
          && job.spec.Workload.ranks = 1
          && not (Queue.is_empty q)
        then park job)
      !roster
  done;
  {
    results = List.rev !results;
    rejected = List.rev !rejected;
    queue = Queue.stats q;
    mempool = Mempool.stats mempool;
    preemptions = !preemptions;
    restarts = !restarts;
    elapsed_ns = since_start ();
  }

(* ------------------------------------------------------------------ *)
(* The solo reference                                                  *)
(* ------------------------------------------------------------------ *)

(** Run [spec] alone, serially, through the reference interpreter with no
    quanta, no pool, no mempool and no faults — the ground truth every
    farm-scheduled execution of the same spec must match bitwise. *)
let solo_exec (spec : Workload.spec) =
  let gen = gen_of spec.Workload.family in
  match spec.Workload.ranks with
  | 1 ->
    let sim =
      Pfcore.Timestep.create ~variant_phi:(variant_of spec.Workload.split)
        ~variant_mu:(variant_of spec.Workload.split) ~num_domains:1
        ~backend:Vm.Engine.Interp
        ~dims:(Array.make (Workload.dim_of spec) spec.Workload.size)
        gen
    in
    Workload.init_sim sim ~seed:spec.Workload.seed;
    Pfcore.Timestep.prime sim;
    Pfcore.Timestep.run sim ~steps:spec.Workload.steps;
    Single sim
  | _ ->
    let grid, block_dims = Workload.decomposition spec in
    let forest =
      Blocks.Forest.create ~variant_phi:(variant_of spec.Workload.split)
        ~variant_mu:(variant_of spec.Workload.split) ~num_domains:1
        ~backend:Vm.Engine.Interp ~grid ~block_dims gen
    in
    Array.iter
      (fun sim -> Workload.init_sim sim ~seed:spec.Workload.seed)
      forest.Blocks.Forest.sims;
    Blocks.Forest.prime forest;
    Blocks.Forest.run forest ~steps:spec.Workload.steps;
    Forest forest

(** The final state of {!solo_exec}. *)
let run_solo spec = capture_exec (solo_exec spec)
