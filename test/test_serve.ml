(* Simulation-farm battery: queue ordering and admission control, mempool
   reuse accounting, preempt-snapshot-resume bitwise roundtrips, scheduler
   end-to-end runs (completion, steady-state zero-alloc, shared tune
   cache).  The farm-vs-solo differential oracle itself lives in
   lib/check (oracle 9); these are the unit-level contracts. *)

open Serve

(* A minimal single-block spec for queue-level tests; only priority,
   tenant and id matter to the queue. *)
let mk ?(tenant = "amber") ?(priority = 0) id =
  {
    Workload.id;
    tenant;
    family = Workload.Curv2d;
    size = 8;
    steps = 2;
    priority;
    split = false;
    backend = Vm.Engine.Interp;
    ranks = 1;
    crash_step = None;
    seed = id;
  }

let no_residents = (fun (_ : string) -> 0)

let drain q =
  let rec go acc =
    match Queue.next q ~resident_bytes:0 ~tenant_residents:no_residents with
    | Some (spec, _) -> go (spec.Workload.id :: acc)
    | None -> List.rev acc
  in
  go []

(* ---- queue ordering ---- *)

let test_queue_priority_fifo () =
  let q = Queue.create () in
  List.iteri
    (fun id priority ->
      match Queue.submit q (mk ~priority id) ~bytes:100 with
      | Queue.Accepted -> ()
      | Queue.Rejected r -> Alcotest.failf "unexpected rejection: %s" r)
    [ 0; 2; 1; 2; 0; 1 ];
  Alcotest.(check (list int)) "priority-descending, FIFO within a class" [ 1; 3; 2; 5; 0; 4 ]
    (drain q);
  Alcotest.(check bool) "drained" true (Queue.is_empty q)

let test_queue_requeue_behind_peers () =
  let q = Queue.create () in
  ignore (Queue.submit q (mk ~priority:1 0) ~bytes:100);
  ignore (Queue.submit q (mk ~priority:1 1) ~bytes:100);
  (match Queue.next q ~resident_bytes:0 ~tenant_residents:no_residents with
  | Some (spec, _) -> Alcotest.(check int) "FIFO head first" 0 spec.Workload.id
  | None -> Alcotest.fail "queue unexpectedly empty");
  (* a preempted job re-enters behind the already-pending peer of its class *)
  Queue.requeue q (mk ~priority:1 0) ~bytes:100;
  Alcotest.(check (list int)) "requeued job waits behind its peer" [ 1; 0 ] (drain q)

(* ---- admission control ---- *)

let test_queue_budget_and_quota () =
  let q = Queue.create ~budget_bytes:1000 ~tenant_quota:1 () in
  (match Queue.submit q (mk 0) ~bytes:2000 with
  | Queue.Rejected _ -> ()
  | Queue.Accepted -> Alcotest.fail "a job larger than the whole budget must be rejected");
  ignore (Queue.submit q (mk ~tenant:"amber" ~priority:2 1) ~bytes:600);
  ignore (Queue.submit q (mk ~tenant:"amber" ~priority:2 2) ~bytes:600);
  ignore (Queue.submit q (mk ~tenant:"basalt" ~priority:0 3) ~bytes:300);
  (* 600 bytes already resident: the high-priority 600-byte amber jobs no
     longer fit the budget, so the small basalt job is handed out instead *)
  (match Queue.next q ~resident_bytes:600 ~tenant_residents:no_residents with
  | Some (spec, _) -> Alcotest.(check int) "budget skips to a job that fits" 3 spec.Workload.id
  | None -> Alcotest.fail "expected the basalt job to fit");
  (* budget free again, but amber is at its residency quota: nothing fits *)
  let residents = function "amber" -> 1 | _ -> 0 in
  (match Queue.next q ~resident_bytes:0 ~tenant_residents:residents with
  | Some (spec, _) -> Alcotest.failf "job %d handed out over quota" spec.Workload.id
  | None -> ());
  (* with everything idle again, the parked amber jobs drain in FIFO order *)
  Alcotest.(check (list int)) "parked jobs released in order" [ 1; 2 ] (drain q);
  let s = Queue.stats q in
  Alcotest.(check int) "submissions counted" 4 s.Queue.submitted;
  Alcotest.(check int) "rejection counted" 1 s.Queue.rejected;
  Alcotest.(check bool) "budget skips counted" true (s.Queue.parked_budget >= 2);
  Alcotest.(check bool) "quota skips counted" true (s.Queue.parked_quota >= 2)

let test_scheduler_rejects_oversized () =
  let config =
    { (Scheduler.default_config ()) with budget_bytes = 1; num_domains = 1 }
  in
  let specs = Workload.generate ~families:[ Workload.Curv2d ] ~with_crash:false ~seed:2 ~jobs:3 () in
  let stats = Scheduler.run ~config ~mempool:(Mempool.create ()) specs in
  Alcotest.(check int) "every job rejected at admission" 3
    (List.length stats.Scheduler.rejected);
  Alcotest.(check int) "no results" 0 (List.length stats.Scheduler.results)

(* ---- mempool ---- *)

let test_mempool_accounting () =
  let mp = Mempool.create () in
  let a = Mempool.acquire mp 10 in
  let _b = Mempool.acquire mp 10 in
  let s = Mempool.stats mp in
  Alcotest.(check int) "two cold misses" 2 s.Mempool.misses;
  Alcotest.(check int) "no hits yet" 0 s.Mempool.hits;
  Alcotest.(check int) "160 live bytes" 160 s.Mempool.live_bytes;
  Alcotest.(check int) "one size class" 1 s.Mempool.classes;
  a.(3) <- 42.;
  Mempool.release mp a;
  let s = Mempool.stats mp in
  Alcotest.(check int) "released bytes pooled" 80 s.Mempool.pooled_bytes;
  Alcotest.(check int) "released bytes not live" 80 s.Mempool.live_bytes;
  let c = Mempool.acquire mp 10 in
  Alcotest.(check bool) "hit recycles the same array" true (c == a);
  Alcotest.(check (float 0.)) "recycled array is zero-filled" 0. c.(3);
  let s = Mempool.stats mp in
  Alcotest.(check int) "one hit" 1 s.Mempool.hits;
  Alcotest.(check int) "still two misses" 2 s.Mempool.misses;
  let _d = Mempool.acquire mp 20 in
  let s = Mempool.stats mp in
  Alcotest.(check int) "second size class" 2 s.Mempool.classes;
  Alcotest.(check int) "high water tracks the peak footprint" 320 s.Mempool.high_water_bytes;
  Mempool.release mp [||] (* zero-length release is a no-op *);
  Mempool.reset mp;
  Alcotest.(check int) "reset drops the free lists" 0 (Mempool.stats mp).Mempool.pooled_bytes

(* ---- preemption roundtrip ---- *)

let test_preempt_roundtrip_bitwise () =
  let gen = Scheduler.gen_of Workload.Curv2d in
  let mp = Mempool.create () in
  let mk_sim ?alloc () = Pfcore.Timestep.create ~num_domains:1 ?alloc ~dims:[| 12; 12 |] gen in
  let sim = mk_sim ~alloc:(Mempool.alloc mp) () in
  Workload.init_sim sim ~seed:5;
  Pfcore.Timestep.prime sim;
  Pfcore.Timestep.run sim ~steps:2;
  let parked = Resilience.Snapshot.capture_single sim in
  Mempool.release_block mp sim.Pfcore.Timestep.block;
  Alcotest.(check bool) "released buffers are poisoned" true
    (List.for_all
       (fun (_, (b : Vm.Buffer.t)) -> Array.length b.Vm.Buffer.data = 0)
       sim.Pfcore.Timestep.block.Vm.Engine.buffers);
  Alcotest.(check int) "no storage leaked past the pool" 0 (Mempool.stats mp).Mempool.live_bytes;
  (* resume into recycled storage and finish the run *)
  let cold_misses = (Mempool.stats mp).Mempool.misses in
  let sim2 = mk_sim ~alloc:(Mempool.alloc mp) () in
  Alcotest.(check int) "resume allocates purely from the pool" cold_misses
    ((Mempool.stats mp).Mempool.misses);
  Resilience.Snapshot.restore_single parked sim2;
  Pfcore.Timestep.run sim2 ~steps:2;
  (* the reference: the same job, never preempted *)
  let solo = mk_sim () in
  Workload.init_sim solo ~seed:5;
  Pfcore.Timestep.prime solo;
  Pfcore.Timestep.run solo ~steps:4;
  Alcotest.(check bool) "park -> release -> resume is bitwise exact" true
    (Resilience.Snapshot.equal
       (Resilience.Snapshot.capture_single sim2)
       (Resilience.Snapshot.capture_single solo));
  Alcotest.(check bool) "in the state and destination buffers, ghosts included" true
    (Check.Oracles.buffers_bitwise_equal ~scratch:false [ sim2 ] [ solo ])

(* Each spec's solo blocks ([Scheduler.solo_exec]), and a farm
   [on_finish] hook recording the ids of finished jobs whose blocks
   differ from them in a state or destination buffer, ghosts included (a
   resumed job's scratch is its recycled storage's). *)
let solo_blocks_check specs =
  let solo =
    List.map
      (fun (s : Workload.spec) -> (s.Workload.id, Scheduler.exec_sims (Scheduler.solo_exec s)))
      specs
  in
  let differ = ref [] in
  let on_finish (spec : Workload.spec) sims =
    if
      not
        (Check.Oracles.buffers_bitwise_equal ~scratch:false sims
           (List.assoc spec.Workload.id solo))
    then
      differ := spec.Workload.id :: !differ
  in
  (on_finish, differ)

(* ---- scheduler end to end ---- *)

let test_scheduler_completes_and_preempts () =
  let specs = Workload.generate ~families:[ Workload.Curv2d ] ~with_crash:false ~seed:11 ~jobs:6 () in
  let config =
    { (Scheduler.default_config ()) with quantum = 1; max_active = 2; park_after = 1 }
  in
  let on_finish, differ = solo_blocks_check specs in
  let stats = Scheduler.run ~config ~on_finish ~mempool:(Mempool.create ()) specs in
  Alcotest.(check int) "all jobs complete" 6 (List.length stats.Scheduler.results);
  Alcotest.(check (list int)) "finished blocks = solo blocks, ghosts included" [] !differ;
  Alcotest.(check int) "nothing rejected" 0 (List.length stats.Scheduler.rejected);
  Alcotest.(check bool) "quantum 1 + park-after 1 preempts" true (stats.Scheduler.preemptions > 0);
  let latencies =
    List.map (fun (r : Scheduler.job_result) -> r.Scheduler.latency_ns) stats.Scheduler.results
  in
  Alcotest.(check bool) "results are in completion order" true
    (List.for_all2 ( <= ) latencies (List.tl latencies @ [ infinity ]));
  List.iter
    (fun (r : Scheduler.job_result) ->
      Alcotest.(check bool) "enough quanta to cover the steps" true
        (r.Scheduler.r_quanta >= r.Scheduler.r_spec.Workload.steps);
      Alcotest.(check bool) "farm result = solo run (bitwise)" true
        (Resilience.Snapshot.equal r.Scheduler.final (Scheduler.run_solo r.Scheduler.r_spec)))
    stats.Scheduler.results

(* After a warm-up batch has sized the mempool's free lists, a second
   batch of the same workload allocates nothing fresh and serves at least
   90% of its acquires from the free lists — on a small batch and on
   12 Curv2d jobs at seed 9. *)
let test_scheduler_steady_state_zero_alloc () =
  List.iter
    (fun (seed, jobs) ->
      let mp = Mempool.create () in
      let specs =
        Workload.generate ~families:[ Workload.Curv2d ] ~with_crash:false ~seed ~jobs ()
      in
      let stats1 = Scheduler.run ~mempool:mp specs in
      Alcotest.(check int) "warmup batch completes" jobs
        (List.length stats1.Scheduler.results);
      let m1 = Mempool.stats mp in
      let stats2 = Scheduler.run ~mempool:mp specs in
      let m2 = stats2.Scheduler.mempool in
      Alcotest.(check int) "steady state does zero fresh allocations" m1.Mempool.misses
        m2.Mempool.misses;
      let hits = m2.Mempool.hits - m1.Mempool.hits in
      let acquires = hits + (m2.Mempool.misses - m1.Mempool.misses) in
      Alcotest.(check bool)
        (Printf.sprintf "steady-state hit rate %d/%d >= 90%%" hits acquires)
        true
        (acquires > 0 && float_of_int hits >= 0.9 *. float_of_int acquires);
      Alcotest.(check int) "all storage is back in the pool" 0 m2.Mempool.live_bytes)
    [ (3, 4); (9, 12) ]

let test_scheduler_shares_tune_cache () =
  Vm.Tune.clear_cache ();
  let specs = Workload.generate ~families:[ Workload.Curv2d ] ~with_crash:false ~seed:21 ~jobs:4 () in
  let config =
    { (Scheduler.default_config ()) with autotune = true; num_domains = 2 }
  in
  let hits0, misses0 = Vm.Tune.cache_stats () in
  let stats = Scheduler.run ~config ~mempool:(Mempool.create ()) specs in
  let hits1, misses1 = Vm.Tune.cache_stats () in
  Alcotest.(check bool) "only the first job probes (one model family)" true
    (misses1 - misses0 <= 2);
  Alcotest.(check bool) "every further job hits the shared cache" true
    (hits1 - hits0 >= 3);
  let served =
    List.length
      (List.filter (fun (r : Scheduler.job_result) -> r.Scheduler.r_tune_hit)
         stats.Scheduler.results)
  in
  Alcotest.(check bool) "at least all-but-one job served from the cache" true (served >= 3)

(* ---- memory projection audit ---- *)

let test_projected_bytes_exact () =
  (* admission control charges [projected_bytes] before any buffer exists;
     an under-estimate would let the farm overshoot its budget.  Audit the
     projection against the bytes a real Timestep block allocates, over the
     zoo families (multi-component phi, mu-less models, and PFC's extra
     staggered flux slots are the layouts that could drift).  P1/P2 share
     eutectic's layout path and cost seconds to generate, so they ride the
     serve soak instead. *)
  List.iter
    (fun family ->
      let spec = { (mk 0) with Workload.family; size = 8 } in
      let gen = Pfcore.Genkernels.generate (Workload.params_of_family family) in
      let projected = Workload.projected_bytes ~gen spec in
      let _, block_dims = Workload.decomposition spec in
      let sim = Pfcore.Timestep.create ~dims:block_dims gen in
      let actual =
        List.fold_left
          (fun acc ((_ : Symbolic.Fieldspec.t), buf) ->
            acc + (8 * Array.length buf.Vm.Buffer.data))
          0
          sim.Pfcore.Timestep.block.Vm.Engine.buffers
      in
      Alcotest.(check int)
        (Workload.family_label family ^ ": projection = allocation")
        actual projected)
    [ Workload.Curv2d; Workload.Eutectic; Workload.Pfc; Workload.GrayScott ]

(* No kernel of a model without μ touches μ, so its blocks store none:
   projection, initial fill and the mempool follow the block's fields. *)
let test_no_mu_buffers_without_mu () =
  let names family =
    let gen = Pfcore.Genkernels.generate (Workload.params_of_family family) in
    let sim = Pfcore.Timestep.create ~dims:[| 6; 6 |] gen in
    List.map
      (fun ((f : Symbolic.Fieldspec.t), _) -> f.Symbolic.Fieldspec.name)
      sim.Pfcore.Timestep.block.Vm.Engine.buffers
  in
  Alcotest.(check (list string))
    "curvature block: phi only" [ "phi_src"; "phi_dst"; "phi_stag" ] (names Workload.Curv2d);
  Alcotest.(check (list string))
    "eutectic block: phi and mu"
    [ "phi_src"; "phi_dst"; "mu_src"; "mu_dst"; "phi_stag"; "mu_stag" ]
    (names Workload.Eutectic)

(* ---- activation ---- *)

let with_obs f =
  Obs.Metrics.reset ();
  Obs.Sink.clear ();
  Obs.Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.disable ();
      Obs.Sink.clear ();
      Obs.Metrics.reset ())
    f

(* The row-wise initial fill writes the per-cell formula's bits into every
   cell, ghosts included: on a 2D spec, a 3D spec and both ranks of a
   2-rank spec, whose second rank sits at x offset > 0. *)
let test_init_sim_rows_match_formula () =
  let matches (sim : Pfcore.Timestep.t) ~seed =
    let block = sim.Pfcore.Timestep.block in
    let gen = sim.Pfcore.Timestep.gen in
    let n = float_of_int gen.Pfcore.Genkernels.params.Pfcore.Params.n_phases in
    let x0 = block.Vm.Engine.offset.(0) in
    let reference =
      Vm.Engine.make_block ~ghost:2 ~dims:block.Vm.Engine.dims
        (Pfcore.Timestep.field_list gen)
    in
    List.iter
      (fun ((_ : Symbolic.Fieldspec.t), buf) ->
        Vm.Buffer.init buf (fun c comp ->
            (1. /. n)
            +. (0.01 *. sin (float_of_int (((c.(0) + x0) * 3) + (comp * 7) + (seed * 13)))));
        Vm.Buffer.periodic buf)
      reference.Vm.Engine.buffers;
    Workload.init_sim sim ~seed;
    List.for_all2
      (fun ((_ : Symbolic.Fieldspec.t), (a : Vm.Buffer.t)) (_, (b : Vm.Buffer.t)) ->
        Array.for_all2
          (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
          a.Vm.Buffer.data b.Vm.Buffer.data)
      block.Vm.Engine.buffers reference.Vm.Engine.buffers
  in
  List.iter
    (fun (label, (spec : Workload.spec)) ->
      let grid, block_dims = Workload.decomposition spec in
      let forest =
        Blocks.Forest.create ~num_domains:1 ~grid ~block_dims
          (Scheduler.gen_of spec.Workload.family)
      in
      let sims = forest.Blocks.Forest.sims in
      if spec.Workload.ranks > 1 then
        Alcotest.(check bool) (label ^ ": the second rank is offset") true
          (sims.(1).Pfcore.Timestep.block.Vm.Engine.offset.(0) > 0);
      Array.iteri
        (fun r sim ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, rank %d: row-wise fill = per-cell formula (bitwise)" label r)
            true (matches sim ~seed:spec.Workload.seed))
        sims)
    [
      ("2D", { (mk 3) with Workload.size = 12 });
      ("3D", { (mk 4) with Workload.family = Workload.P1; size = 6 });
      ("2 ranks", { (mk 5) with Workload.size = 12; ranks = 2 });
    ]

(* A second identical batch finds every kernel's program built by the
   first, so it counts no vm.bind.programs; each activation is a
   serve.activate span, and the trace stays well formed. *)
let test_second_batch_builds_no_programs () =
  let specs = Workload.generate ~families:[ Workload.Curv2d ] ~seed:7 ~jobs:6 () in
  let mempool = Mempool.create () in
  ignore (Scheduler.run ~mempool specs);
  let programs, events =
    with_obs (fun () ->
        ignore (Scheduler.run ~mempool specs);
        ( Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "vm.bind.programs",
          Obs.Sink.events () ))
  in
  Alcotest.(check int) "the second batch builds no program" 0
    (Option.value ~default:0 programs);
  let activations =
    List.filter
      (fun (e : Obs.Sink.event) -> e.Obs.Sink.phase = Obs.Sink.B && e.name = "serve.activate")
      events
  in
  Alcotest.(check bool) "every job's activation is a span" true
    (List.length activations >= List.length specs);
  Alcotest.(check bool) "the batch's span stream is well formed" true
    (Check.Obs_props.stream_well_formed events)

(* A cold batch whose JIT jobs span both variants of two families builds
   every program they sweep in one vm.jit.compile span, inside the
   serve.compile span and before the first quantum: its misses are the
   distinct programs of those jobs' steps.  Its JIT jobs equal their solo
   runs bitwise, and a second batch compiles nothing. *)
let test_batch_compiles_before_first_quantum () =
  let specs =
    Workload.generate ~families:[ Workload.Curv2d; Workload.GrayScott ] ~with_crash:false
      ~seed:4 ~jobs:8 ()
    |> List.mapi (fun i (s : Workload.spec) ->
           {
             s with
             Workload.backend = (if i mod 4 = 3 then Vm.Engine.Interp else Vm.Engine.Jit);
             split = i mod 2 = 1;
           })
  in
  (* the kernels a step of [s] sweeps, listed here from the generated
     kernels, not through Timestep *)
  let step_programs (s : Workload.spec) =
    let g = Scheduler.gen_of s.Workload.family in
    let pick full (pair : Pfcore.Genkernels.pair) =
      if s.Workload.split then [ pair.Pfcore.Genkernels.stag; pair.main ] else [ full ]
    in
    pick g.Pfcore.Genkernels.phi_full g.phi_split
    @ Option.to_list g.projection
    @ match (g.mu_full, g.mu_split) with Some f, Some p -> pick f p | _ -> []
  in
  let distinct =
    specs
    |> List.filter (fun (s : Workload.spec) -> s.Workload.backend = Vm.Engine.Jit)
    |> List.concat_map step_programs
    |> List.map (fun k -> Vm.Jit.fingerprint k (Ir.Lower.run k))
    |> List.sort_uniq compare |> List.length
  in
  let config = { (Scheduler.default_config ()) with num_domains = 1 } in
  let mempool = Mempool.create () in
  let on_finish, differ = solo_blocks_check specs in
  let traced () =
    with_obs (fun () ->
        let stats = Scheduler.run ~config ~on_finish ~mempool specs in
        (stats, Array.of_list (Obs.Sink.events ())))
  in
  let begins name events =
    List.filter
      (fun i ->
        let e = events.(i) in
        e.Obs.Sink.phase = Obs.Sink.B && e.Obs.Sink.name = name)
      (List.init (Array.length events) Fun.id)
  in
  Vm.Jit.clear_cache ();
  let stats, events = traced () in
  (match
     (begins "serve.compile" events, begins "vm.jit.compile" events, begins "quantum" events)
   with
  | [ serve ], [ compile ], first :: _ ->
    Alcotest.(check bool) "the compile sits in serve.compile" true (serve < compile);
    Alcotest.(check bool) "the compile precedes the first quantum" true (compile < first)
  | _, compiles, _ ->
    Alcotest.failf "expected one vm.jit.compile span, saw %d" (List.length compiles));
  Alcotest.(check int) "misses = the distinct programs of the JIT jobs' steps" distinct
    (snd (Vm.Jit.cache_stats ()));
  List.iter
    (fun (r : Scheduler.job_result) ->
      if r.Scheduler.r_spec.Workload.backend = Vm.Engine.Jit then
        Alcotest.(check bool) "a JIT job = its solo run (bitwise)" true
          (Resilience.Snapshot.equal r.Scheduler.final (Scheduler.run_solo r.Scheduler.r_spec)))
    stats.Scheduler.results;
  Alcotest.(check (list int)) "every job's blocks = its solo run's, ghosts included" [] !differ;
  let _, events = traced () in
  let misses = snd (Vm.Jit.cache_stats ()) in
  Vm.Jit.clear_cache ();
  Alcotest.(check int) "a second batch opens no vm.jit.compile span" 0
    (List.length (begins "vm.jit.compile" events));
  Alcotest.(check int) "and misses no program" distinct misses

let suite =
  [
    Alcotest.test_case "queue: priority order, FIFO within a class" `Quick
      test_queue_priority_fifo;
    Alcotest.test_case "queue: requeue lands behind same-priority peers" `Quick
      test_queue_requeue_behind_peers;
    Alcotest.test_case "queue: budget and tenant-quota admission" `Quick
      test_queue_budget_and_quota;
    Alcotest.test_case "scheduler: oversized jobs rejected at admission" `Quick
      test_scheduler_rejects_oversized;
    Alcotest.test_case "mempool: hit/miss/zero-fill/high-water accounting" `Quick
      test_mempool_accounting;
    Alcotest.test_case "preempt: park -> release -> resume bitwise roundtrip" `Quick
      test_preempt_roundtrip_bitwise;
    Alcotest.test_case "scheduler: completes, preempts, matches solo bitwise" `Quick
      test_scheduler_completes_and_preempts;
    Alcotest.test_case "scheduler: steady state does zero fresh allocs" `Quick
      test_scheduler_steady_state_zero_alloc;
    Alcotest.test_case "scheduler: jobs share the tune cache" `Quick
      test_scheduler_shares_tune_cache;
    Alcotest.test_case "workload: projected bytes match real allocation" `Quick
      test_projected_bytes_exact;
    Alcotest.test_case "workload: a model without mu stores no mu buffers" `Quick
      test_no_mu_buffers_without_mu;
    Alcotest.test_case "workload: row-wise initial fill = per-cell formula" `Quick
      test_init_sim_rows_match_formula;
    Alcotest.test_case "scheduler: a second batch builds no program" `Quick
      test_second_batch_builds_no_programs;
    Alcotest.test_case "scheduler: one compile before the first quantum" `Quick
      test_batch_compiles_before_first_quantum;
  ]
