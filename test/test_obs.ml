(* Observability subsystem: golden Chrome trace, trace structure, zero-cost
   disabled path, Mpisim counter accounting, the ECM drift oracle, and the
   QCheck laws from Check.Obs_props. *)

(* Run [f] with a clean, enabled observability sink; restore the disabled,
   empty state after (the sink and registry are process-global). *)
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

let curvature_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()))

let curvature_sim ?num_domains () =
  let sim = Pfcore.Timestep.create ?num_domains ~dims:[| 8; 8 |] (Lazy.force curvature_gen) in
  Pfcore.Simulation.init_sphere sim;
  Pfcore.Timestep.prime sim;
  sim

let contains hay needle = Astring.String.is_infix ~affix:needle hay

(* ---- golden Chrome trace ---- *)

(* A fixed 2-step 8x8 curvature run (fixed Philox seed, single block, one
   domain) has a fully deterministic span structure; with timestamps zeroed
   the rendered trace is byte-stable and golden-comparable. *)
let test_golden_trace () =
  let sim = curvature_sim () in
  let json =
    with_obs (fun () ->
        Pfcore.Timestep.run sim ~steps:2;
        Obs.Trace.to_json ~zero_times:true (Obs.Sink.events ()))
  in
  Golden.check ~name:"trace_curvature_8x8.json" json

(* ---- trace structure ---- *)

(* A 2x2-rank forest trace must carry the trace-event schema fields and one
   labeled lane per simulated rank. *)
let test_trace_structure () =
  let forest =
    Blocks.Forest.create ~grid:[| 2; 2 |] ~block_dims:[| 8; 8 |] (Lazy.force curvature_gen)
  in
  Array.iter Pfcore.Simulation.init_sphere forest.Blocks.Forest.sims;
  let json =
    with_obs (fun () ->
        Blocks.Forest.prime forest;
        Blocks.Forest.run forest ~steps:2;
        Obs.Trace.to_json (Obs.Sink.events ()))
  in
  List.iter
    (fun needle -> Alcotest.(check bool) ("trace contains " ^ needle) true (contains json needle))
    [
      "\"traceEvents\"";
      "\"ph\":\"B\"";
      "\"ph\":\"E\"";
      "\"ts\":";
      "\"pid\":";
      "\"tid\":";
      "process_name";
      "thread_name";
      "rank 0";
      "rank 1";
      "rank 2";
      "rank 3";
      "exchange:";
      "kernel:";
    ]

(* A sliced sweep puts each spawned OCaml domain on its own track. *)
let test_domain_tracks () =
  let sim = curvature_sim ~num_domains:2 () in
  let evs, json =
    with_obs (fun () ->
        Pfcore.Timestep.run sim ~steps:1;
        let evs = Obs.Sink.events () in
        (evs, Obs.Trace.to_json evs))
  in
  Alcotest.(check bool) "slice span on tid 1" true
    (List.exists (fun (e : Obs.Sink.event) -> e.Obs.Sink.tid = 1) evs);
  Alcotest.(check bool) "domain track labeled" true (contains json "domain 1")

(* ---- zero cost when disabled ---- *)

(* Besides the single-block sweeps, a 2x2 forest step (messages through
   Mpisim and Ghost) and a snapshot capture + encode must register nothing:
   their counters go through the gated [Obs.Metrics.count]. *)
let test_disabled_is_silent () =
  Obs.Metrics.reset ();
  Obs.Sink.clear ();
  let sim = curvature_sim () in
  Pfcore.Timestep.run sim ~steps:2;
  let forest =
    Blocks.Forest.create ~grid:[| 2; 2 |] ~block_dims:[| 8; 8 |] (Lazy.force curvature_gen)
  in
  Array.iter Pfcore.Simulation.init_sphere forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  Blocks.Forest.step forest;
  Alcotest.(check bool) "forest step sent messages" true
    (forest.Blocks.Forest.comm.Blocks.Mpisim.messages_sent > 0);
  ignore (Resilience.Snapshot.encode (Resilience.Snapshot.capture forest));
  Alcotest.(check int) "no events recorded" 0 (List.length (Obs.Sink.events ()));
  let s = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "no counters registered" true (s.Obs.Metrics.s_counters = []);
  Alcotest.(check bool) "no histograms registered" true (s.Obs.Metrics.s_histograms = [])

(* ---- Mpisim counter accounting ---- *)

(* Under a crash-free fault plan every message that enters the network must
   leave it through exactly one of the three exits — delivery, a drop, or
   stale discard — and the observability mirror must agree with the
   substrate's own counters, message for message. *)
let test_mpisim_conservation () =
  let forest =
    Blocks.Forest.create ~grid:[| 2; 2 |] ~block_dims:[| 8; 8 |] (Lazy.force curvature_gen)
  in
  Array.iter Pfcore.Simulation.init_sphere forest.Blocks.Forest.sims;
  (* drop/delay/duplicate active, crash step far beyond the run *)
  let plan = Blocks.Faultplan.chaos ~seed:7 ~crash_step:1_000_000 () in
  Blocks.Mpisim.set_fault_plan forest.Blocks.Forest.comm (Some plan);
  with_obs (fun () ->
      Blocks.Forest.prime forest;
      Blocks.Forest.run forest ~steps:4;
      let c = forest.Blocks.Forest.comm in
      Alcotest.(check int) "sent + duplicated + retransmitted = delivered + dropped + stale"
        (c.Blocks.Mpisim.messages_sent + c.Blocks.Mpisim.duplicated
        + c.Blocks.Mpisim.retransmissions)
        (c.Blocks.Mpisim.delivered + c.Blocks.Mpisim.dropped + c.Blocks.Mpisim.stale_discarded);
      Alcotest.(check bool) "plan injected faults" true
        (c.Blocks.Mpisim.dropped + c.Blocks.Mpisim.duplicated + c.Blocks.Mpisim.delayed_count
        > 0);
      let s = Obs.Metrics.snapshot () in
      let v name = Option.value ~default:0 (Obs.Metrics.counter_value s name) in
      List.iter
        (fun (name, substrate) ->
          Alcotest.(check int) ("net." ^ name) substrate (v ("net." ^ name)))
        [
          ("messages_sent", c.Blocks.Mpisim.messages_sent);
          ("bytes_sent", c.Blocks.Mpisim.bytes_sent);
          ("delivered", c.Blocks.Mpisim.delivered);
          ("dropped", c.Blocks.Mpisim.dropped);
          ("duplicated", c.Blocks.Mpisim.duplicated);
          ("delayed", c.Blocks.Mpisim.delayed_count);
          ("retransmissions", c.Blocks.Mpisim.retransmissions);
          ("stale_discarded", c.Blocks.Mpisim.stale_discarded);
        ])

(* ---- ECM drift oracle ---- *)

(* Medians of nine trials: with best-of-two, noise on a shared host
   sometimes moved one ratio past the threshold or the μ ordering. *)
let test_drift_ordering () =
  let r = Check.Drift.run ~n:8 ~sweeps:1 ~reps:9 () in
  Alcotest.(check int) "all eight P1/P2 kernel variants measured" 8
    (List.length r.Check.Drift.rows);
  Alcotest.(check bool) "mu split <= full, measured and modeled" true
    (Check.Drift.mu_ordering_ok r);
  match Check.Drift.verdict r with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let suite =
  [
    Alcotest.test_case "golden Chrome trace (curvature 8x8, 2 steps)" `Quick
      test_golden_trace;
    Alcotest.test_case "forest trace: schema fields + one lane per rank" `Quick
      test_trace_structure;
    Alcotest.test_case "sliced sweep: one track per domain" `Quick test_domain_tracks;
    Alcotest.test_case "disabled sink records nothing" `Quick test_disabled_is_silent;
    Alcotest.test_case "mpisim conservation + obs mirror" `Quick test_mpisim_conservation;
    Alcotest.test_case "ECM drift: 8 variants, mu ordering, threshold" `Slow
      test_drift_ordering;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      (Check.Obs_props.tests ~count:Check.Harness.default_count)
