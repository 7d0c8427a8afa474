(* Resilience subsystem: snapshot format, fault plans, the self-healing
   exchange, and rollback recovery. *)

let curvature = lazy (Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()))

let make_forest () =
  let g = Lazy.force curvature in
  let forest = Blocks.Forest.create ~grid:[| 2; 2 |] ~block_dims:[| 8; 8 |] g in
  Array.iter Pfcore.Simulation.init_sphere forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  forest

let make_single ?(size = 12) () =
  let g = Lazy.force curvature in
  let sim = Pfcore.Timestep.create ~dims:[| size; size |] g in
  Pfcore.Simulation.init_sphere sim;
  Pfcore.Timestep.prime sim;
  sim

(* The adaptive forest of golden/adaptive_frozen_v2.snap: 2x2 curvature
   blocks of 6x6 on two ranks, two steps, then block 3 frozen by hand at
   level 1. *)
let make_adaptive_frozen () =
  let g = Lazy.force curvature in
  let f = g.Pfcore.Genkernels.fields in
  let af = Blocks.Adaptive.create ~ranks:2 ~bgrid:[| 2; 2 |] ~block_dims:[| 6; 6 |] g in
  List.iter Pfcore.Simulation.init_model (Blocks.Adaptive.active_sims af);
  Blocks.Adaptive.prime af;
  Blocks.Adaptive.run af ~steps:2;
  let vertex (fl : Symbolic.Fieldspec.t) =
    Array.init fl.Symbolic.Fieldspec.components (fun c -> float_of_int (c + 1) /. 8.)
  in
  af.Blocks.Adaptive.states.(3) <-
    Blocks.Adaptive.Frozen
      (List.map (fun fl -> (fl, vertex fl)) [ f.Pfcore.Model.phi_src; f.Pfcore.Model.phi_dst ]);
  af.Blocks.Adaptive.levels.(3) <- 1;
  af

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Resilience.Snapshot.Invalid _ -> ()

let phi () = (Lazy.force curvature).Pfcore.Genkernels.fields.Pfcore.Model.phi_src

(* Two forests hold the same state and, with [scratch] (the default),
   the same bits in every padded buffer; without, in the state fields'
   and their destinations' padded buffers, ghosts included (see
   {!Check.Oracles.buffers_bitwise_equal}). *)
let forests_bitwise_equal ?scratch a b =
  Resilience.Snapshot.equal (Resilience.Snapshot.capture a) (Resilience.Snapshot.capture b)
  && Check.Oracles.buffers_bitwise_equal ?scratch (Check.Oracles.forest_sims a)
       (Check.Oracles.forest_sims b)

(* --------------- snapshot format ----------------------------------- *)

let test_snapshot_roundtrip () =
  let sim = make_single () in
  Pfcore.Timestep.run sim ~steps:3;
  let snap = Resilience.Snapshot.capture_single sim in
  let decoded = Resilience.Snapshot.decode (Resilience.Snapshot.encode snap) in
  Alcotest.(check bool) "decode . encode = id" true
    (Resilience.Snapshot.equal snap decoded);
  Alcotest.(check int) "step stored" 3 decoded.Resilience.Snapshot.step;
  (* restoring into a differently-evolved sim reproduces the state bitwise *)
  let other = make_single () in
  Pfcore.Timestep.run other ~steps:1;
  Resilience.Snapshot.restore_single decoded other;
  Alcotest.(check bool) "restore reproduces capture" true
    (Resilience.Snapshot.equal snap (Resilience.Snapshot.capture_single other));
  Alcotest.(check int) "step restored" 3 other.Pfcore.Timestep.step_count;
  Pfcore.Timestep.run sim ~steps:2;
  Pfcore.Timestep.run other ~steps:2;
  Alcotest.(check bool) "and both continue to the same bits in every buffer" true
    (Check.Oracles.buffers_bitwise_equal [ sim ] [ other ])

let test_snapshot_file_roundtrip () =
  let sim = make_single () in
  Pfcore.Timestep.run sim ~steps:2;
  let snap = Resilience.Snapshot.capture_single sim in
  let path = Filename.temp_file "pfgen" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let bytes = Resilience.Snapshot.save path snap in
      Alcotest.(check int) "save returns the file's length" (Unix.stat path).Unix.st_size bytes;
      Alcotest.(check bool) "file roundtrip" true
        (Resilience.Snapshot.equal snap (Resilience.Snapshot.load path)))

let test_snapshot_corruption_rejected () =
  List.iter
    (fun encoded ->
      (* flip one bit in a handful of positions spread over the file:
         header, metadata and payload corruption must all be rejected *)
      List.iter
        (fun frac ->
          let pos = String.length encoded * frac / 100 in
          let b = Bytes.of_string encoded in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
          expect_invalid (Printf.sprintf "corruption at byte %d" pos) (fun () ->
              Resilience.Snapshot.decode (Bytes.to_string b)))
        [ 0; 3; 10; 50; 99 ];
      (* truncation too *)
      expect_invalid "truncated snapshot" (fun () ->
          Resilience.Snapshot.decode (String.sub encoded 0 40)))
    [
      Resilience.Snapshot.encode (Resilience.Snapshot.capture_single (make_single ()));
      Resilience.Snapshot.encode (Resilience.Snapshot.capture_adaptive (make_adaptive_frozen ()));
    ]

let eutectic = lazy (Pfcore.Genkernels.generate (Pfcore.Params.eutectic ()))

(* The forest of golden/eutectic_12_r2_v3.snap, as
   [pfgen checkpoint --model eutectic --size 12 --steps 3 --ranks 2]
   builds and runs it. *)
let make_eutectic_12_r2 () =
  let forest =
    Blocks.Forest.create ~grid:[| 2; 1 |] ~block_dims:[| 6; 12 |] (Lazy.force eutectic)
  in
  Array.iter Pfcore.Simulation.init_model forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  Blocks.Forest.run forest ~steps:3;
  forest

(* Files written in the padded layouts: the v1 file of
   [pfgen checkpoint --model curvature --size 8 --steps 2] and the v2 file
   of {!make_adaptive_frozen}, both holding every padded buffer.  Each
   restores into a fresh target, every buffer NaN, whose capture is this
   build's capture of the same run, and which then continues bitwise with
   it.  The decoded v1 file re-encodes as v3, which adds the levels,
   owners and block tag of its one block (8 + 9 bytes). *)
let test_committed_snapshots () =
  let poison = Check.Oracles.poison in
  let v1 = Golden.read_file "golden/curvature_8_v1.snap" in
  let snap = Resilience.Snapshot.decode v1 in
  Alcotest.(check int) "v3 layout adds 8 + 9 x blocks bytes" (String.length v1 + 17)
    (String.length (Resilience.Snapshot.encode snap));
  let sim = make_single ~size:8 () in
  Pfcore.Timestep.run sim ~steps:2;
  let fresh = make_single ~size:8 () in
  poison fresh;
  Resilience.Snapshot.restore_single snap fresh;
  Alcotest.(check bool) "v1 file restores to the capture of the same run" true
    (Resilience.Snapshot.equal (Resilience.Snapshot.capture_single sim)
       (Resilience.Snapshot.capture_single fresh));
  Pfcore.Timestep.run sim ~steps:2;
  Pfcore.Timestep.run fresh ~steps:2;
  Alcotest.(check bool) "and continues bitwise" true
    (Resilience.Snapshot.equal (Resilience.Snapshot.capture_single sim)
       (Resilience.Snapshot.capture_single fresh)
    && Check.Oracles.buffers_bitwise_equal ~scratch:false [ sim ] [ fresh ]);
  let snap = Resilience.Snapshot.decode (Golden.read_file "golden/adaptive_frozen_v2.snap") in
  let af = make_adaptive_frozen () in
  let fresh =
    Blocks.Adaptive.create ~ranks:2 ~bgrid:[| 2; 2 |] ~block_dims:[| 6; 6 |]
      (Lazy.force curvature)
  in
  List.iter poison (Blocks.Adaptive.active_sims fresh);
  Resilience.Snapshot.restore_adaptive snap fresh;
  Alcotest.(check bool) "v2 file restores to the capture of the same run" true
    (Resilience.Snapshot.equal (Resilience.Snapshot.capture_adaptive af)
       (Resilience.Snapshot.capture_adaptive fresh));
  (* the fixture froze block 3 by hand, after its neighbours' ghosts were
     exchanged: re-prime them, as the restore did, before both continue *)
  Blocks.Lockstep.prime af.Blocks.Adaptive.blocks;
  Blocks.Adaptive.run af ~steps:2;
  Blocks.Adaptive.run fresh ~steps:2;
  Alcotest.(check bool) "and continues bitwise" true
    (Resilience.Snapshot.equal (Resilience.Snapshot.capture_adaptive af)
       (Resilience.Snapshot.capture_adaptive fresh)
    && Check.Oracles.buffers_bitwise_equal ~scratch:false (Blocks.Adaptive.active_sims af)
         (Blocks.Adaptive.active_sims fresh))

(* The v3 file of {!make_eutectic_12_r2}: the interiors of φ_src and
   μ_src of two blocks.  It is this build's capture of the same run, byte
   for byte, and restores into a poisoned forest that continues bitwise. *)
let test_committed_v3 () =
  let v3 = Golden.read_file "golden/eutectic_12_r2_v3.snap" in
  let forest = make_eutectic_12_r2 () in
  let captured = Resilience.Snapshot.capture forest in
  Alcotest.(check bool) "v3 file = capture of the same run" true
    (Resilience.Snapshot.equal (Resilience.Snapshot.decode v3) captured);
  Alcotest.(check bool) "v3 file = encoding of that capture, byte for byte" true
    (String.equal v3 (Resilience.Snapshot.encode captured));
  let fresh =
    Blocks.Forest.create ~grid:[| 2; 1 |] ~block_dims:[| 6; 12 |] (Lazy.force eutectic)
  in
  Check.Oracles.poison_forest fresh;
  Resilience.Snapshot.restore (Resilience.Snapshot.decode v3) fresh;
  Blocks.Forest.run forest ~steps:2;
  Blocks.Forest.run fresh ~steps:2;
  Alcotest.(check bool) "restored forest continues bitwise" true
    (forests_bitwise_equal ~scratch:false forest fresh)

(* Encoded sizes, exactly: a snapshot holds each active block's φ_src
   and, with μ, μ_src interiors — 8 bytes a value — beside its framing.
   A 12x12 curvature block (2 φ components, no μ): 16 + 26 header and
   scalars, 3 x 12 + 2 x 8 dims, levels and owners, 4 + 1 + 12 + 4 block
   count, tag, offset and field count, 4 + 7 + 4 + 8 x 288 for φ_src.  The
   96^2 eutectic forest of 8x8 blocks of 12^2 (3 φ and 1 μ component):
   602 + 64 x (17 + (4 + 7 + 4 + 8 x 432) + (4 + 6 + 4 + 8 x 144)).  The
   padded layout held the latter in 2,104,538 bytes. *)
let test_snapshot_sizes () =
  let single = Resilience.Snapshot.encode (Resilience.Snapshot.capture_single (make_single ())) in
  Alcotest.(check int) "one 12x12 curvature block" 2434 (String.length single);
  let forest =
    Blocks.Forest.create ~grid:[| 8; 8 |] ~block_dims:[| 12; 12 |] (Lazy.force eutectic)
  in
  Array.iter Pfcore.Simulation.init_model forest.Blocks.Forest.sims;
  Alcotest.(check int) "8x8 eutectic blocks of 12^2" 298_458
    (String.length (Resilience.Snapshot.encode (Resilience.Snapshot.capture forest)))

(* Every kind of restore target, restored from state interiors into NaN
   scratch, continues bitwise — one sample each of oracle 6's legs: one
   block (P1 split, P2 with Philox, curvature) beside the curvature
   forest; the eutectic forest, full and split with the overlapped
   exchange, each interpreted and on the JIT; and an adaptive forest with
   frozen blocks. *)
let test_restore_targets () =
  List.iter
    (fun (block, split) ->
      let s = { Check.Gen.mseed = 7; split; steps = 2; block } in
      Alcotest.(check bool)
        (Printf.sprintf "%s block, split %b" (Check.Gen.block_model_name block) split)
        true (Check.Oracles.snapshot_case s))
    [ (Check.Gen.P1_block, true); (Check.Gen.P2_block, false); (Check.Gen.Curvature_block, false) ];
  List.iter
    (fun (zsplit, zjit) ->
      let s =
        {
          Check.Gen.zf = 0;
          zcoef = 0;
          zseed = 7;
          zsplit;
          zsteps = 2;
          zdomains = 1;
          ztile = [| 0; 0 |];
          zjit;
        }
      in
      Alcotest.(check bool) (Fmt.str "%a" Check.Gen.pp_zoo s) true
        (Check.Oracles.zoo_snapshot_case s))
    [ (false, false); (false, true); (true, false); (true, true) ];
  let s =
    {
      Check.Gen.ad_seed = 7;
      ad_bgrid = [| 4; 2 |];
      ad_ranks = 2;
      ad_static = false;
      ad_adapt_every = 1;
      ad_steps = 2;
      ad_jit = false;
      ad_domains = 1;
      ad_tile = [| 0; 0 |];
      ad_plan_seed = 0;
      ad_drop = 0.;
      ad_delay = 0.;
      ad_dup = 0.;
      ad_crash = false;
      ad_crash_rank = 0;
      ad_crash_step = 1;
      ad_ckpt_every = 1;
    }
  in
  let af = Check.Oracles.make_adaptive s in
  Blocks.Adaptive.prime af;
  Blocks.Adaptive.run af ~steps:s.Check.Gen.ad_steps;
  Alcotest.(check bool) "the adaptive forest captured has frozen blocks" true
    (Blocks.Adaptive.frozen_blocks af > 0);
  Alcotest.(check bool) (Fmt.str "%a" Check.Gen.pp_adaptive s) true
    (Check.Oracles.adaptive_snapshot_case s)

(* A CRC-valid file whose block grid contradicts itself is rejected by
   [decode], before anything reads an axis: the committed v1 file
   re-encoded (which recomputes the CRC) with an empty global dims, a
   wrong one, a block dims of another length, and a grid that does not
   hold its blocks. *)
let test_snapshot_topology_rejected () =
  let snap = Resilience.Snapshot.decode (Golden.read_file "golden/curvature_8_v1.snap") in
  List.iter
    (fun (what, bad) ->
      expect_invalid what (fun () ->
          Resilience.Snapshot.decode (Resilience.Snapshot.encode bad)))
    [
      ("empty global dims", { snap with Resilience.Snapshot.global_dims = [||] });
      ("global dims not grid x block", { snap with global_dims = [| 8; 9 |] });
      ("block dims of another length", { snap with block_dims = [| 8; 8; 8 |] });
      ("grid that does not hold the blocks", { snap with grid = [| 2; 1 |] });
    ]

(* A restore target that cannot hold the snapshot, and a v2 file whose
   per-block arrays disagree with its block count, are rejected. *)
let test_snapshot_shape_guards () =
  let forest = make_forest () in
  let snap = Resilience.Snapshot.capture forest in
  let blocks = Array.copy snap.Resilience.Snapshot.blocks in
  blocks.(3) <- Resilience.Snapshot.Frozen [ ((phi ()).Symbolic.Fieldspec.name, [| 0.; 1. |]) ];
  expect_invalid "frozen block restored into a uniform forest" (fun () ->
      Resilience.Snapshot.restore { snap with Resilience.Snapshot.blocks } forest);
  let short = { snap with owner = Array.sub snap.Resilience.Snapshot.owner 0 3 } in
  expect_invalid "owner array one entry short" (fun () ->
      Resilience.Snapshot.decode (Resilience.Snapshot.encode short))

let test_snapshot_fingerprint_guard () =
  let sim = make_single () in
  let snap = Resilience.Snapshot.capture_single sim in
  let wrong = { snap with Resilience.Snapshot.fingerprint = snap.fingerprint lxor 1 } in
  match Resilience.Snapshot.restore_single wrong sim with
  | _ -> Alcotest.fail "wrong-model snapshot accepted"
  | exception Resilience.Snapshot.Invalid _ -> ()

(* --------------- fault plans ---------------------------------------- *)

let test_faultplan_deterministic () =
  let plan = Blocks.Faultplan.chaos ~seed:7 ~crash_step:99 () in
  for seq = 0 to 50 do
    let d1 = Blocks.Faultplan.decide plan ~src:0 ~dst:1 ~tag:2 ~seq in
    let d2 = Blocks.Faultplan.decide plan ~src:0 ~dst:1 ~tag:2 ~seq in
    Alcotest.(check bool) (Printf.sprintf "seq %d stable" seq) true (d1 = d2)
  done;
  (* the none plan never touches a message *)
  for seq = 0 to 50 do
    Alcotest.(check bool) "none delivers" true
      (Blocks.Faultplan.decide Blocks.Faultplan.none ~src:3 ~dst:0 ~tag:1 ~seq
      = Blocks.Faultplan.Deliver)
  done

(* --------------- substrate invariants ------------------------------- *)

let test_finalize_invariant () =
  let c = Blocks.Mpisim.create 2 in
  Blocks.Mpisim.send c ~src:0 ~dst:1 ~tag:3 [| 1.; 2. |];
  (match Blocks.Mpisim.finalize c with
  | () -> Alcotest.fail "finalize accepted an undelivered message"
  | exception Blocks.Mpisim.Unquiescent [ (0, 1, 3, 1) ] -> ()
  | exception Blocks.Mpisim.Unquiescent other ->
    Alcotest.failf "wrong leftovers (%d channels)" (List.length other));
  (* after the failed finalize drained the queues, a second one is clean *)
  Blocks.Mpisim.finalize c;
  (* consumed messages never trip the invariant (fresh channel: the
     drained one has a permanently lost sequence number, by design) *)
  Blocks.Mpisim.send c ~src:0 ~dst:1 ~tag:4 [| 4. |];
  (match Blocks.Mpisim.recv_expected c ~src:0 ~dst:1 ~tag:4 with
  | Some _ -> ()
  | None -> Alcotest.fail "expected message not delivered");
  Blocks.Mpisim.finalize c

let test_no_message_rendering () =
  Alcotest.(check string) "No_message renders its channel"
    "Mpisim.No_message: no message queued from rank 2 to rank 0 with tag 5"
    (Printexc.to_string (Blocks.Mpisim.No_message (2, 0, 5)));
  Alcotest.(check string) "Unquiescent renders its channels"
    "Mpisim.Unquiescent: undelivered messages at finalize: 2 message(s) from rank 0 \
     to rank 1 with tag 3"
    (Printexc.to_string (Blocks.Mpisim.Unquiescent [ (0, 1, 3, 2) ]))

(* --------------- self-healing exchange ------------------------------ *)

let with_plan plan forest =
  Blocks.Mpisim.set_fault_plan forest.Blocks.Forest.comm (Some plan);
  forest

let test_faults_without_crash_heal () =
  let clean = make_forest () in
  Blocks.Forest.run clean ~steps:4;
  let faulty =
    with_plan
      { (Blocks.Faultplan.chaos ~seed:3 ~crash_step:0 ()) with Blocks.Faultplan.crash = None }
      (make_forest ())
  in
  Blocks.Forest.run faulty ~steps:4;
  let c = faulty.Blocks.Forest.comm in
  Alcotest.(check bool) "faults actually injected" true
    (c.Blocks.Mpisim.dropped + c.Blocks.Mpisim.duplicated + c.Blocks.Mpisim.delayed_count
    > 0);
  Alcotest.(check bool) "drops were healed by retransmission" true
    (c.Blocks.Mpisim.retransmissions > 0);
  Alcotest.(check bool) "healed run is bitwise identical" true
    (forests_bitwise_equal clean faulty)

let test_crash_restart_bitwise () =
  let clean = make_forest () in
  Blocks.Forest.run clean ~steps:6;
  let faulty =
    with_plan (Blocks.Faultplan.chaos ~seed:11 ~crash_step:3 ()) (make_forest ())
  in
  let stats = Resilience.Recovery.run_protected ~every:2 ~steps:6 faulty in
  Alcotest.(check int) "exactly one restart" 1 stats.Resilience.Recovery.restarts;
  Alcotest.(check bool) "steps were replayed" true
    (stats.Resilience.Recovery.replayed_steps >= 1);
  Alcotest.(check bool) "checkpoints taken" true
    (stats.Resilience.Recovery.checkpoints >= 2);
  Alcotest.(check int) "run completed all steps" 6 (Blocks.Forest.step_count faulty);
  Alcotest.(check bool) "recovered run is bitwise identical" true
    (forests_bitwise_equal clean faulty)

(* Adaptive savings count every swept step, replays included: a
   crash-recovered run that froze nothing must report exactly 1. *)
let test_adaptive_crash_savings () =
  let af =
    Blocks.Adaptive.create ~ranks:2 ~bgrid:[| 2; 2 |] ~block_dims:[| 6; 6 |]
      (Lazy.force curvature)
  in
  List.iter Pfcore.Simulation.init_model (Blocks.Adaptive.active_sims af);
  Blocks.Adaptive.prime af;
  Blocks.Mpisim.set_fault_plan af.Blocks.Adaptive.comm
    (Some (Blocks.Faultplan.chaos ~crash_step:1 ()));
  let stats =
    Resilience.Recovery.protect ~every:2 ~steps:3
      ~step_count:(fun () -> Blocks.Adaptive.step_count af)
      ~step:(fun () -> Blocks.Adaptive.step af)
      ~capture:(fun () -> Resilience.Snapshot.capture_adaptive af)
      ~restore:(fun snap -> Resilience.Snapshot.restore_adaptive snap af)
      af.Blocks.Adaptive.comm
  in
  Alcotest.(check bool) "steps were replayed" true
    (stats.Resilience.Recovery.replayed_steps >= 1);
  Alcotest.(check int) "nothing froze" 0 af.Blocks.Adaptive.freezes;
  Alcotest.(check (float 0.)) "savings exactly 1" 1. (Blocks.Adaptive.savings af)

(* A rollback reads only the newest checkpoint, so recovery keeps no
   other: before every step, at most one capture is still reachable. *)
let test_recovery_keeps_newest_checkpoint () =
  let forest = make_forest () in
  let captures = Weak.create 16 and n = ref 0 and most = ref 0 in
  let reachable () =
    Gc.full_major ();
    let live = ref 0 in
    for i = 0 to Weak.length captures - 1 do
      if Weak.check captures i then incr live
    done;
    !live
  in
  let stats =
    Resilience.Recovery.protect ~every:1 ~steps:6
      ~step_count:(fun () -> Blocks.Forest.step_count forest)
      ~step:(fun () ->
        most := max !most (reachable ());
        Blocks.Forest.step forest)
      ~capture:(fun () ->
        let snap = Resilience.Snapshot.capture forest in
        Weak.set captures !n (Some snap);
        incr n;
        snap)
      ~restore:(fun snap -> Resilience.Snapshot.restore snap forest)
      forest.Blocks.Forest.comm
  in
  Alcotest.(check int) "a checkpoint before the run and after every step" 7
    stats.Resilience.Recovery.checkpoints;
  Alcotest.(check int) "at most one checkpoint reachable" 1 !most

let test_forest_snapshot_restore_continues () =
  (* checkpoint at step 2, keep running to 5, roll back, rerun 3 steps:
     the replay must end bitwise a straight 5-step run, every buffer *)
  let forest = make_forest () in
  Blocks.Forest.run forest ~steps:2;
  let snap = Resilience.Snapshot.capture forest in
  Blocks.Forest.run forest ~steps:3;
  Resilience.Snapshot.restore snap forest;
  Alcotest.(check int) "rolled back" 2 (Blocks.Forest.step_count forest);
  Blocks.Forest.run forest ~steps:3;
  let straight = make_forest () in
  Blocks.Forest.run straight ~steps:5;
  Alcotest.(check bool) "replay is bitwise identical" true
    (forests_bitwise_equal straight forest)

(* --------------- timestep hooks ------------------------------------- *)

let test_on_step_hook () =
  let sim = make_single () in
  let seen = ref [] in
  Pfcore.Timestep.run sim ~steps:3
    ~on_step:(fun s -> seen := s.Pfcore.Timestep.step_count :: !seen);
  Alcotest.(check (list int)) "hook fires after every step" [ 1; 2; 3 ]
    (List.rev !seen);
  Pfcore.Timestep.restore sim ~step:7 ~time:0.25;
  Alcotest.(check int) "restore sets step" 7 sim.Pfcore.Timestep.step_count;
  Alcotest.(check (float 0.)) "restore sets time" 0.25 sim.Pfcore.Timestep.time

(* --------------- CRC and encoding ---------------------------------- *)

(* The bytewise CRC-32 loop the slicing-by-8 update replaced, kept as the
   reference. *)
let crc_reference s ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc () =
  Alcotest.(check int) "CRC-32 check value" 0xCBF43926 (Resilience.Crc.digest "123456789");
  let rng = Random.State.make [| 22 |] in
  for len = 0 to 64 do
    for pos = 0 to 7 do
      let s = String.init (pos + len + 3) (fun _ -> Char.chr (Random.State.int rng 256)) in
      Alcotest.(check int)
        (Printf.sprintf "length %d at offset %d" len pos)
        (crc_reference s ~pos ~len)
        (Resilience.Crc.digest ~pos ~len s)
    done
  done

(* Every committed snapshot file decodes and re-encodes: a v3 file byte
   for byte, a v1 or v2 file as the v3 layout, whose own re-encoding is
   then stable. *)
let test_golden_snapshots_reencode () =
  let files =
    List.filter (fun f -> Filename.check_suffix f ".snap") (Array.to_list (Sys.readdir "golden"))
  in
  Alcotest.(check bool) "committed snapshot files found" true (files <> []);
  List.iter
    (fun f ->
      let raw = Golden.read_file (Filename.concat "golden" f) in
      let again = Resilience.Snapshot.encode (Resilience.Snapshot.decode raw) in
      if String.starts_with ~prefix:"PFSNAP3\n" raw then
        Alcotest.(check bool) (f ^ " re-encodes byte for byte") true (String.equal raw again)
      else
        Alcotest.(check bool) (f ^ " re-encodes stably as v3") true
          (String.equal again
             (Resilience.Snapshot.encode (Resilience.Snapshot.decode again))))
    files

(* [encode] sizes the file first and writes it into one buffer: it
   allocates little more than the bytes it returns.  A collection inside
   the measured window can shift [Gc.allocated_bytes] (once in a full
   suite run it read 2.8x), so each of three encodes starts from an empty
   minor heap and the least reading counts. *)
let test_encode_allocation () =
  let g = Lazy.force curvature in
  let forest = Blocks.Forest.create ~grid:[| 4; 4 |] ~block_dims:[| 16; 16 |] g in
  Array.iter Pfcore.Simulation.init_sphere forest.Blocks.Forest.sims;
  let snap = Resilience.Snapshot.capture forest in
  let encode () =
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    let s = Resilience.Snapshot.encode snap in
    ((Gc.allocated_bytes () -. a0) /. float_of_int (String.length s), s)
  in
  let runs = List.init 3 (fun _ -> encode ()) in
  let ratio = List.fold_left (fun m (r, _) -> Float.min m r) infinity runs in
  let s = snd (List.hd runs) in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.3fx the %d bytes returned (<= 1.1x)" ratio (String.length s))
    true (ratio <= 1.1);
  Alcotest.(check bool) "decodes back" true
    (Resilience.Snapshot.equal snap (Resilience.Snapshot.decode s))

(* Decoding reads the payload in place: a snapshot of 256^2 eutectic
   cells as 8x8 blocks of 32^2 (about 2.1 MB of state interiors) decodes
   allocating at most 1.2x its bytes — its float arrays and little else.
   The least of three readings counts, as above. *)
let test_decode_allocation () =
  let forest =
    Blocks.Forest.create ~grid:[| 8; 8 |] ~block_dims:[| 32; 32 |] (Lazy.force eutectic)
  in
  Array.iter Pfcore.Simulation.init_model forest.Blocks.Forest.sims;
  let snap = Resilience.Snapshot.capture forest in
  let s = Resilience.Snapshot.encode snap in
  let decode () =
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    let d = Resilience.Snapshot.decode s in
    ((Gc.allocated_bytes () -. a0) /. float_of_int (String.length s), d)
  in
  let runs = List.init 3 (fun _ -> decode ()) in
  let ratio = List.fold_left (fun m (r, _) -> Float.min m r) infinity runs in
  Alcotest.(check bool)
    (Printf.sprintf "decode allocated %.3fx the %d bytes read (<= 1.2x)" ratio (String.length s))
    true
    (ratio <= 1.2 && String.length s > 2_000_000);
  Alcotest.(check bool) "decodes to the snapshot" true
    (Resilience.Snapshot.equal snap (snd (List.hd runs)))

(* --------------- channel handles and recycled payloads -------------- *)

(* A handle taken before a rollback's [restart] still sends and receives
   after it: the channel is reset in place, its sequence restarts at 0,
   and what was in flight is gone. *)
let test_handle_survives_restart () =
  let module M = Blocks.Mpisim in
  let c = M.create 2 in
  let ch = M.channel c ~src:0 ~dst:1 ~tag:3 in
  M.post c ch [| 1. |];
  Alcotest.(check (option (array (float 0.)))) "before" (Some [| 1. |]) (M.attempt c ch);
  M.post c ch [| 2. |];
  M.restart c;
  Alcotest.(check bool) "in-flight message discarded" true (M.quiescent c);
  Alcotest.(check bool) "the same handle" true (M.channel c ~src:0 ~dst:1 ~tag:3 == ch);
  Alcotest.(check int) "sequence restarts" 0 (M.expected_seq c ~src:0 ~dst:1 ~tag:3);
  M.post c ch [| 3. |];
  Alcotest.(check (array (float 0.))) "after, through the handle" [| 3. |]
    (Blocks.Ghost.receive c ch);
  M.send c ~src:0 ~dst:1 ~tag:3 [| 4. |];
  Alcotest.(check (option (array (float 0.)))) "after, by key" (Some [| 4. |])
    (M.recv_expected c ~src:0 ~dst:1 ~tag:3);
  M.finalize c

(* Under a drop/delay/duplicate plan a JIT forest — slabs packed into
   recycled payloads, received through cached handles, blocking and
   overlapped — stays bitwise the fault-free run. *)
let test_jit_faults_heal () =
  let g = Pfcore.Genkernels.generate (Pfcore.Params.eutectic ()) in
  let run ~overlap plan =
    let f =
      Blocks.Forest.create ~overlap ~num_domains:1 ~backend:Vm.Engine.Jit ~grid:[| 3; 2 |]
        ~block_dims:[| 8; 8 |] g
    in
    Array.iter Pfcore.Simulation.init_model f.Blocks.Forest.sims;
    Blocks.Mpisim.set_fault_plan f.Blocks.Forest.comm plan;
    Blocks.Forest.prime f;
    Blocks.Forest.run f ~steps:(Blocks.Mpisim.log_limit + 4);
    f
  in
  let clean = run ~overlap:false None in
  Test_vm.native_step clean.Blocks.Forest.sims.(0);
  List.iter
    (fun overlap ->
      let plan = Blocks.Faultplan.chaos ~seed:5 ~crash_step:0 () in
      let faulty = run ~overlap (Some { plan with Blocks.Faultplan.crash = None }) in
      let c = faulty.Blocks.Forest.comm in
      Alcotest.(check bool) "every fault kind injected" true
        (c.Blocks.Mpisim.dropped > 0 && c.Blocks.Mpisim.duplicated > 0
       && c.Blocks.Mpisim.delayed_count > 0);
      Alcotest.(check bool)
        (Printf.sprintf "healed JIT run (overlap %b) is bitwise the clean one" overlap)
        true (forests_bitwise_equal clean faulty))
    [ false; true ]

let suite =
  [
    Alcotest.test_case "CRC-32 slicing-by-8 = bytewise reference" `Quick test_crc;
    Alcotest.test_case "committed snapshot files re-encode byte for byte" `Quick
      test_golden_snapshots_reencode;
    Alcotest.test_case "encode allocates about the bytes it returns" `Quick
      test_encode_allocation;
    Alcotest.test_case "decode allocates about the bytes it reads" `Quick
      test_decode_allocation;
    Alcotest.test_case "a channel handle survives a restart" `Quick
      test_handle_survives_restart;
    Alcotest.test_case "JIT forest under drop/delay/duplicate = clean (bitwise)" `Quick
      test_jit_faults_heal;
    Alcotest.test_case "snapshot roundtrip (bitwise)" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot file save/load" `Quick test_snapshot_file_roundtrip;
    Alcotest.test_case "corrupted snapshot rejected" `Quick test_snapshot_corruption_rejected;
    Alcotest.test_case "fingerprint guards restore" `Quick test_snapshot_fingerprint_guard;
    Alcotest.test_case "committed v1 and v2 snapshot files" `Quick test_committed_snapshots;
    Alcotest.test_case "committed v3 snapshot file" `Quick test_committed_v3;
    Alcotest.test_case "snapshot sizes: state interiors only" `Quick test_snapshot_sizes;
    Alcotest.test_case "restore into NaN scratch continues bitwise: every target" `Quick
      test_restore_targets;
    Alcotest.test_case "snapshot shape guards" `Quick test_snapshot_shape_guards;
    Alcotest.test_case "recovery keeps only the newest checkpoint" `Quick
      test_recovery_keeps_newest_checkpoint;
    Alcotest.test_case "fault plan deterministic" `Quick test_faultplan_deterministic;
    Alcotest.test_case "finalize quiescence invariant" `Quick test_finalize_invariant;
    Alcotest.test_case "failure rendering" `Quick test_no_message_rendering;
    Alcotest.test_case "faults heal without crash" `Slow test_faults_without_crash_heal;
    Alcotest.test_case "crash + rollback is bitwise" `Slow test_crash_restart_bitwise;
    Alcotest.test_case "adaptive crash recovery: savings exactly 1" `Quick
      test_adaptive_crash_savings;
    Alcotest.test_case "snapshot restore continues" `Slow test_forest_snapshot_restore_continues;
    Alcotest.test_case "on_step hook and restore" `Quick test_on_step_hook;
    Alcotest.test_case "snapshot topology checked on decode" `Quick
      test_snapshot_topology_rejected;
  ]
