(** Differential oracle pairs.

    Each oracle runs one random sample through two independent
    implementations of the same semantics and compares the results:

    + scalar [Eval.eval] vs. eval after an algebraic pass
      ([Simplify.simplify_term], [expand], [factor_common],
      [freeze_parameters]) or after [Cse];
    + the compiled [Vm.Engine] sweep vs. a direct [Eval]-based interpreter
      over the same block;
    + full vs. split (staggered-precompute) discretization from
      [Fd.Discretize];
    + serial sweep vs. multi-domain sweep (bitwise);
    + single-block run vs. 2×2-rank [Blocks.Mpisim] run with ghost
      exchange, compared on interior cells after K steps (bitwise).

    Floating-point policy: oracles whose two sides evaluate *different
    expression trees* (1 and 3) compare up to a tolerance and skip samples
    whose intermediate values leave [-guard, guard] — reassociation under
    the normalizing smart constructors legitimately perturbs the last bits,
    and IEEE non-finite arithmetic makes algebraic rewrites unsound
    (0 * inf).  Oracles whose two sides evaluate the *same* tree (2, 4, 5)
    compare (near-)bitwise. *)

open Symbolic

(* ------------------------------------------------------------------ *)
(* Comparison policy                                                   *)
(* ------------------------------------------------------------------ *)

let guard = 1e6

(** Tolerant compare, scale-aware: passes when both are NaN, equal, or
    within [tol * max 1 (max |a| |b|)]. *)
let close ?(tol = 1e-6) a b =
  (Float.is_nan a && Float.is_nan b)
  || a = b
  || Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(** True when every subterm of [e] evaluates to a finite value within the
    guard band.  Samples failing this are vacuously accepted: algebraic
    identities are only claimed on the well-scaled domain. *)
let well_scaled env e =
  Expr.fold
    (fun ok node ->
      ok
      &&
      match Eval.eval env node with
      | v -> Float.is_finite v && Float.abs v <= guard
      | exception _ -> false)
    true e

(* ------------------------------------------------------------------ *)
(* Oracle 1: Eval vs. Eval-after-pass                                  *)
(* ------------------------------------------------------------------ *)

(** The reusable law behind oracle 1, parameterized by the transformation —
    the mutation smoke-check reuses it with a deliberately broken pass. *)
let transform_preserves_value transform (e, bindings) =
  let env = Eval.of_alist bindings in
  if not (well_scaled env e) then true
  else
    let e' = transform bindings e in
    if not (well_scaled env e') then true
    else close (Eval.eval env e) (Eval.eval env e')

let expr_transform_cell ?(count = 100) ~name transform =
  QCheck.Test.make_cell ~name ~count Gen.arb_scalar_expr_env
    (transform_preserves_value transform)

let expr_transform_test ?(count = 100) ~name transform =
  QCheck.Test.make ~name ~count Gen.arb_scalar_expr_env
    (transform_preserves_value transform)

let cse_test ~count =
  QCheck.Test.make ~name:"oracle1: eval = eval after global CSE" ~count
    Gen.arb_scalar_expr_env (fun (e, bindings) ->
      let env = Eval.of_alist bindings in
      if not (well_scaled env e) then true
      else
        (* two copies force sharing of the whole tree, exercising the
           binding-threading path of [Eval.eval_bindings] *)
        let { Cse.bindings = bs; exprs } = Cse.run [ e; e ] in
        let reference = Eval.eval env e in
        List.for_all (close reference) (Eval.eval_bindings env bs exprs))

let simplify_tests ~count =
  [
    expr_transform_test ~count ~name:"oracle1: eval = eval after simplify_term"
      (fun _ e -> Simplify.simplify_term e);
    expr_transform_test ~count ~name:"oracle1: eval = eval after expand" (fun _ e ->
        Simplify.expand e);
    expr_transform_test ~count ~name:"oracle1: eval = eval after factor_common"
      (fun _ e -> Simplify.factor_common e);
    expr_transform_test ~count ~name:"oracle1: eval = constant folding of frozen expr"
      Simplify.freeze_parameters;
    cse_test ~count;
  ]

(* ------------------------------------------------------------------ *)
(* Shared block plumbing for oracles 2–4                               *)
(* ------------------------------------------------------------------ *)

let dims2 = [| 6; 5 |]

(* Deterministic pseudo-random fill of every element (ghosts included) so
   out-of-center reads hit initialized data. *)
let fill_buffer (buf : Vm.Buffer.t) ~seed ~slot =
  Array.iteri
    (fun i _ ->
      buf.Vm.Buffer.data.(i) <- 0.5 +. (0.45 *. Philox.symmetric ~cell:i ~step:seed ~slot))
    buf.Vm.Buffer.data

let interior_agree ?(cmp = bits_equal) (a : Vm.Buffer.t) (b : Vm.Buffer.t) =
  let ok = ref true in
  let coords = Array.make 2 0 in
  for y = 0 to a.Vm.Buffer.dims.(1) - 1 do
    for x = 0 to a.Vm.Buffer.dims.(0) - 1 do
      coords.(0) <- x;
      coords.(1) <- y;
      for c = 0 to a.Vm.Buffer.components - 1 do
        if not (cmp (Vm.Buffer.get a ~component:c coords) (Vm.Buffer.get b ~component:c coords))
        then ok := false
      done
    done
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Oracle 2: compiled engine vs. reference interpreter                 *)
(* ------------------------------------------------------------------ *)

let run_engine (s : Gen.kernel_sample) ~num_domains =
  let kernel = Ir.Kernel.make ~name:"fuzz" ~dim:2 s.Gen.body in
  let block = Vm.Engine.make_block ~ghost:2 ~dims:dims2 [ s.Gen.src; s.Gen.dst ] in
  fill_buffer (Vm.Engine.buffer block s.Gen.src) ~seed:s.Gen.seed ~slot:3;
  let bound = Vm.Engine.bind kernel block in
  Vm.Engine.run ~num_domains ~step:s.Gen.seed ~params:s.Gen.params bound;
  block

(* Direct interpretation of the SSA body, one cell at a time, through
   [Eval] — no lowering, no hoisting, no compilation. *)
let run_interp (s : Gen.kernel_sample) =
  let block = Vm.Engine.make_block ~ghost:2 ~dims:dims2 [ s.Gen.src; s.Gen.dst ] in
  fill_buffer (Vm.Engine.buffer block s.Gen.src) ~seed:s.Gen.seed ~slot:3;
  let gd = block.Vm.Engine.global_dims in
  let dx = List.assoc "dx" s.Gen.params in
  let temps : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let coords = Array.make 2 0 in
  let elt (a : Fieldspec.access) =
    let buf = Vm.Engine.buffer block a.Fieldspec.field in
    (buf, Vm.Buffer.base_index buf coords + Vm.Buffer.access_delta buf a)
  in
  let env =
    Eval.env
      ~sym:(fun sy ->
        match Hashtbl.find_opt temps sy with
        | Some v -> v
        | None -> List.assoc sy s.Gen.params)
      ~access:(fun a ->
        let buf, i = elt a in
        buf.Vm.Buffer.data.(i))
      ~coord:(fun d -> (float_of_int coords.(d) +. 0.5) *. dx)
      ~rand:(fun slot ->
        Philox.symmetric ~cell:((coords.(1) * gd.(0)) + coords.(0)) ~step:s.Gen.seed ~slot)
      ()
  in
  for y = 0 to dims2.(1) - 1 do
    for x = 0 to dims2.(0) - 1 do
      coords.(0) <- x;
      coords.(1) <- y;
      Hashtbl.reset temps;
      List.iter
        (fun (a : Field.Assignment.t) ->
          let v = Eval.eval env a.Field.Assignment.rhs in
          match a.Field.Assignment.lhs with
          | Field.Assignment.Temp t -> Hashtbl.replace temps t v
          | Field.Assignment.Store acc ->
            let buf, i = elt acc in
            buf.Vm.Buffer.data.(i) <- v)
        s.Gen.body
    done
  done;
  block

(* Engine and interpreter evaluate the same normalized tree; the only
   rounding difference is the generic-[Pow] strategy (repeated multiply vs.
   [**]), so the tolerance is tight. *)
let engine_close a b =
  (Float.is_nan a && Float.is_nan b) || a = b || close ~tol:1e-9 a b

let engine_vs_interp ~count =
  QCheck.Test.make ~name:"oracle2: Vm.Engine = Eval interpreter" ~count
    (Gen.arb_kernel ())
    (fun s ->
      let vm = run_engine s ~num_domains:1 in
      let ref_ = run_interp s in
      interior_agree ~cmp:engine_close
        (Vm.Engine.buffer vm s.Gen.dst)
        (Vm.Engine.buffer ref_ s.Gen.dst))

(* ------------------------------------------------------------------ *)
(* Oracle 4: serial vs. multi-domain sweep                             *)
(* ------------------------------------------------------------------ *)

(* Domain slicing only partitions the outer loop — every cell runs the
   identical instructions on the same data, so this one is bitwise.  [Rand]
   streams are keyed by global cell index and must not see the slicing. *)
let serial_vs_domains ~count =
  QCheck.Test.make ~name:"oracle4: serial sweep = multi-domain sweep (bitwise)" ~count
    (Gen.arb_kernel ())
    (fun s ->
      let b1 = run_engine s ~num_domains:1 in
      let b3 = run_engine s ~num_domains:3 in
      interior_agree (Vm.Engine.buffer b1 s.Gen.dst) (Vm.Engine.buffer b3 s.Gen.dst))

(* ------------------------------------------------------------------ *)
(* Oracle 3: full vs. split discretization                             *)
(* ------------------------------------------------------------------ *)

let full_vs_split ~count =
  let out_full = Fieldspec.scalar ~dim:2 "out_full" in
  let out_split = Fieldspec.scalar ~dim:2 "out_split" in
  let stag = Fieldspec.create ~kind:Fieldspec.Staggered ~dim:2 ~components:2 "stag" in
  QCheck.Test.make ~name:"oracle3: full = split (staggered) discretization" ~count
    Gen.arb_flux
    (fun s ->
      let scheme = Fd.Discretize.create ~dx:(Expr.sym "dx") ~dim:2 () in
      let full_body =
        [ Field.Assignment.store (Fieldspec.center out_full)
            (Fd.Discretize.discretize scheme s.Gen.rhs) ]
      in
      let registry = Fd.Discretize.make_registry stag in
      let split_rhs = Fd.Discretize.discretize_split scheme ~registry s.Gen.rhs in
      let main_body =
        [ Field.Assignment.store (Fieldspec.center out_split) split_rhs ]
      in
      let stag_body = Fd.Discretize.registry_kernel_body registry in
      let k_full = Ir.Kernel.make ~name:"full" ~dim:2 full_body in
      let k_main = Ir.Kernel.make ~name:"main" ~dim:2 main_body in
      let block =
        Vm.Engine.make_block ~ghost:2 ~dims:dims2
          [ Gen.phi_c; out_full; out_split; stag ]
      in
      let phi_buf = Vm.Engine.buffer block Gen.phi_c in
      fill_buffer phi_buf ~seed:s.Gen.fseed ~slot:7;
      let params = [ ("dx", s.Gen.fdx); ("kappa", s.Gen.kappa) ] in
      let exec k = Vm.Engine.run ~params (Vm.Engine.bind k block) in
      exec k_full;
      (match stag_body with
      | [] -> ()
      | body ->
        exec
          (Ir.Kernel.make ~iteration:(Ir.Kernel.StaggeredSweep [ 0; 1 ]) ~name:"stag"
             ~dim:2 body));
      exec k_main;
      (* different trees on the two sides: tolerance compare, with the
         same well-scaled guard as oracle 1 applied to the stored flux *)
      interior_agree
        ~cmp:(fun a b ->
          (not (Float.is_finite a) && not (Float.is_finite b))
          || Float.abs a > guard || Float.abs b > guard
          || close ~tol:1e-6 a b)
        (Vm.Engine.buffer block out_full)
        (Vm.Engine.buffer block out_split))

(* ------------------------------------------------------------------ *)
(* Oracle 5: single block vs. 2×2 Mpisim forest                        *)
(* ------------------------------------------------------------------ *)

(* The curvature model: 2 phases, no chemical fields — the cheapest model
   that exercises the full Algorithm-1 phase structure. *)
let curvature_gen =
  lazy (Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()))

let global2 = [| 12; 12 |]

let init_model_phi (sim : Pfcore.Timestep.t) ~seed =
  let fields = sim.Pfcore.Timestep.gen.Pfcore.Genkernels.fields in
  let block = sim.Pfcore.Timestep.block in
  let buf = Vm.Engine.buffer block fields.Pfcore.Model.phi_src in
  let off = block.Vm.Engine.offset in
  let gd = block.Vm.Engine.global_dims in
  Vm.Buffer.init buf (fun coords comp ->
      let gx = coords.(0) + off.(0) and gy = coords.(1) + off.(1) in
      let u = Philox.symmetric ~cell:((gy * gd.(0)) + gx) ~step:seed ~slot:5 in
      let v = 0.2 +. (0.3 *. (1. +. u) /. 2.) in
      if comp = 0 then v else 1. -. v)

let single_vs_forest ~count =
  QCheck.Test.make
    ~name:"oracle5: single block = 2x2 Mpisim forest (bitwise, interior)" ~count
    Gen.arb_model
    (fun s ->
      let gen = Lazy.force curvature_gen in
      let variant = if s.Gen.split then Pfcore.Timestep.Split else Pfcore.Timestep.Full in
      let single = Pfcore.Timestep.create ~variant_phi:variant ~dims:global2 gen in
      init_model_phi single ~seed:s.Gen.mseed;
      Pfcore.Timestep.prime single;
      Pfcore.Timestep.run single ~steps:s.Gen.steps;
      let forest =
        Blocks.Forest.create ~variant_phi:variant ~grid:[| 2; 2 |]
          ~block_dims:[| global2.(0) / 2; global2.(1) / 2 |]
          gen
      in
      Array.iter (fun sim -> init_model_phi sim ~seed:s.Gen.mseed) forest.Blocks.Forest.sims;
      Blocks.Forest.prime forest;
      Blocks.Forest.run forest ~steps:s.Gen.steps;
      let phi = gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_src in
      let sbuf = Vm.Engine.buffer single.Pfcore.Timestep.block phi in
      let ok = ref true in
      for gy = 0 to global2.(1) - 1 do
        for gx = 0 to global2.(0) - 1 do
          for c = 0 to phi.Fieldspec.components - 1 do
            let a = Vm.Buffer.get sbuf ~component:c [| gx; gy |] in
            let b = Blocks.Forest.get forest phi ~component:c [| gx; gy |] in
            if not (bits_equal a b) then ok := false
          done
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Oracle 6: resilience — snapshots and crash-restart                  *)
(* ------------------------------------------------------------------ *)

(** Set every buffer of a block to NaN: destinations, staggered scratch,
    src ghosts and interiors alike.  A restore writes the src interiors
    and re-primes their ghosts, and a step writes every other value before
    it reads it, so a target poisoned before its restore must still
    continue bitwise. *)
let poison (sim : Pfcore.Timestep.t) =
  List.iter
    (fun (_, buf) -> Vm.Buffer.fill buf Float.nan)
    sim.Pfcore.Timestep.block.Vm.Engine.buffers

let poison_forest (f : Blocks.Forest.t) = Array.iter poison f.Blocks.Forest.sims
let poison_adaptive af = List.iter poison (Blocks.Adaptive.active_sims af)

(** Two runs' blocks, paired in order, hold the same bits in every padded
    buffer: ghosts, destinations and staggered scratch included.  This
    holds for runs that differ only in how they got there (faults healed,
    a rollback into the run's own storage): a step rewrites what it reads.
    With [~scratch:false] only the state fields and their destinations
    count, ghosts included — for a run restored or resumed into other
    storage and stepped since, whose scratch no step writes (the outer
    ghosts of a staggered field) keeps that storage's NaN or zeros, while
    a destination holds the previous state with its primed ghosts. *)
let buffers_bitwise_equal ?(scratch = true) (a : Pfcore.Timestep.t list)
    (b : Pfcore.Timestep.t list) =
  let same (x : Pfcore.Timestep.t) (y : Pfcore.Timestep.t) =
    let fields =
      if scratch then List.map fst x.Pfcore.Timestep.block.Vm.Engine.buffers
      else
        let g = x.Pfcore.Timestep.gen in
        let f = g.Pfcore.Genkernels.fields in
        if Pfcore.Params.n_mu g.Pfcore.Genkernels.params > 0 then
          [ f.Pfcore.Model.phi_src; f.phi_dst; f.mu_src; f.mu_dst ]
        else [ f.Pfcore.Model.phi_src; f.phi_dst ]
    in
    List.for_all
      (fun f ->
        let dx = (Vm.Engine.buffer x.Pfcore.Timestep.block f).Vm.Buffer.data in
        let dy = (Vm.Engine.buffer y.Pfcore.Timestep.block f).Vm.Buffer.data in
        Array.length dx = Array.length dy
        &&
        let ok = ref true in
        Array.iteri (fun i v -> if not (bits_equal v dy.(i)) then ok := false) dx;
        !ok)
      fields
  in
  List.compare_lengths a b = 0 && List.for_all2 same a b

let forest_sims (f : Blocks.Forest.t) = Array.to_list f.Blocks.Forest.sims

(* Capture [orig] through the file format and restore it into [target],
   poisoned first: the target holds the capture, and after both run
   [steps] more, their captures and their state and destination buffers,
   ghosts included, are equal. *)
let roundtrip_continues ~run ~capture ~restore ~sims ~poison orig target ~steps =
  let snap = capture orig in
  let decoded = Resilience.Snapshot.decode (Resilience.Snapshot.encode snap) in
  Resilience.Snapshot.equal snap decoded
  && begin
    poison target;
    restore decoded target;
    Resilience.Snapshot.equal snap (capture target)
  end
  && begin
    run orig ~steps;
    run target ~steps;
    Resilience.Snapshot.equal (capture orig) (capture target)
    && buffers_bitwise_equal ~scratch:false (sims orig) (sims target)
  end

let make_forest ?(split = false) ~seed () =
  let gen = Lazy.force curvature_gen in
  let variant = if split then Pfcore.Timestep.Split else Pfcore.Timestep.Full in
  let forest =
    Blocks.Forest.create ~variant_phi:variant ~grid:[| 2; 2 |]
      ~block_dims:[| global2.(0) / 2; global2.(1) / 2 |]
      gen
  in
  Array.iter (fun sim -> init_model_phi sim ~seed) forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  forest

(* P1 and P2, the paper's two models: oracles 6, 7, 8 and 10 share their
   kernels. *)
let gen_p1_pool = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p1 ()))
let gen_p2_pool = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p2 ()))

(* Smooth Philox-keyed initial conditions over *global* cell indices, so
   every run of the same global domain starts bitwise identically
   regardless of the rank decomposition. *)
let init_overlap_fields (sim : Pfcore.Timestep.t) ~seed =
  let gen = sim.Pfcore.Timestep.gen in
  let block = sim.Pfcore.Timestep.block in
  let fields = gen.Pfcore.Genkernels.fields in
  let n = float_of_int gen.Pfcore.Genkernels.params.Pfcore.Params.n_phases in
  let init (f : Fieldspec.t) ~slot ~base ~amp =
    let buf = Vm.Engine.buffer block f in
    let off = block.Vm.Engine.offset in
    let gd = block.Vm.Engine.global_dims in
    Vm.Buffer.init buf (fun coords comp ->
        let cell = ref 0 in
        for d = Array.length gd - 1 downto 0 do
          cell := (!cell * gd.(d)) + coords.(d) + off.(d)
        done;
        base +. (amp *. Philox.symmetric ~cell:!cell ~step:seed ~slot:(slot + comp)))
  in
  init fields.Pfcore.Model.phi_src ~slot:3 ~base:(1. /. n) ~amp:0.01;
  if Pfcore.Params.n_mu gen.Pfcore.Genkernels.params > 0 then
    init fields.Pfcore.Model.mu_src ~slot:23 ~base:0.1 ~amp:0.01

(* The sample's single block, interpreted, initialized from [seed]. *)
let make_single (s : Gen.model_sample) ~seed =
  let gen, dims =
    match s.Gen.block with
    | Gen.Curvature_block -> (Lazy.force curvature_gen, global2)
    | Gen.P1_block -> (Lazy.force gen_p1_pool, [| 6; 6; 6 |])
    | Gen.P2_block -> (Lazy.force gen_p2_pool, [| 6; 6; 6 |])
  in
  let variant = if s.Gen.split then Pfcore.Timestep.Split else Pfcore.Timestep.Full in
  let sim =
    Pfcore.Timestep.create ~variant_phi:variant ~variant_mu:variant ~num_domains:1
      ~backend:Vm.Engine.Interp ~dims gen
  in
  init_overlap_fields sim ~seed;
  Pfcore.Timestep.prime sim;
  sim

(** One sample of {!snapshot_roundtrip}: the curvature forest and the
    sample's single block each roundtrip into a poisoned target and
    continue bitwise. *)
let snapshot_case (s : Gen.model_sample) =
  let forest = make_forest ~split:s.Gen.split ~seed:s.Gen.mseed () in
  Blocks.Forest.run forest ~steps:s.Gen.steps;
  let sim = make_single s ~seed:s.Gen.mseed in
  Pfcore.Timestep.run sim ~steps:s.Gen.steps;
  roundtrip_continues
    ~run:(fun f ~steps -> Blocks.Forest.run f ~steps)
    ~capture:Resilience.Snapshot.capture ~restore:Resilience.Snapshot.restore
    ~sims:forest_sims ~poison:poison_forest forest
    (make_forest ~split:s.Gen.split ~seed:(s.Gen.mseed + 1) ())
    ~steps:s.Gen.steps
  && roundtrip_continues
       ~run:(fun sim ~steps -> Pfcore.Timestep.run sim ~steps)
       ~capture:Resilience.Snapshot.capture_single
       ~restore:Resilience.Snapshot.restore_single
       ~sims:(fun sim -> [ sim ])
       ~poison sim
       (make_single s ~seed:(s.Gen.mseed + 1))
       ~steps:s.Gen.steps

(* Snapshot → encode → decode → restore is the identity on the stored
   state (the src interiors), restoring into a target whose every buffer
   is NaN; the restored target then continues bitwise with the original,
   which a restore that left a src ghost unprimed, or a step that read
   scratch before writing it, would break.  A 2x2 curvature forest (full
   or split), and one block: curvature, P1 or P2 (whose Philox draws key
   on the restored step), full or split. *)
let snapshot_roundtrip ~count =
  QCheck.Test.make ~name:"oracle6: snapshot encode/decode/restore = identity (bitwise)"
    ~count Gen.arb_model snapshot_case

(* Any single flipped byte in the encoded stream must be rejected by the
   CRC (or the structural validation), never silently accepted. *)
let snapshot_corruption ~count =
  QCheck.Test.make ~name:"oracle6: corrupted snapshot is rejected by checksum" ~count
    Gen.arb_model
    (fun s ->
      let forest = make_forest ~seed:s.Gen.mseed () in
      let encoded = Resilience.Snapshot.encode (Resilience.Snapshot.capture forest) in
      let pos = s.Gen.mseed mod String.length encoded in
      let b = Bytes.of_string encoded in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      match Resilience.Snapshot.decode (Bytes.to_string b) with
      | _ -> false
      | exception Resilience.Snapshot.Invalid _ -> true)

(* The crowning oracle: run K steps, crash a rank, roll back to the last
   checkpoint, replay to 2K — the result must be bitwise identical to an
   undisturbed 2K-step run, for arbitrary drop/delay/duplicate schedules.
   Every rollback restores into a forest poisoned first, and its priming
   messages run through the same fault plan. *)
let crash_restart_bitwise ~count =
  QCheck.Test.make
    ~name:"oracle6: crash + rollback + replay = undisturbed run (bitwise)" ~count
    Gen.arb_resilience
    (fun s ->
      let clean = make_forest ~seed:s.Gen.rseed () in
      Blocks.Forest.run clean ~steps:s.Gen.rsteps;
      let faulty = make_forest ~seed:s.Gen.rseed () in
      let plan =
        {
          Blocks.Faultplan.seed = s.Gen.plan_seed;
          drop = s.Gen.drop;
          delay = s.Gen.delay;
          duplicate = s.Gen.duplicate;
          max_delay = 3;
          crash = Some (s.Gen.crash_rank, s.Gen.crash_step);
        }
      in
      Blocks.Mpisim.set_fault_plan faulty.Blocks.Forest.comm (Some plan);
      let stats =
        Resilience.Recovery.protect ~every:s.Gen.ckpt_every ~steps:s.Gen.rsteps
          ~step_count:(fun () -> Blocks.Forest.step_count faulty)
          ~step:(fun () -> Blocks.Forest.step faulty)
          ~capture:(fun () -> Resilience.Snapshot.capture faulty)
          ~restore:(fun snap ->
            poison_forest faulty;
            Resilience.Snapshot.restore snap faulty)
          faulty.Blocks.Forest.comm
      in
      stats.Resilience.Recovery.restarts >= 1
      && Resilience.Snapshot.equal (Resilience.Snapshot.capture clean)
           (Resilience.Snapshot.capture faulty)
      && buffers_bitwise_equal ~scratch:false (forest_sims clean) (forest_sims faulty))

(* ------------------------------------------------------------------ *)
(* Oracle 7: pooled tiled execution vs. serial (bitwise)               *)
(* ------------------------------------------------------------------ *)

(* One sweep of one generated kernel family (all 8 P1/P2 variants are
   reachable through the φ then μ tuning candidates) over the probe block,
   with the given pool width and tile shape. *)
let pooled_run ?(backend = Vm.Engine.Interp) (s : Gen.pool_sample) ~num_domains ~tile =
  let g = Lazy.force (if s.Gen.pl_p2 then gen_p2_pool else gen_p1_pool) in
  let dims = Array.make g.Pfcore.Genkernels.params.Pfcore.Params.dim s.Gen.pl_n in
  let block = Pfcore.Timestep.probe_block g ~dims in
  let params = Pfcore.Timestep.probe_params g in
  let _, kernels =
    List.nth
      (Pfcore.Timestep.phi_candidates g @ Option.get (Pfcore.Timestep.mu_candidates g))
      s.Gen.pl_variant
  in
  List.iter
    (fun k ->
      Vm.Engine.run ~num_domains ?tile ~step:1 ~backend ~params (Vm.Engine.bind k block))
    kernels;
  block

(* The determinism battery's core claim: any tile decomposition executed on
   any number of pool lanes writes bitwise exactly what the serial
   single-tile sweep writes — over random grids, tile shapes (including
   degenerate ones larger than the sweep) and PFGEN_DOMAINS in {1,2,4}. *)
let pooled_vs_serial ~count =
  QCheck.Test.make ~name:"oracle7: pooled tiled sweep = serial sweep (bitwise)" ~count
    Gen.arb_pool
    (fun s ->
      let serial = pooled_run s ~num_domains:1 ~tile:None in
      let pooled = pooled_run s ~num_domains:s.Gen.pl_domains ~tile:(Some s.Gen.pl_tile) in
      List.for_all2
        (fun (_, (a : Vm.Buffer.t)) (_, (b : Vm.Buffer.t)) ->
          let ok = ref true in
          Array.iteri
            (fun i x -> if not (bits_equal x b.Vm.Buffer.data.(i)) then ok := false)
            a.Vm.Buffer.data;
          !ok)
        serial.Vm.Engine.buffers pooled.Vm.Engine.buffers)

(* The JIT backend is guilty until proven bitwise-identical: over the same
   random model/grid/tile/domain space as oracle 7 (all 8 P1/P2 kernel
   variants, QCheck-shrunk on failure), a compiled pooled sweep must write
   exactly what the interpreter's serial sweep writes — the interpreter
   stays the reference implementation. *)
let jit_vs_interp ~count =
  QCheck.Test.make ~name:"oracle8: jit backend = interpreter (bitwise)" ~count
    Gen.arb_pool
    (fun s ->
      let reference = pooled_run ~backend:Vm.Engine.Interp s ~num_domains:1 ~tile:None in
      let jitted =
        pooled_run ~backend:Vm.Engine.Jit s ~num_domains:s.Gen.pl_domains
          ~tile:(Some s.Gen.pl_tile)
      in
      List.for_all2
        (fun (_, (a : Vm.Buffer.t)) (_, (b : Vm.Buffer.t)) ->
          let ok = ref true in
          Array.iteri
            (fun i x -> if not (bits_equal x b.Vm.Buffer.data.(i)) then ok := false)
            a.Vm.Buffer.data;
          !ok)
        reference.Vm.Engine.buffers jitted.Vm.Engine.buffers)

(* ------------------------------------------------------------------ *)
(* Oracle 8, fuzz leg: the fast tier on random kernels (bitwise)       *)
(* ------------------------------------------------------------------ *)

(* Kernels the grammar's normalizing constructors cannot produce, built
   from raw nodes: a sum of four terms whose first is -0.0 (the
   interpreter's fold turns it into +0.0), and the integer powers beyond
   the grammar's -2..3, each vectorized and scalar. *)
let fixed_fast_tier_kernels (s : Gen.kernel_sample) =
  let acc ox oy = Expr.Access (Fieldspec.access s.Gen.src [| ox; oy |]) in
  let z x = Expr.Mul [ Expr.Sym "z"; x ] in
  let kernel name body =
    Ir.Kernel.make ~name ~dim:2
      (List.init s.Gen.dst.Fieldspec.components (fun c ->
           Field.Assignment.store (Fieldspec.center ~component:c s.Gen.dst) body))
  in
  [
    kernel "negzero_sum" (Expr.Add [ z (acc 0 0); z (acc 1 0); z (acc (-1) 0); z (acc 0 1) ]);
    kernel "powers"
      (Expr.Add
         [
           Expr.Pow (acc 0 0, 4);
           Expr.Pow (acc 1 0, 5);
           Expr.Pow (acc 0 1, -3);
           Expr.Pow (acc (-1) 0, -5);
           Expr.Pow (Expr.Coord 0, 7);
         ]);
  ]

(* NaN-holed, as oracle 11's cell function: about one value in six is
   OCaml's [nan], whose bits differ from the NaN an invalid operation
   makes — stores canonicalize both. *)
let fill_nan_holed (buf : Vm.Buffer.t) ~seed =
  Array.iteri
    (fun i _ ->
      let u = Philox.symmetric ~cell:i ~step:seed ~slot:5 in
      buf.Vm.Buffer.data.(i) <-
        (if u > 0.66 then Float.nan
         else 0.5 +. (0.45 *. Philox.symmetric ~cell:i ~step:seed ~slot:3)))
    buf.Vm.Buffer.data

(* Every target the host can run: scalar C, then each vector ISA. *)
let fast_tier_targets () = None :: List.map Option.some (Lazy.force Vm.Jit_cc.supported)

(* The claim behind the fast tier: for every random kernel of oracle 2's
   grammar (every function, Select, fmin/fmax, powers of both signs,
   coordinates, Philox), printed for every target the host supports and
   run on every innermost extent from 1 to 2w+1 (so every masked
   remainder runs) over NaN-holed inputs at a nonzero global offset, the
   compiled program writes exactly the interpreter's bits, the interpreter
   running the VM variant of the same target (AVX-512, AVX2 or baseline).
   All programs of a sample are built by one [Jit.prepare] call, one
   fan-out of compiler runs. *)
let fast_tier_vs_interp ~count =
  QCheck.Test.make ~name:"oracle8 fuzz: fast tier = interpreter on random kernels (bitwise)"
    ~count (Gen.arb_kernel_batch ~size:10)
    (fun batch ->
      let targets = fast_tier_targets () in
      let widest =
        List.fold_left (fun w t -> max w (Option.fold ~none:1 ~some:Backend.Simd.width t)) 1 targets
      in
      let cases =
        List.concat_map
          (fun (s : Gen.kernel_sample) ->
            let params = ("z", -0.) :: s.Gen.params in
            List.map
              (fun k -> (s, params, k))
              (Ir.Kernel.make ~name:"fuzz" ~dim:2 s.Gen.body :: fixed_fast_tier_kernels s))
          batch
      in
      let block (s : Gen.kernel_sample) n =
        let b =
          Vm.Engine.make_block ~ghost:2 ~dims:[| n; 3 |] ~offset:[| 5; 7 |]
            ~global_dims:[| n + 9; 12 |] [ s.Gen.src; s.Gen.dst ]
        in
        fill_nan_holed (Vm.Engine.buffer b s.Gen.src) ~seed:s.Gen.seed;
        b
      in
      let runs =
        List.concat_map
          (fun (s, params, k) ->
            List.concat_map
              (fun target ->
                List.init (2 * widest + 1) (fun i ->
                    let n = i + 1 in
                    let jb = block s n in
                    (s, params, k, n, Vm.Engine.bind ~jit_target:target k jb)))
              targets)
          cases
      in
      Vm.Engine.jit_prepare (List.map (fun (_, _, _, _, b) -> b) runs);
      List.for_all
        (fun ((s : Gen.kernel_sample), params, k, n, (jit : Vm.Engine.bound)) ->
          let ib = block s n in
          Vm.Engine.run_plain ~backend:Vm.Engine.Interp ~step:s.Gen.seed ~params
            (Vm.Engine.bind ~jit_target:jit.Vm.Engine.jit_target k ib);
          Vm.Engine.run_plain ~backend:Vm.Engine.Jit ~step:s.Gen.seed ~params jit;
          let a = (Vm.Engine.buffer ib s.Gen.dst).Vm.Buffer.data in
          let b = (Vm.Engine.buffer jit.Vm.Engine.block s.Gen.dst).Vm.Buffer.data in
          let ok = ref true in
          Array.iteri (fun i x -> if not (bits_equal x b.(i)) then ok := false) a;
          if not !ok then
            QCheck.Test.fail_reportf "kernel %s, target %s, extent %d: differs from the interpreter"
              k.Ir.Kernel.name
              (Vm.Jit.target_label jit.Vm.Engine.jit_target)
              n;
          !ok)
        runs)

(* ------------------------------------------------------------------ *)
(* Oracle 9: farm-scheduled execution vs. solo (bitwise)               *)
(* ------------------------------------------------------------------ *)

(* The farm scheduler multiplexes jobs over the shared pool with pooled
   (recycled) buffers, arbitrary quantum slicing, snapshot preemption and
   injected rank crashes — and none of it may be observable in the
   results: every job's final state must equal the same spec run solo,
   serially, through the interpreter, and so must its blocks' state and
   destination buffers, ghosts included, when it finishes.  The workload
   keeps to the cheap 2D families (curvature plus the mu-less zoo
   models); the full mix including eutectic and the 3D families is
   exercised by `pfgen serve --soak`. *)
let farm_vs_solo ~count =
  QCheck.Test.make ~name:"oracle9: farm-scheduled job = solo run (bitwise)" ~count
    Gen.arb_farm
    (fun s ->
      let specs =
        Serve.Workload.generate
          ~families:
            [ Serve.Workload.Curv2d; Serve.Workload.Pfc; Serve.Workload.GrayScott ]
          ~with_crash:s.Gen.fm_crash ~seed:s.Gen.fm_seed ~jobs:s.Gen.fm_jobs ()
      in
      let config =
        {
          (Serve.Scheduler.default_config ()) with
          Serve.Scheduler.quantum = s.Gen.fm_quantum;
          max_active = s.Gen.fm_active;
          park_after = s.Gen.fm_park;
        }
      in
      let mempool = Serve.Mempool.create () in
      let blocks_agree = ref true in
      let on_finish spec sims =
        let solo = Serve.Scheduler.exec_sims (Serve.Scheduler.solo_exec spec) in
        if not (buffers_bitwise_equal ~scratch:false sims solo) then blocks_agree := false
      in
      let stats = Serve.Scheduler.run ~config ~on_finish ~mempool specs in
      !blocks_agree
      && stats.Serve.Scheduler.rejected = []
      && List.length stats.Serve.Scheduler.results = List.length specs
      && List.for_all
           (fun (r : Serve.Scheduler.job_result) ->
             Resilience.Snapshot.equal r.Serve.Scheduler.final
               (Serve.Scheduler.run_solo r.Serve.Scheduler.r_spec))
           stats.Serve.Scheduler.results)

(* ------------------------------------------------------------------ *)
(* Oracle 10: overlapped exchange = sequential exchange (bitwise)      *)
(* ------------------------------------------------------------------ *)

let make_overlap_forest ~overlap ~backend ~num_domains ~tile (s : Gen.overlap_sample) =
  let gen = Lazy.force (if s.Gen.ov_p2 then gen_p2_pool else gen_p1_pool) in
  let variant = if s.Gen.ov_split then Pfcore.Timestep.Split else Pfcore.Timestep.Full in
  let block_dims =
    Array.make gen.Pfcore.Genkernels.params.Pfcore.Params.dim s.Gen.ov_n
  in
  let forest =
    Blocks.Forest.create ~variant_phi:variant ~variant_mu:variant ~num_domains ?tile
      ~backend ~overlap ~grid:s.Gen.ov_grid ~block_dims gen
  in
  Array.iter
    (fun sim -> init_overlap_fields sim ~seed:s.Gen.ov_seed)
    forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  forest

(* The tentpole claim (paper §7): hiding the φ_dst exchange behind the μ
   interior sweep — the IR-derived inner/outer kernel split — is purely a
   scheduling transformation.  Over random P1/P2 models, variants, grids,
   tiles, pool widths and backends, and under arbitrary drop / delay /
   duplicate / rank-crash fault plans (healed in place or rolled back by
   the recovery driver), the overlapped forest must end bitwise identical
   to the sequential-exchange, serial, interpreted reference. *)
let overlapped_vs_sequential ~count =
  QCheck.Test.make
    ~name:"oracle10: overlapped exchange = sequential exchange (bitwise)" ~count
    Gen.arb_overlap
    (fun s ->
      let reference =
        make_overlap_forest ~overlap:false ~backend:Vm.Engine.Interp ~num_domains:1
          ~tile:None s
      in
      Blocks.Forest.run reference ~steps:s.Gen.ov_steps;
      let overlapped =
        make_overlap_forest ~overlap:true
          ~backend:(if s.Gen.ov_jit then Vm.Engine.Jit else Vm.Engine.Interp)
          ~num_domains:s.Gen.ov_domains ~tile:(Some s.Gen.ov_tile) s
      in
      let has_faults = s.Gen.ov_drop > 0. || s.Gen.ov_delay > 0. || s.Gen.ov_dup > 0. in
      if has_faults || s.Gen.ov_crash then
        Blocks.Mpisim.set_fault_plan overlapped.Blocks.Forest.comm
          (Some
             {
               Blocks.Faultplan.seed = s.Gen.ov_plan_seed;
               drop = s.Gen.ov_drop;
               delay = s.Gen.ov_delay;
               duplicate = s.Gen.ov_dup;
               max_delay = 3;
               crash =
                 (if s.Gen.ov_crash then Some (s.Gen.ov_crash_rank, s.Gen.ov_crash_step)
                  else None);
             });
      if s.Gen.ov_crash then
        ignore
          (Resilience.Recovery.run_protected ~every:s.Gen.ov_ckpt_every
             ~steps:s.Gen.ov_steps overlapped)
      else Blocks.Forest.run overlapped ~steps:s.Gen.ov_steps;
      let gen = Lazy.force (if s.Gen.ov_p2 then gen_p2_pool else gen_p1_pool) in
      let fields = gen.Pfcore.Genkernels.fields in
      let gd = reference.Blocks.Forest.global_dims in
      let check (f : Fieldspec.t) =
        let ok = ref true in
        for gz = 0 to gd.(2) - 1 do
          for gy = 0 to gd.(1) - 1 do
            for gx = 0 to gd.(0) - 1 do
              for c = 0 to f.Fieldspec.components - 1 do
                let a = Blocks.Forest.get reference f ~component:c [| gx; gy; gz |] in
                let b = Blocks.Forest.get overlapped f ~component:c [| gx; gy; gz |] in
                if not (bits_equal a b) then ok := false
              done
            done
          done
        done;
        !ok
      in
      check fields.Pfcore.Model.phi_src && check fields.Pfcore.Model.mu_src)

(* ------------------------------------------------------------------ *)
(* Oracle 11: exact reductions vs. serial single-tile reference        *)
(* ------------------------------------------------------------------ *)

let reduce_op = function 0 -> Vm.Reduce.Sum | 1 -> Vm.Reduce.Min | _ -> Vm.Reduce.Max

(* The custom cell function reads *global* coordinates only, so every
   executor sees the same per-cell value; the Philox-keyed NaN holes
   exercise the NaN-skipping min/max across partial boundaries. *)
let reduce_cellfn ~seed = function
  | 0 -> Vm.Reduce.Component 0
  | 1 -> Vm.Reduce.Component 1
  | 2 -> Vm.Reduce.Interface
  | _ ->
    Vm.Reduce.Custom
      (fun g ->
        let cell = g.(0) + (global2.(0) * g.(1)) in
        let u = Philox.symmetric ~cell ~step:seed ~slot:11 in
        if u > 0.6 then Float.nan else u)

(* The cell values a reduction of [cellfn] over a block holding the whole
   domain adds, in storage order (axis 0 fastest). *)
let cell_values (block : Vm.Engine.block) field cellfn =
  let buf = Vm.Engine.buffer block field and dims = block.Vm.Engine.dims in
  Array.init (Vm.Reduce.total_cells dims) (fun i ->
      let rem = ref i in
      let c =
        Array.map
          (fun n ->
            let x = !rem mod n in
            rem := !rem / n;
            x)
          dims
      in
      match cellfn with
      | Vm.Reduce.Component k -> Vm.Buffer.get buf ~component:k c
      | Vm.Reduce.Interface ->
        let hit = ref false in
        for k = 0 to buf.Vm.Buffer.components - 1 do
          if Vm.Reduce.in_band (Vm.Buffer.get buf ~component:k c) then hit := true
        done;
        if !hit then 1. else 0.
      | Vm.Reduce.Custom f -> f c)

(* The serial reference of a sum is the correctly rounded sum of its cell
   values, as the independent expansion sum computes it. *)
let exact_reference reference (block : Vm.Engine.block) field cellfn op =
  op <> Vm.Reduce.Sum || bits_equal reference (Fsum.sum (cell_values block field cellfn))

(* The central claim for reductions: a reduction is a function of the
   field values alone.  The serial single-tile interpreted reference, a
   sum equal to the independent exact sum of the same cells, must be
   reproduced bitwise by (a) a pooled, tiled sweep of the same block, and (b) a decomposed forest merging per-rank partials
   over the fixed rank tree — with drop/delay/duplicate fault plans
   healing invisibly on the reduction channels. *)
let reduce_vs_serial ~count =
  QCheck.Test.make
    ~name:"oracle11: pooled/tiled/forest reduction = serial reference (bitwise)" ~count
    Gen.arb_reduce
    (fun s ->
      let op = reduce_op s.Gen.rd_op in
      let cellfn = reduce_cellfn ~seed:s.Gen.rd_seed s.Gen.rd_cell in
      let gen = Lazy.force curvature_gen in
      let phi = gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_src in
      let single = Pfcore.Timestep.create ~dims:global2 gen in
      init_model_phi single ~seed:s.Gen.rd_seed;
      Pfcore.Timestep.prime single;
      Pfcore.Timestep.run single ~steps:s.Gen.rd_steps;
      let reference =
        Vm.Reduce.scalar ~num_domains:1
          single.Pfcore.Timestep.block phi cellfn op
      in
      let backend = if s.Gen.rd_jit then Vm.Engine.Jit else Vm.Engine.Interp in
      let pooled =
        Vm.Reduce.scalar ~num_domains:s.Gen.rd_domains ~tile:s.Gen.rd_tile
          single.Pfcore.Timestep.block phi cellfn op
      in
      let forest =
        Blocks.Forest.create ~num_domains:s.Gen.rd_domains ~tile:s.Gen.rd_tile ~backend
          ~grid:s.Gen.rd_grid
          ~block_dims:
            [| global2.(0) / s.Gen.rd_grid.(0); global2.(1) / s.Gen.rd_grid.(1) |]
          gen
      in
      Array.iter
        (fun sim -> init_model_phi sim ~seed:s.Gen.rd_seed)
        forest.Blocks.Forest.sims;
      Blocks.Forest.prime forest;
      if s.Gen.rd_drop > 0. || s.Gen.rd_delay > 0. || s.Gen.rd_dup > 0. then
        Blocks.Mpisim.set_fault_plan forest.Blocks.Forest.comm
          (Some
             {
               Blocks.Faultplan.seed = s.Gen.rd_plan_seed;
               drop = s.Gen.rd_drop;
               delay = s.Gen.rd_delay;
               duplicate = s.Gen.rd_dup;
               max_delay = 3;
               crash = None;
             });
      Blocks.Forest.run forest ~steps:s.Gen.rd_steps;
      let dist =
        Blocks.Reduce.forest_scalar ~num_domains:s.Gen.rd_domains
          ~tile:s.Gen.rd_tile forest phi cellfn op
      in
      exact_reference reference single.Pfcore.Timestep.block phi cellfn op
      && bits_equal reference pooled && bits_equal reference dist)

(* ------------------------------------------------------------------ *)
(* Oracle 5 extension: adaptive forest vs. uniform fine grid           *)
(* ------------------------------------------------------------------ *)

let adaptive_global (s : Gen.adaptive_sample) =
  [| 6 * s.Gen.ad_bgrid.(0); 6 * s.Gen.ad_bgrid.(1) |]

(* A sharp 0/1 disc confined to block (0,0): bulk blocks hold exact
   constants, so a correct adaptive forest will actually freeze some of
   them — the oracle is vacuous otherwise.  Global coordinates keep the
   initial condition identical across decompositions. *)
let init_sharp_phi (sim : Pfcore.Timestep.t) ~seed =
  let fields = sim.Pfcore.Timestep.gen.Pfcore.Genkernels.fields in
  let block = sim.Pfcore.Timestep.block in
  let buf = Vm.Engine.buffer block fields.Pfcore.Model.phi_src in
  let off = block.Vm.Engine.offset in
  let radius = 2. +. (0.4 *. float_of_int (seed mod 3)) in
  Vm.Buffer.init buf (fun coords comp ->
      let x = float_of_int (coords.(0) + off.(0)) +. 0.5 -. 3. in
      let y = float_of_int (coords.(1) + off.(1)) +. 0.5 -. 3. in
      let v = if (x *. x) +. (y *. y) < radius *. radius then 1. else 0. in
      if comp = 0 then v else 1. -. v)

let make_adaptive (s : Gen.adaptive_sample) =
  let gen = Lazy.force curvature_gen in
  let af =
    Blocks.Adaptive.create
      ~mode:(if s.Gen.ad_static then Blocks.Adaptive.Static else Blocks.Adaptive.Adapt)
      ~adapt_every:s.Gen.ad_adapt_every ~ranks:s.Gen.ad_ranks
      ~num_domains:s.Gen.ad_domains ~tile:s.Gen.ad_tile
      ?backend:(if s.Gen.ad_jit then Some Vm.Engine.Jit else None)
      ~bgrid:s.Gen.ad_bgrid ~block_dims:[| 6; 6 |] gen
  in
  List.iter
    (fun sim -> init_sharp_phi sim ~seed:s.Gen.ad_seed)
    (Blocks.Adaptive.active_sims af);
  af

let adaptive_fault_plan ?crash (s : Gen.adaptive_sample) =
  if s.Gen.ad_drop > 0. || s.Gen.ad_delay > 0. || s.Gen.ad_dup > 0. || crash <> None
  then
    Some
      {
        Blocks.Faultplan.seed = s.Gen.ad_plan_seed;
        drop = s.Gen.ad_drop;
        delay = s.Gen.ad_delay;
        duplicate = s.Gen.ad_dup;
        max_delay = 3;
        crash;
      }
  else None

(* Freezing bulk blocks to constants, refining around the interface,
   Morton rebalancing and servicing frozen exchanges with constant slabs
   are all semantics-free: the adaptive forest (Static or Adapt mode, any
   rank count / pool width / tile / backend, under healing fault plans)
   must reproduce the uniform fine-grid run cell for cell — and its
   reduction, frozen blocks' constants included, must be bitwise the
   uniform block's. *)
let adaptive_vs_uniform ~count =
  QCheck.Test.make
    ~name:"oracle5: adaptive forest = uniform fine grid (bitwise)" ~count
    Gen.arb_adaptive
    (fun s ->
      let s = { s with Gen.ad_crash = false } in
      let gen = Lazy.force curvature_gen in
      let gd = adaptive_global s in
      let phi = gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_src in
      let uniform = Pfcore.Timestep.create ~dims:gd gen in
      init_sharp_phi uniform ~seed:s.Gen.ad_seed;
      Pfcore.Timestep.prime uniform;
      Pfcore.Timestep.run uniform ~steps:s.Gen.ad_steps;
      let af = make_adaptive s in
      Blocks.Mpisim.set_fault_plan af.Blocks.Adaptive.comm (adaptive_fault_plan s);
      Blocks.Adaptive.prime af;
      Blocks.Adaptive.run af ~steps:s.Gen.ad_steps;
      let ubuf = Vm.Engine.buffer uniform.Pfcore.Timestep.block phi in
      let ok = ref true in
      for gy = 0 to gd.(1) - 1 do
        for gx = 0 to gd.(0) - 1 do
          for c = 0 to phi.Fieldspec.components - 1 do
            let a = Vm.Buffer.get ubuf ~component:c [| gx; gy |] in
            let b = Blocks.Adaptive.get af phi ~component:c [| gx; gy |] in
            if not (bits_equal a b) then ok := false
          done
        done
      done;
      let usum =
        Vm.Reduce.scalar ~num_domains:1
          uniform.Pfcore.Timestep.block phi Vm.Reduce.Interface Vm.Reduce.Sum
      in
      let asum =
        Blocks.Adaptive.scalar af phi Vm.Reduce.Interface Vm.Reduce.Sum
      in
      !ok && bits_equal usum asum)

(** One sample of {!adaptive_snapshot_roundtrip}. *)
let adaptive_snapshot_case (s : Gen.adaptive_sample) =
  let s = { s with Gen.ad_crash = false } in
  let af = make_adaptive s in
  Blocks.Adaptive.prime af;
  Blocks.Adaptive.run af ~steps:s.Gen.ad_steps;
  let fresh = make_adaptive { s with Gen.ad_seed = s.Gen.ad_seed + 1 } in
  Blocks.Adaptive.prime fresh;
  roundtrip_continues
    ~run:(fun af ~steps -> Blocks.Adaptive.run af ~steps)
    ~capture:Resilience.Snapshot.capture_adaptive
    ~restore:Resilience.Snapshot.restore_adaptive ~sims:Blocks.Adaptive.active_sims
    ~poison:poison_adaptive af fresh ~steps:s.Gen.ad_steps

(* Adaptive snapshot: capture → encode → decode → restore into a forest
   in a *different* refinement state, every buffer NaN, must reproduce the
   captured state exactly — frozen constants, levels and ownership
   included — and continue bitwise with the original. *)
let adaptive_snapshot_roundtrip ~count =
  QCheck.Test.make
    ~name:"oracle5: adaptive snapshot encode/decode/restore = identity (bitwise)" ~count
    Gen.arb_adaptive adaptive_snapshot_case

(* Crash + rollback + replay over the adaptive forest: the recovery driver
   restores refinement state alongside the state fields (into a poisoned
   forest), and replayed adaptation decisions are pure functions of the
   restored state — so the protected run must end bitwise identical to an
   undisturbed one, freeze/thaw and rebalance schedule included. *)
let adaptive_crash_restart ~count =
  QCheck.Test.make
    ~name:"oracle5: adaptive crash + rollback + replay = undisturbed run (bitwise)"
    ~count Gen.arb_adaptive
    (fun s ->
      let ranks = max 2 s.Gen.ad_ranks in
      let s =
        {
          s with
          Gen.ad_crash = true;
          ad_ranks = ranks;
          ad_crash_rank = s.Gen.ad_crash_rank mod ranks;
          ad_steps = max s.Gen.ad_steps (s.Gen.ad_crash_step + 1);
        }
      in
      let clean = make_adaptive s in
      Blocks.Adaptive.prime clean;
      Blocks.Adaptive.run clean ~steps:s.Gen.ad_steps;
      let faulty = make_adaptive s in
      Blocks.Adaptive.prime faulty;
      Blocks.Mpisim.set_fault_plan faulty.Blocks.Adaptive.comm
        (adaptive_fault_plan ~crash:(s.Gen.ad_crash_rank, s.Gen.ad_crash_step) s);
      let stats =
        Resilience.Recovery.protect ~every:s.Gen.ad_ckpt_every ~steps:s.Gen.ad_steps
          ~step_count:(fun () -> Blocks.Adaptive.step_count faulty)
          ~step:(fun () -> Blocks.Adaptive.step faulty)
          ~capture:(fun () -> Resilience.Snapshot.capture_adaptive faulty)
          ~restore:(fun snap ->
            poison_adaptive faulty;
            Resilience.Snapshot.restore_adaptive snap faulty)
          faulty.Blocks.Adaptive.comm
      in
      stats.Resilience.Recovery.restarts >= 1
      && Resilience.Snapshot.equal
           (Resilience.Snapshot.capture_adaptive clean)
           (Resilience.Snapshot.capture_adaptive faulty)
      && buffers_bitwise_equal ~scratch:false (Blocks.Adaptive.active_sims clean)
           (Blocks.Adaptive.active_sims faulty))

(* ------------------------------------------------------------------ *)
(* Model zoo: the oracle battery over the combinator-built families    *)
(* ------------------------------------------------------------------ *)

(* Code generation costs seconds per configuration, so kernels are cached
   process-wide on the (family, coefficient-variant) key the samples draw
   from; seeds, decompositions, variants and backends still vary freely
   per sample. *)
let zoo_gens : (int * int * bool, Pfcore.Genkernels.t) Hashtbl.t = Hashtbl.create 9

let zoo_gen ?(raw = false) (s : Gen.zoo_sample) =
  let key = (s.Gen.zf mod 3, s.Gen.zcoef mod 3, raw) in
  match Hashtbl.find_opt zoo_gens key with
  | Some g -> g
  | None ->
    let opts =
      if raw then { Pfcore.Genkernels.default_options with simplify = false; cse = false }
      else Pfcore.Genkernels.default_options
    in
    let g = Pfcore.Genkernels.generate ~opts (Gen.zoo_params s) in
    Hashtbl.add zoo_gens key g;
    g

(* Philox-keyed smooth fields around a family-appropriate base value, a
   function of the *global* cell index alone — any decomposition of the
   same global domain starts bitwise identically. *)
let init_zoo (sim : Pfcore.Timestep.t) ~seed =
  let gen = sim.Pfcore.Timestep.gen in
  let p = gen.Pfcore.Genkernels.params in
  let block = sim.Pfcore.Timestep.block in
  let fields = gen.Pfcore.Genkernels.fields in
  let base =
    match p.Pfcore.Params.family with
    | Pfcore.Params.Solidification -> 1. /. float_of_int p.Pfcore.Params.n_phases
    | Pfcore.Params.Pfc _ -> 0.3
    | Pfcore.Params.Gray_scott _ -> 0.5
  in
  let init (f : Fieldspec.t) ~slot ~base ~amp =
    let buf = Vm.Engine.buffer block f in
    let off = block.Vm.Engine.offset in
    let gd = block.Vm.Engine.global_dims in
    Vm.Buffer.init buf (fun coords comp ->
        let cell = ref 0 in
        for d = Array.length gd - 1 downto 0 do
          cell := (!cell * gd.(d)) + coords.(d) + off.(d)
        done;
        base +. (amp *. Philox.symmetric ~cell:!cell ~step:seed ~slot:(slot + comp)))
  in
  init fields.Pfcore.Model.phi_src ~slot:3 ~base ~amp:0.01;
  if Pfcore.Params.n_mu p > 0 then init fields.Pfcore.Model.mu_src ~slot:23 ~base:0.02 ~amp:0.01

let zoo_variant split = if split then Pfcore.Timestep.Split else Pfcore.Timestep.Full

(* One zoo run through the whole Algorithm-1 step structure on the shared
   12x12 global domain. *)
let zoo_sim ?gen ?(backend = Vm.Engine.Interp) ?(num_domains = 1) ?tile ?(split = false)
    (s : Gen.zoo_sample) =
  let gen = match gen with Some g -> g | None -> zoo_gen s in
  let variant = zoo_variant split in
  let sim =
    Pfcore.Timestep.create ~variant_phi:variant ~variant_mu:variant ~backend ~num_domains
      ?tile ~dims:global2 gen
  in
  init_zoo sim ~seed:s.Gen.zseed;
  Pfcore.Timestep.prime sim;
  Pfcore.Timestep.run sim ~steps:s.Gen.zsteps;
  sim

let zoo_sims_agree ?(cmp = bits_equal) (a : Pfcore.Timestep.t) (b : Pfcore.Timestep.t) =
  let fields = a.Pfcore.Timestep.gen.Pfcore.Genkernels.fields in
  let buf (sim : Pfcore.Timestep.t) f = Vm.Engine.buffer sim.Pfcore.Timestep.block f in
  interior_agree ~cmp (buf a fields.Pfcore.Model.phi_src) (buf b fields.Pfcore.Model.phi_src)
  && (Pfcore.Params.n_mu a.Pfcore.Timestep.gen.Pfcore.Genkernels.params = 0
     || interior_agree ~cmp (buf a fields.Pfcore.Model.mu_src) (buf b fields.Pfcore.Model.mu_src))

(* Oracles 4, 7 and 8 over the zoo: pool width, tile decomposition and the
   JIT backend must be invisible, bitwise, for every family and variant. *)
let zoo_exec_paths ~count =
  QCheck.Test.make
    ~name:"oracle4/7/8 zoo: domains/tile/jit sweep = serial interp (bitwise)" ~count
    Gen.arb_zoo
    (fun s ->
      let reference = zoo_sim ~split:s.Gen.zsplit s in
      let subject =
        zoo_sim
          ~backend:(if s.Gen.zjit then Vm.Engine.Jit else Vm.Engine.Interp)
          ~num_domains:s.Gen.zdomains ~tile:s.Gen.ztile ~split:s.Gen.zsplit s
      in
      zoo_sims_agree reference subject)

(* Oracle 3 over the zoo: the staggered-precompute split variant evaluates
   different (algebraically equal) trees, so the comparison is the same
   tolerance-with-guard policy as the generic flux oracle. *)
let zoo_full_vs_split ~count =
  let cmp a b =
    (not (Float.is_finite a) && not (Float.is_finite b))
    || Float.abs a > guard || Float.abs b > guard
    || close ~tol:1e-6 a b
  in
  QCheck.Test.make ~name:"oracle3 zoo: full = split variant (tolerance)" ~count
    Gen.arb_zoo
    (fun s -> zoo_sims_agree ~cmp (zoo_sim ~split:false s) (zoo_sim ~split:true s))

(* Oracle 1 over the zoo: per-term simplification and global CSE are
   value-preserving on the real generated models, not just on random
   scalar expressions. *)
let zoo_opt_vs_raw ~count =
  let cmp a b =
    (not (Float.is_finite a) && not (Float.is_finite b))
    || Float.abs a > guard || Float.abs b > guard
    || close ~tol:1e-6 a b
  in
  QCheck.Test.make
    ~name:"oracle1 zoo: optimized kernels = unoptimized kernels (tolerance)" ~count
    Gen.arb_zoo
    (fun s ->
      (* pin the coefficient variant: the raw (unsimplified) kernels are
         several times bigger, so only three of them are ever generated *)
      let s = { s with Gen.zcoef = 0; zsteps = 1 } in
      zoo_sims_agree ~cmp (zoo_sim s) (zoo_sim ~gen:(zoo_gen ~raw:true s) s))

(* Oracle 2 over the zoo: the engine's sweep of the generated phi kernel —
   lowered, hoisted, possibly JIT-compiled — against a direct cell-by-cell
   [Eval] interpretation of the kernel body. *)
let zoo_engine_vs_eval ~count =
  QCheck.Test.make ~name:"oracle2 zoo: engine phi sweep = Eval interpreter" ~count
    Gen.arb_zoo
    (fun s ->
      let gen = zoo_gen s in
      let backend = if s.Gen.zjit then Vm.Engine.Jit else Vm.Engine.Interp in
      let make () =
        let sim = Pfcore.Timestep.create ~backend ~dims:global2 gen in
        init_zoo sim ~seed:s.Gen.zseed;
        Pfcore.Timestep.prime sim;
        sim
      in
      let engine = make () in
      let params = Pfcore.Timestep.runtime_params engine in
      Vm.Engine.run ~num_domains:s.Gen.zdomains ~backend ~step:0 ~params
        (Vm.Engine.bind gen.Pfcore.Genkernels.phi_full engine.Pfcore.Timestep.block);
      let evaled = make () in
      let block = evaled.Pfcore.Timestep.block in
      let temps : (string, float) Hashtbl.t = Hashtbl.create 64 in
      let coords = Array.make 2 0 in
      let elt (a : Fieldspec.access) =
        let buf = Vm.Engine.buffer block a.Fieldspec.field in
        (buf, Vm.Buffer.base_index buf coords + Vm.Buffer.access_delta buf a)
      in
      let dx = List.assoc "dx" params in
      let env =
        Eval.env
          ~sym:(fun sy ->
            match Hashtbl.find_opt temps sy with
            | Some v -> v
            | None -> List.assoc sy params)
          ~access:(fun a ->
            let buf, i = elt a in
            buf.Vm.Buffer.data.(i))
          ~coord:(fun d -> (float_of_int coords.(d) +. 0.5) *. dx)
          ~rand:(fun _ -> 0.)
          ()
      in
      for y = 0 to global2.(1) - 1 do
        for x = 0 to global2.(0) - 1 do
          coords.(0) <- x;
          coords.(1) <- y;
          Hashtbl.reset temps;
          List.iter
            (fun (a : Field.Assignment.t) ->
              let v = Eval.eval env a.Field.Assignment.rhs in
              match a.Field.Assignment.lhs with
              | Field.Assignment.Temp t -> Hashtbl.replace temps t v
              | Field.Assignment.Store acc ->
                let buf, i = elt acc in
                buf.Vm.Buffer.data.(i) <- v)
            gen.Pfcore.Genkernels.phi_full.Ir.Kernel.body
        done
      done;
      let dst = gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_dst in
      interior_agree ~cmp:engine_close
        (Vm.Engine.buffer engine.Pfcore.Timestep.block dst)
        (Vm.Engine.buffer block dst))

(* Oracle 5 over the zoo: single block vs 2x2 Mpisim forest, bitwise. *)
let zoo_single_vs_forest ~count =
  QCheck.Test.make ~name:"oracle5 zoo: single block = 2x2 forest (bitwise)" ~count
    Gen.arb_zoo
    (fun s ->
      let gen = zoo_gen s in
      let variant = zoo_variant s.Gen.zsplit in
      let single = zoo_sim ~split:s.Gen.zsplit s in
      let forest =
        Blocks.Forest.create ~variant_phi:variant ~variant_mu:variant ~grid:[| 2; 2 |]
          ~block_dims:[| global2.(0) / 2; global2.(1) / 2 |]
          gen
      in
      Array.iter (fun sim -> init_zoo sim ~seed:s.Gen.zseed) forest.Blocks.Forest.sims;
      Blocks.Forest.prime forest;
      Blocks.Forest.run forest ~steps:s.Gen.zsteps;
      let phi = gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_src in
      let sbuf = Vm.Engine.buffer single.Pfcore.Timestep.block phi in
      let ok = ref true in
      for gy = 0 to global2.(1) - 1 do
        for gx = 0 to global2.(0) - 1 do
          for c = 0 to phi.Fieldspec.components - 1 do
            let a = Vm.Buffer.get sbuf ~component:c [| gx; gy |] in
            let b = Blocks.Forest.get forest phi ~component:c [| gx; gy |] in
            if not (bits_equal a b) then ok := false
          done
        done
      done;
      !ok)

(** One sample of {!zoo_snapshot_roundtrip}. *)
let zoo_snapshot_case (s : Gen.zoo_sample) =
  let gen = zoo_gen s in
  let variant = zoo_variant s.Gen.zsplit in
  let make ?(overlap = false) ?(backend = Vm.Engine.Interp) ?(num_domains = 1) ?tile seed =
    let forest =
      Blocks.Forest.create ~variant_phi:variant ~variant_mu:variant ~num_domains ?tile
        ~backend ~overlap ~grid:[| 2; 2 |]
        ~block_dims:[| global2.(0) / 2; global2.(1) / 2 |]
        gen
    in
    Array.iter (fun sim -> init_zoo sim ~seed) forest.Blocks.Forest.sims;
    Blocks.Forest.prime forest;
    forest
  in
  let forest = make s.Gen.zseed in
  Blocks.Forest.run forest ~steps:s.Gen.zsteps;
  let target =
    make
      ~overlap:(s.Gen.zf mod 3 = 0 && s.Gen.zsplit)
      ~backend:(if s.Gen.zjit then Vm.Engine.Jit else Vm.Engine.Interp)
      ~num_domains:s.Gen.zdomains ~tile:s.Gen.ztile (s.Gen.zseed + 1)
  in
  roundtrip_continues
    ~run:(fun f ~steps -> Blocks.Forest.run f ~steps)
    ~capture:Resilience.Snapshot.capture ~restore:Resilience.Snapshot.restore
    ~sims:forest_sims ~poison:poison_forest forest target ~steps:s.Gen.zsteps

(* Oracle 6 over the zoo: snapshot capture/encode/decode/restore into a
   poisoned forest is the identity on evolved zoo forests, whose extra
   staggered slots are scratch, and the restored forest continues bitwise
   with the original — on the sample's backend, pool width and tile, and
   for the split eutectic with the overlapped exchange. *)
let zoo_snapshot_roundtrip ~count =
  QCheck.Test.make
    ~name:"oracle6 zoo: snapshot encode/decode/restore = identity (bitwise)" ~count
    Gen.arb_zoo zoo_snapshot_case

(* Oracle 10 over the zoo: the eutectic family has the phi+mu kernel
   structure the inner/outer overlap split is built around; overlapped
   exchange must stay invisible on a 2D decomposition too. *)
let zoo_overlap ~count =
  QCheck.Test.make
    ~name:"oracle10 zoo: eutectic overlapped = sequential exchange (bitwise)" ~count
    Gen.arb_zoo
    (fun s ->
      let s = { s with Gen.zf = 0 } in
      let gen = zoo_gen s in
      let variant = zoo_variant s.Gen.zsplit in
      let make ~overlap ~backend ~num_domains ~tile =
        let forest =
          Blocks.Forest.create ~variant_phi:variant ~variant_mu:variant ~num_domains
            ?tile ~backend ~overlap ~grid:[| 2; 1 |]
            ~block_dims:[| global2.(0) / 2; global2.(1) |]
            gen
        in
        Array.iter (fun sim -> init_zoo sim ~seed:s.Gen.zseed) forest.Blocks.Forest.sims;
        Blocks.Forest.prime forest;
        Blocks.Forest.run forest ~steps:s.Gen.zsteps;
        forest
      in
      let reference =
        make ~overlap:false ~backend:Vm.Engine.Interp ~num_domains:1 ~tile:None
      in
      let overlapped =
        make ~overlap:true
          ~backend:(if s.Gen.zjit then Vm.Engine.Jit else Vm.Engine.Interp)
          ~num_domains:s.Gen.zdomains ~tile:(Some s.Gen.ztile)
      in
      let fields = gen.Pfcore.Genkernels.fields in
      let check (f : Fieldspec.t) =
        let ok = ref true in
        for gy = 0 to global2.(1) - 1 do
          for gx = 0 to global2.(0) - 1 do
            for c = 0 to f.Fieldspec.components - 1 do
              let a = Blocks.Forest.get reference f ~component:c [| gx; gy |] in
              let b = Blocks.Forest.get overlapped f ~component:c [| gx; gy |] in
              if not (bits_equal a b) then ok := false
            done
          done
        done;
        !ok
      in
      check fields.Pfcore.Model.phi_src && check fields.Pfcore.Model.mu_src)

(* Oracle 11 over the zoo: pooled, tiled and forest-distributed
   reductions of an evolved zoo field reproduce the serial scalar bitwise,
   and a serial sum is the exact sum of its cells. *)
let zoo_reduce ~count =
  QCheck.Test.make
    ~name:"oracle11 zoo: pooled/forest reduction = serial reference (bitwise)" ~count
    Gen.arb_zoo
    (fun s ->
      let gen = zoo_gen s in
      let op = reduce_op s.Gen.zcoef in
      let phi = gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_src in
      (* Component 1 only exists for the multi-phase families *)
      let cf = s.Gen.zseed mod 4 in
      let cf = if cf = 1 && phi.Fieldspec.components < 2 then 0 else cf in
      let cellfn = reduce_cellfn ~seed:s.Gen.zseed cf in
      let single = zoo_sim ~split:s.Gen.zsplit s in
      let reference =
        Vm.Reduce.scalar ~num_domains:1
          single.Pfcore.Timestep.block phi cellfn op
      in
      let backend = if s.Gen.zjit then Vm.Engine.Jit else Vm.Engine.Interp in
      let pooled =
        Vm.Reduce.scalar ~num_domains:s.Gen.zdomains ~tile:s.Gen.ztile
          single.Pfcore.Timestep.block phi cellfn op
      in
      let variant = zoo_variant s.Gen.zsplit in
      let forest =
        Blocks.Forest.create ~variant_phi:variant ~variant_mu:variant
          ~num_domains:s.Gen.zdomains ~tile:s.Gen.ztile ~backend ~grid:[| 2; 1 |]
          ~block_dims:[| global2.(0) / 2; global2.(1) |]
          gen
      in
      Array.iter (fun sim -> init_zoo sim ~seed:s.Gen.zseed) forest.Blocks.Forest.sims;
      Blocks.Forest.prime forest;
      Blocks.Forest.run forest ~steps:s.Gen.zsteps;
      let dist =
        Blocks.Reduce.forest_scalar ~num_domains:s.Gen.zdomains
          ~tile:s.Gen.ztile forest phi cellfn op
      in
      exact_reference reference single.Pfcore.Timestep.block phi cellfn op
      && bits_equal reference pooled && bits_equal reference dist)

(* Adaptive-forest leg over the zoo.  Gray-Scott is the family whose
   Pearson background (u=1, v=0) is an *exact* fixed point of the rhs, so
   bulk blocks hold constants and genuinely freeze — and its kernels are
   position-independent, which is what entitles the forest to freeze them. *)
let init_zoo_sharp (sim : Pfcore.Timestep.t) =
  let fields = sim.Pfcore.Timestep.gen.Pfcore.Genkernels.fields in
  let block = sim.Pfcore.Timestep.block in
  let buf = Vm.Engine.buffer block fields.Pfcore.Model.phi_src in
  let off = block.Vm.Engine.offset in
  Vm.Buffer.init buf (fun coords comp ->
      let gx = coords.(0) + off.(0) and gy = coords.(1) + off.(1) in
      let inside = gx >= 1 && gx <= 3 && gy >= 1 && gy <= 3 in
      match (comp, inside) with
      | 0, true -> 0.5
      | 0, false -> 1.
      | _, true -> 0.25
      | _, false -> 0.)

let zoo_adaptive ~count =
  QCheck.Test.make
    ~name:"oracle5 zoo: adaptive forest = uniform fine grid (bitwise)" ~count
    Gen.arb_zoo
    (fun s ->
      let s = { s with Gen.zf = 2 } in
      let gen = zoo_gen s in
      let phi = gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_src in
      let uniform = Pfcore.Timestep.create ~dims:global2 gen in
      init_zoo_sharp uniform;
      Pfcore.Timestep.prime uniform;
      Pfcore.Timestep.run uniform ~steps:s.Gen.zsteps;
      let af =
        Blocks.Adaptive.create ~ranks:(1 + (s.Gen.zseed mod 3))
          ~num_domains:s.Gen.zdomains ~tile:s.Gen.ztile
          ?backend:(if s.Gen.zjit then Some Vm.Engine.Jit else None)
          ~bgrid:[| 2; 2 |]
          ~block_dims:[| global2.(0) / 2; global2.(1) / 2 |]
          gen
      in
      List.iter init_zoo_sharp (Blocks.Adaptive.active_sims af);
      Blocks.Adaptive.prime af;
      Blocks.Adaptive.run af ~steps:s.Gen.zsteps;
      let ubuf = Vm.Engine.buffer uniform.Pfcore.Timestep.block phi in
      let ok = ref true in
      for gy = 0 to global2.(1) - 1 do
        for gx = 0 to global2.(0) - 1 do
          for c = 0 to phi.Fieldspec.components - 1 do
            let a = Vm.Buffer.get ubuf ~component:c [| gx; gy |] in
            let b = Blocks.Adaptive.get af phi ~component:c [| gx; gy |] in
            if not (bits_equal a b) then ok := false
          done
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Oracle 12: automatic variational derivative vs. finite differences  *)
(* ------------------------------------------------------------------ *)

(* A tiny self-contained reference implementation: fields are plain float
   arrays over a periodic 12x10 grid (no VM, no ghost cells), the discrete
   energy is the sum of the discretized density over all cells, and the
   functional derivative at cell j is probed by central differences on the
   state vector.  The subject is [Varder.run] — differentiate first, then
   discretize — evaluated at the same cell. *)

let o12_dims = [| 12; 10 |]
let o12_cells = o12_dims.(0) * o12_dims.(1)

(* Smooth single-mode probe per (field, component): base in [0.35, 0.45],
   amplitude 0.08 at the lowest wavenumber the grid supports, with a
   Philox-keyed phase.  See [o12_tolerance] for why the probe must stay
   far below the grid Nyquist. *)
let o12_state ~seed =
  let tbl : (string * int, float array) Hashtbl.t = Hashtbl.create 8 in
  fun (name, comp) ->
    match Hashtbl.find_opt tbl (name, comp) with
    | Some a -> a
    | None ->
      let key = (Hashtbl.hash name mod 97) + (31 * comp) in
      let phase = Float.pi *. Philox.symmetric ~cell:key ~step:seed ~slot:29 in
      let base = 0.4 +. (0.05 *. Philox.symmetric ~cell:key ~step:seed ~slot:30) in
      let qx = 2. *. Float.pi /. float_of_int o12_dims.(0) in
      let qy = 2. *. Float.pi /. float_of_int o12_dims.(1) in
      let a =
        Array.init o12_cells (fun cell ->
            let x = cell mod o12_dims.(0) and y = cell / o12_dims.(0) in
            base
            +. (0.08 *. sin ((qx *. float_of_int x) +. (qy *. float_of_int y) +. phase)))
      in
      Hashtbl.add tbl (name, comp) a;
      a

let o12_eval ~state ~bindings expr ~x ~y =
  let env =
    Eval.env
      ~sym:(fun sy -> List.assoc sy bindings)
      ~access:(fun (a : Fieldspec.access) ->
        let wrap v n = ((v mod n) + n) mod n in
        let px = wrap (x + a.Fieldspec.offsets.(0)) o12_dims.(0) in
        let py = wrap (y + a.Fieldspec.offsets.(1)) o12_dims.(1) in
        (state (a.Fieldspec.field.Fieldspec.name, a.Fieldspec.component)).((py
                                                                            * o12_dims.(0))
                                                                           + px))
      ~coord:(fun _ -> 0.)
      ~rand:(fun _ -> 0.)
      ()
  in
  Eval.eval env expr

(* The discrete energy (dx = 1, so no volume factor) and its central
   difference in one state-vector entry. *)
let o12_energy ~state ~bindings d_density =
  let acc = ref 0. in
  for y = 0 to o12_dims.(1) - 1 do
    for x = 0 to o12_dims.(0) - 1 do
      acc := !acc +. o12_eval ~state ~bindings d_density ~x ~y
    done
  done;
  !acc

let o12_fd ~state ~bindings d_density ~arr ~cell =
  let h = 1e-5 in
  let saved = arr.(cell) in
  arr.(cell) <- saved +. h;
  let ep = o12_energy ~state ~bindings d_density in
  arr.(cell) <- saved -. h;
  let em = o12_energy ~state ~bindings d_density in
  arr.(cell) <- saved;
  (ep -. em) /. (2. *. h)

let o12_ad ~state ~bindings density ~wrt ~x ~y =
  let scheme = Fd.Discretize.create ~dx:(Expr.num 1.) ~dim:2 () in
  o12_eval ~state ~bindings (Fd.Discretize.discretize scheme (Energy.Varder.run ~dim:2 density ~wrt)) ~x ~y

(* Tolerance (the documented one, like Drift's 1.2x threshold): bulk terms
   commute exactly between differentiate-then-discretize and
   discretize-then-differentiate, and so does the Swift-Hohenberg operator
   (the compact Laplacian is symmetric under the periodic sum).  Plain
   gradient terms do not: the AD side discretizes div(kappa grad u) with
   the compact 3-point Laplacian, while differentiating the energy's
   central-difference gradient yields the wide (2h) Laplacian — second-
   order operators whose symbols differ by O((q dx)^2).  On the probe mode
   (qx = 2pi/12, qy = 2pi/10, amplitude 0.08) that is at most ~0.005 per
   unit coefficient; the budget of 0.02 per unit coefficient passes with
   4x margin yet still fails on a sign flip, a dropped term or a missing
   factor 2 (all >= 0.05 absolute on the same probe). *)
let o12_tolerance coef_sum = 0.02 *. (1. +. coef_sum)

let u_of_func (s : Gen.func_sample) =
  Fieldspec.create ~dim:2 ~components:s.Gen.fn_comps "o12_u"

let density_of_func (s : Gen.func_sample) u =
  let comp i = Expr.access (Fieldspec.center ~component:(i mod s.Gen.fn_comps) u) in
  let all = Array.init s.Gen.fn_comps comp in
  Energy.Functional.sum
    (List.map
       (function
         | Gen.Zwell (w, i) -> Energy.Functional.double_well ~w:(Expr.num w) (comp i)
         | Gen.Zgrad (k, i) ->
           Energy.Functional.square_gradient ~dim:2 ~kappa:(Expr.num k) (comp i)
         | Gen.Zcouple c -> Energy.Functional.pair_coupling ~c:(Expr.num c) all
         | Gen.Zdrive (m, i) -> Energy.Functional.linear_drive ~m:(Expr.num m) (comp i)
         | Gen.Zcrystal (r, i) ->
           Energy.Functional.swift_hohenberg ~dim:2 ~r:(Expr.num r) (comp i))
       s.Gen.fn_terms)

let ad_vs_fd ~count =
  QCheck.Test.make
    ~name:"oracle12: Varder = finite-difference functional derivative" ~count
    Gen.arb_func
    (fun s ->
      let u = u_of_func s in
      let density = density_of_func s u in
      let comp = s.Gen.fn_comp mod s.Gen.fn_comps in
      let wrt = Expr.access (Fieldspec.center ~component:comp u) in
      let scheme = Fd.Discretize.create ~dx:(Expr.num 1.) ~dim:2 () in
      let d_density = Fd.Discretize.discretize scheme density in
      let state = o12_state ~seed:s.Gen.fn_seed in
      let cell = s.Gen.fn_cell mod o12_cells in
      let x = cell mod o12_dims.(0) and y = cell / o12_dims.(0) in
      let arr = state (u.Fieldspec.name, comp) in
      let fd = o12_fd ~state ~bindings:[] d_density ~arr ~cell in
      let ad = o12_ad ~state ~bindings:[] density ~wrt ~x ~y in
      let coef_sum =
        List.fold_left (fun acc t -> acc +. Float.abs (Gen.zterm_coef t)) 0. s.Gen.fn_terms
      in
      Float.abs (ad -. fd) <= o12_tolerance coef_sum)

(* The same check over the zoo families' actual densities (coefficients of
   order eps*gamma for eutectic), probing a random phase component.  The
   commutation error analysis above scales with the coefficients, hence
   the wider flat budget. *)
let zoo_ad_vs_fd ~count =
  QCheck.Test.make
    ~name:"oracle12 zoo: family density, Varder = finite differences" ~count
    Gen.arb_zoo
    (fun s ->
      let p = Gen.zoo_params s in
      let f = Pfcore.Model.make_fields p in
      let ctx = Pfcore.Model.make_ctx ~symbolic:false in
      let density =
        Expr.subst
          [ (Pfcore.Model.t_loc, Expr.num 0.47) ]
          (Pfcore.Model.family_density ctx p f)
      in
      let bindings = Pfcore.Genkernels.guard_bindings in
      let comp = s.Gen.zseed mod p.Pfcore.Params.n_phases in
      let wrt = Pfcore.Model.phi_at ~component:comp f.Pfcore.Model.phi_src in
      let scheme = Fd.Discretize.create ~dx:(Expr.num 1.) ~dim:2 () in
      let d_density = Fd.Discretize.discretize scheme density in
      let state = o12_state ~seed:s.Gen.zseed in
      let cell = s.Gen.zseed mod o12_cells in
      let x = cell mod o12_dims.(0) and y = cell / o12_dims.(0) in
      let arr = state (f.Pfcore.Model.phi_src.Fieldspec.name, comp) in
      let fd = o12_fd ~state ~bindings d_density ~arr ~cell in
      let ad = o12_ad ~state ~bindings density ~wrt ~x ~y in
      Float.abs (ad -. fd) <= 0.05 +. (0.02 *. (Float.abs ad +. Float.abs fd)))

(** Worst observed |AD − FD| deviation of one zoo family (at the preset
    coefficients) over every phase component and a spread of probe cells —
    the per-family check of the energy suite, held to the same budget as
    the oracle.  Returns [(max_deviation, within_budget)]. *)
let o12_family_deviation ~zf ~seed =
  let s =
    {
      Gen.zf;
      zcoef = 0;
      zseed = seed;
      zsplit = false;
      zsteps = 1;
      zdomains = 1;
      ztile = [| 0; 0 |];
      zjit = false;
    }
  in
  let p = Gen.zoo_params s in
  let f = Pfcore.Model.make_fields p in
  let ctx = Pfcore.Model.make_ctx ~symbolic:false in
  let density =
    Expr.subst
      [ (Pfcore.Model.t_loc, Expr.num 0.47) ]
      (Pfcore.Model.family_density ctx p f)
  in
  let bindings = Pfcore.Genkernels.guard_bindings in
  let scheme = Fd.Discretize.create ~dx:(Expr.num 1.) ~dim:2 () in
  let d_density = Fd.Discretize.discretize scheme density in
  let state = o12_state ~seed in
  let worst = ref 0. and ok = ref true in
  for comp = 0 to p.Pfcore.Params.n_phases - 1 do
    let wrt = Pfcore.Model.phi_at ~component:comp f.Pfcore.Model.phi_src in
    let arr = state (f.Pfcore.Model.phi_src.Fieldspec.name, comp) in
    List.iter
      (fun cell ->
        let x = cell mod o12_dims.(0) and y = cell / o12_dims.(0) in
        let fd = o12_fd ~state ~bindings d_density ~arr ~cell in
        let ad = o12_ad ~state ~bindings density ~wrt ~x ~y in
        let dev = Float.abs (ad -. fd) in
        if dev > !worst then worst := dev;
        if dev > 0.05 +. (0.02 *. (Float.abs ad +. Float.abs fd)) then ok := false)
      [ 0; 17; 53; 91; 118 ]
  done;
  (!worst, !ok)

(* ------------------------------------------------------------------ *)
(* The harness's test list                                             *)
(* ------------------------------------------------------------------ *)

(** All oracle tests.  [count] is the base sample count; cheap scalar
    oracles run more samples, whole-model oracles fewer. *)
let all ~count =
  simplify_tests ~count:(2 * count)
  @ [
      engine_vs_interp ~count;
      full_vs_split ~count;
      serial_vs_domains ~count:(max 3 (count / 2));
      single_vs_forest ~count:(max 2 (count / 6));
      snapshot_roundtrip ~count:(max 2 (count / 4));
      snapshot_corruption ~count:(max 4 (count / 2));
      crash_restart_bitwise ~count:(max 2 (count / 8));
      pooled_vs_serial ~count:(max 3 (count / 3));
      jit_vs_interp ~count:(max 3 (count / 3));
      fast_tier_vs_interp ~count:(max 1 (count / 10));
      farm_vs_solo ~count:(max 2 (count / 8));
      overlapped_vs_sequential ~count:(max 2 (count / 8));
      reduce_vs_serial ~count:(max 3 (count / 4));
      adaptive_vs_uniform ~count:(max 2 (count / 8));
      adaptive_snapshot_roundtrip ~count:(max 2 (count / 8));
      adaptive_crash_restart ~count:(max 2 (count / 8));
      (* model zoo: the whole battery re-run over the combinator families *)
      ad_vs_fd ~count;
      zoo_ad_vs_fd ~count:(max 3 (count / 3));
      zoo_opt_vs_raw ~count:(max 2 (count / 6));
      zoo_engine_vs_eval ~count:(max 3 (count / 4));
      zoo_full_vs_split ~count:(max 3 (count / 4));
      zoo_exec_paths ~count:(max 3 (count / 4));
      zoo_single_vs_forest ~count:(max 2 (count / 6));
      zoo_snapshot_roundtrip ~count:(max 2 (count / 6));
      zoo_overlap ~count:(max 2 (count / 8));
      zoo_reduce ~count:(max 2 (count / 6));
      zoo_adaptive ~count:(max 2 (count / 8));
    ]
  @ Obs_props.tests ~count
