(** Differential oracles.

    Each oracle runs one random sample through two independent
    implementations of the same semantics and compares the results:

    + scalar [Eval.eval] vs. eval after an algebraic pass
      ([Simplify.simplify_term], [expand], [factor_common],
      [freeze_parameters]) or after [Cse]; and a model's optimized
      kernels vs. its unoptimized ones;
    + the compiled [Vm.Engine] sweep vs. the per-cell [Eval] sweep
      ({!eval_sweep}), on random kernels and on each model's φ kernel;
    + full vs. split (staggered-precompute) discretization;
    + serial vs. multi-domain sweep (bitwise);
    + single block vs. an [Blocks.Mpisim] forest, and an adaptive forest
      vs. the uniform fine grid (bitwise);
    + snapshot roundtrips and crash + rollback + replay vs. the
      undisturbed run (bitwise);
    + pooled tiled vs. serial execution (bitwise);
    + the JIT backend vs. the interpreter (bitwise), and the fast tier on
      random kernels;
    + a farm-scheduled job vs. the same job run solo (bitwise);
    + overlapped vs. sequential ghost exchange (bitwise);
    + pooled, tiled and forest reductions vs. the serial exact sum
      (bitwise);
    + the automatic variational derivative vs. finite differences of the
      discretized energy.

    The model-level oracles are relations between a reference run and a
    subject run of one {!Gen.case}: every model family draws the same
    case type, the executors, rank grids and fault plans the case names
    are built by one constructor ({!build}), and every run starts from one
    initializer ({!init}) and is compared by one global-coordinate
    comparison ({!agree}).  {!relations} lists each oracle with the
    families it applies to.

    Floating-point policy: oracles whose two sides evaluate *different
    expression trees* (1 and 3) compare up to a tolerance and skip samples
    whose intermediate values leave [-guard, guard] — reassociation under
    the normalizing smart constructors legitimately perturbs the last bits,
    and IEEE non-finite arithmetic makes algebraic rewrites unsound
    (0 * inf).  Oracles whose two sides evaluate the *same* tree compare
    bitwise, except the [Eval] sweep, whose generic [Pow] differs in the
    last bits. *)

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

(** The compare of different trees (oracles 1 and 3): a tolerance, with
    values outside the guard band or non-finite on both sides accepted. *)
let tolerant a b =
  (not (Float.is_finite a) && not (Float.is_finite b))
  || Float.abs a > guard || Float.abs b > guard || close a b

(* The engine and [Eval] evaluate the same normalized tree; the only
   rounding difference is the generic-[Pow] strategy (repeated multiply
   vs. [**]), so the tolerance is tight. *)
let engine_close a b = (Float.is_nan a && Float.is_nan b) || a = b || close ~tol:1e-9 a b

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

(** [get_a] and [get_b] agree under [cmp] at every cell of the global
    domain [dims], in every component of [fields]. *)
let agree ?(cmp = bits_equal) ~fields ~dims get_a get_b =
  let g = Array.make (Array.length dims) 0 and ok = ref true in
  let rec go d =
    if d < 0 then
      List.iter
        (fun (f : Fieldspec.t) ->
          for c = 0 to f.Fieldspec.components - 1 do
            if not (cmp (get_a f c g) (get_b f c g)) then ok := false
          done)
        fields
    else
      for i = 0 to dims.(d) - 1 do
        g.(d) <- i;
        go (d - 1)
      done
  in
  go (Array.length dims - 1);
  !ok

let block_value (block : Vm.Engine.block) f c g =
  Vm.Buffer.get (Vm.Engine.buffer block f) ~component:c g

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
(* Initial conditions and the reference sweep                          *)
(* ------------------------------------------------------------------ *)

(** The smooth initial condition of [f] on [block]'s interior: [base +
    amp * u] per component, [u] a Philox draw keyed on the *global* cell
    index and [slot + component], so every decomposition of one global
    domain starts bitwise identically. *)
let smooth (block : Vm.Engine.block) (f : Fieldspec.t) ~seed ~slot ~base ~amp =
  let off = block.Vm.Engine.offset and gd = block.Vm.Engine.global_dims in
  Vm.Buffer.init (Vm.Engine.buffer block f) (fun coords comp ->
      let cell = ref 0 in
      for d = Array.length gd - 1 downto 0 do
        cell := (!cell * gd.(d)) + coords.(d) + off.(d)
      done;
      base +. (amp *. Philox.symmetric ~cell:!cell ~step:seed ~slot:(slot + comp)))

(** Direct interpretation of an SSA body over [block]'s interior, one
    cell at a time through [Eval] — no lowering, no hoisting, no
    compilation: oracle 2's reference for random kernels and generated
    models alike.  Coordinates and the Philox streams read the global
    cell, as the engine's do. *)
let eval_sweep ~step ~params (body : Field.Assignment.t list) (block : Vm.Engine.block) =
  let dims = block.Vm.Engine.dims and off = block.Vm.Engine.offset in
  let gd = block.Vm.Engine.global_dims in
  let n = Array.length dims in
  let dx = List.assoc "dx" params in
  let temps : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let coords = Array.make n 0 in
  let global d = coords.(d) + off.(d) in
  let elt (a : Fieldspec.access) =
    let buf = Vm.Engine.buffer block a.Fieldspec.field in
    (buf, Vm.Buffer.base_index buf coords + Vm.Buffer.access_delta buf a)
  in
  let env =
    Eval.env
      ~sym:(fun sy ->
        match Hashtbl.find_opt temps sy with Some v -> v | None -> List.assoc sy params)
      ~access:(fun a ->
        let buf, i = elt a in
        buf.Vm.Buffer.data.(i))
      ~coord:(fun d -> (float_of_int (global d) +. 0.5) *. dx)
      ~rand:(fun slot ->
        let cell = ref 0 in
        for d = n - 1 downto 0 do
          cell := (!cell * gd.(d)) + global d
        done;
        Philox.symmetric ~cell:!cell ~step ~slot)
      ()
  in
  let rec sweep d =
    if d < 0 then begin
      Hashtbl.reset temps;
      List.iter
        (fun (a : Field.Assignment.t) ->
          let v = Eval.eval env a.Field.Assignment.rhs in
          match a.Field.Assignment.lhs with
          | Field.Assignment.Temp t -> Hashtbl.replace temps t v
          | Field.Assignment.Store acc ->
            let buf, i = elt acc in
            buf.Vm.Buffer.data.(i) <- v)
        body
    end
    else
      for i = 0 to dims.(d) - 1 do
        coords.(d) <- i;
        sweep (d - 1)
      done
  in
  sweep (n - 1)

(* ------------------------------------------------------------------ *)
(* Oracles 2 and 4 on random kernels, oracle 3 on random fluxes        *)
(* ------------------------------------------------------------------ *)

let dims2 = [| 6; 5 |]

(* A random sample's block: [src] smooth over the interior, and every
   ghost its own draw keyed on the padded index, so a read resolved to the
   wrong element (a ghost's periodic image included) reads another value. *)
let sample_block fields (src : Fieldspec.t) ~seed ~slot =
  let block = Vm.Engine.make_block ~ghost:2 ~dims:dims2 fields in
  let data = (Vm.Engine.buffer block src).Vm.Buffer.data in
  Array.iteri
    (fun i _ -> data.(i) <- 0.5 +. (0.45 *. Philox.symmetric ~cell:i ~step:seed ~slot:(slot + 8)))
    data;
  smooth block src ~seed ~slot ~base:0.5 ~amp:0.45;
  block

let kernel_block (s : Gen.kernel_sample) =
  sample_block [ s.Gen.src; s.Gen.dst ] s.Gen.src ~seed:s.Gen.seed ~slot:3

let run_engine (s : Gen.kernel_sample) ~num_domains =
  let block = kernel_block s in
  Vm.Engine.run ~num_domains ~step:s.Gen.seed ~params:s.Gen.params
    (Vm.Engine.bind (Ir.Kernel.make ~name:"fuzz" ~dim:2 s.Gen.body) block);
  block

let dst_agree ?cmp (s : Gen.kernel_sample) a b =
  agree ?cmp ~fields:[ s.Gen.dst ] ~dims:dims2 (block_value a) (block_value b)

let engine_vs_interp ~count =
  QCheck.Test.make ~name:"oracle2: Vm.Engine = Eval interpreter" ~count
    (Gen.arb_kernel ())
    (fun s ->
      let reference = kernel_block s in
      eval_sweep ~step:s.Gen.seed ~params:s.Gen.params s.Gen.body reference;
      dst_agree ~cmp:engine_close s (run_engine s ~num_domains:1) reference)

(* Domain slicing only partitions the outer loop — every cell runs the
   identical instructions on the same data, so this one is bitwise.  [Rand]
   streams are keyed by global cell index and must not see the slicing. *)
let serial_vs_domains ~count =
  QCheck.Test.make ~name:"oracle4: serial sweep = multi-domain sweep (bitwise)" ~count
    (Gen.arb_kernel ())
    (fun s -> dst_agree s (run_engine s ~num_domains:1) (run_engine s ~num_domains:3))

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
      let main_body = [ Field.Assignment.store (Fieldspec.center out_split) split_rhs ] in
      let stag_body = Fd.Discretize.registry_kernel_body registry in
      let block =
        sample_block [ Gen.phi_c; out_full; out_split; stag ] Gen.phi_c ~seed:s.Gen.fseed ~slot:7
      in
      let params = [ ("dx", s.Gen.fdx); ("kappa", s.Gen.kappa) ] in
      let exec k = Vm.Engine.run ~params (Vm.Engine.bind k block) in
      exec (Ir.Kernel.make ~name:"full" ~dim:2 full_body);
      (match stag_body with
      | [] -> ()
      | body ->
        exec
          (Ir.Kernel.make ~iteration:(Ir.Kernel.StaggeredSweep [ 0; 1 ]) ~name:"stag"
             ~dim:2 body));
      exec (Ir.Kernel.make ~name:"main" ~dim:2 main_body);
      (* different trees on the two sides: the guarded tolerance *)
      agree ~cmp:tolerant ~fields:[ out_full ] ~dims:dims2 (block_value block)
        (fun _ -> block_value block out_split))

(* ------------------------------------------------------------------ *)
(* Model runs: one constructor over every family                       *)
(* ------------------------------------------------------------------ *)

(* Kernels are generated once per family, coefficient variant and
   optimization setting; seeds, decompositions, variants and executors
   vary freely per sample. *)
let gens : (Gen.family * int * bool, Pfcore.Genkernels.t) Hashtbl.t = Hashtbl.create 16

(** The case's generated kernels; [raw] without simplification or CSE. *)
let gen_of ?(raw = false) (c : Gen.case) =
  let key = (c.Gen.family, c.Gen.coef mod 3, raw) in
  match Hashtbl.find_opt gens key with
  | Some g -> g
  | None ->
    let opts =
      if raw then { Pfcore.Genkernels.default_options with simplify = false; cse = false }
      else Pfcore.Genkernels.default_options
    in
    let g = Pfcore.Genkernels.generate ~opts (Gen.params c) in
    Hashtbl.add gens key g;
    g

(* The adaptive legs' sharp disc: the phase components inside and
   outside, each state an exact fixed point of its family's kernels, so
   bulk blocks hold constants and actually freeze. *)
let sharp_values = function
  | Gen.Gray_scott -> ([| 0.5; 0.25 |], [| 1.; 0. |])
  | _ -> ([| 1.; 0. |], [| 0.; 1. |])

(** The case's initial condition on [sim]'s block, a function of the
    global cell alone: smooth fields around a family-appropriate base,
    or, with [~sharp] (the adaptive legs), a sharp disc confined to the
    first 6x6 block. *)
let init ?(sharp = false) (c : Gen.case) (sim : Pfcore.Timestep.t) =
  let gen = sim.Pfcore.Timestep.gen and block = sim.Pfcore.Timestep.block in
  let p = gen.Pfcore.Genkernels.params and f = gen.Pfcore.Genkernels.fields in
  if sharp then begin
    let inside, outside = sharp_values c.Gen.family in
    let off = block.Vm.Engine.offset in
    let r = 2. +. (0.4 *. float_of_int (c.Gen.seed mod 3)) in
    Vm.Buffer.init (Vm.Engine.buffer block f.Pfcore.Model.phi_src) (fun coords comp ->
        let x = float_of_int (coords.(0) + off.(0)) -. 2.5 in
        let y = float_of_int (coords.(1) + off.(1)) -. 2.5 in
        if (x *. x) +. (y *. y) < r *. r then inside.(comp) else outside.(comp))
  end
  else begin
    let base =
      match p.Pfcore.Params.family with
      | Pfcore.Params.Solidification -> 1. /. float_of_int p.Pfcore.Params.n_phases
      | Pfcore.Params.Pfc _ -> 0.3
      | Pfcore.Params.Gray_scott _ -> 0.5
    in
    let seed = c.Gen.seed in
    smooth block f.Pfcore.Model.phi_src ~seed ~slot:3 ~base ~amp:0.01;
    if Pfcore.Params.n_mu p > 0 then
      smooth block f.Pfcore.Model.mu_src ~seed ~slot:23
        ~base:(if c.Gen.family = Gen.Eutectic then 0.02 else 0.1)
        ~amp:0.01
  end

let global (c : Gen.case) = Array.map2 ( * ) c.Gen.dims c.Gen.exec.Gen.grid

(* The adaptive forest's blocks per axis: a 4-rank grid's, else twice the
   rank grid's (2x2, 4x2 or 2x4 blocks).  Its blocks are balanced over 1
   to 4 ranks, drawn apart from the grid by the seed's two low bits (3
   ranks split the initial unit weights unevenly), at least 2 when a rank
   crashes. *)
let adaptive_bgrid (c : Gen.case) =
  let e = c.Gen.exec in
  if Gen.ranks e >= 4 then e.Gen.grid else Array.map (( * ) 2) e.Gen.grid

let adaptive_ranks (c : Gen.case) =
  let n = 1 + (c.Gen.seed land 3) in
  if c.Gen.faults.Gen.crash = None then n else max 2 n

(** The case's shapes: one block holding its global domain (or [dims]),
    the forest of its rank grid, and an adaptive forest of blocks of the
    same dims ({!adaptive_bgrid}, {!adaptive_ranks}). *)
let single ?dims (c : Gen.case) = Blocks.Run.One_block (Option.value dims ~default:(global c))

let forest (c : Gen.case) =
  Blocks.Run.Rank_grid { grid = c.Gen.exec.Gen.grid; block_dims = c.Gen.dims }

let adaptive (c : Gen.case) =
  Blocks.Run.Adaptive_grid
    { bgrid = adaptive_bgrid c; block_dims = c.Gen.dims; ranks = adaptive_ranks c }

let adaptive_global (c : Gen.case) = Array.map2 ( * ) c.Gen.dims (adaptive_bgrid c)

let tile_of (e : Gen.exec) =
  if Array.for_all (( = ) 0) e.Gen.tile then None else Some e.Gen.tile

(* Every JIT program a case can run — each family's step kernels at every
   coefficient variant, full and split — built in one fan-out when the
   first case runs on the JIT: a compiler run per core, not per program. *)
let jit_programs =
  lazy
    (Vm.Engine.jit_prepare_kernels
       (List.concat_map
          (fun family ->
            List.concat_map
              (fun coef ->
                let gen = gen_of { (Gen.base family) with Gen.coef } in
                List.concat_map
                  (fun variant ->
                    let phi, projection, mu =
                      Pfcore.Timestep.step_kernels ~variant_phi:variant ~variant_mu:variant gen
                    in
                    phi @ Option.to_list projection @ mu)
                  [ Pfcore.Timestep.Full; Pfcore.Timestep.Split ])
              (if Gen.is_zoo family then [ 0; 1; 2 ] else [ 0 ]))
          Gen.families))

let backend_of (e : Gen.exec) =
  if e.Gen.jit then begin
    Lazy.force jit_programs;
    Vm.Engine.Jit
  end
  else Vm.Engine.Interp

(** The case's fault plan on [ranks] ranks (its crashing rank taken
    modulo them), or [None] when it injects nothing. *)
let fault_plan ~ranks (c : Gen.case) =
  let f = c.Gen.faults in
  if f.Gen.drop > 0. || f.Gen.delay > 0. || f.Gen.duplicate > 0. || f.Gen.crash <> None then
    Some
      {
        Blocks.Faultplan.seed = f.Gen.plan_seed;
        drop = f.Gen.drop;
        delay = f.Gen.delay;
        duplicate = f.Gen.duplicate;
        max_delay = 3;
        crash = Option.map (fun (r, k) -> (r mod ranks, k)) f.Gen.crash;
      }
  else None

(** The case's run of [shape], initialized ({!init}) and primed.
    [exec] (default: the reference executor) executes it; with
    [~faults:true] the case's fault plan acts on a forest's messages, the
    priming exchange's included. *)
let build ?gen ?sharp ?exec ?(faults = false) shape (c : Gen.case) =
  let gen = match gen with Some g -> g | None -> gen_of c in
  let e = match exec with Some e -> e | None -> Gen.reference c.Gen.exec in
  let variant = if c.Gen.split then Pfcore.Timestep.Split else Pfcore.Timestep.Full in
  Blocks.Run.create ~variant_phi:variant ~variant_mu:variant ~num_domains:e.Gen.domains
    ?tile:(tile_of e) ~backend:(backend_of e) ~overlap:e.Gen.overlap
    ?faults:(if faults then fault_plan ~ranks:(Blocks.Run.ranks shape) c else None)
    ~init:(init ?sharp c) shape gen

(** The one block of the case's global domain, initialized and primed. *)
let sim_of c = List.hd (Blocks.Run.sims (build (single c) c))

let no_crash (c : Gen.case) = { c with Gen.faults = { c.Gen.faults with Gen.crash = None } }

(* The case with a crash: its own, or the seed's rank dying entering step 1. *)
let with_crash (c : Gen.case) =
  match c.Gen.faults.Gen.crash with
  | Some _ -> c
  | None ->
    {
      c with
      Gen.faults =
        { c.Gen.faults with Gen.crash = Some (c.Gen.seed mod Gen.ranks c.Gen.exec, 1) };
      steps = max c.Gen.steps 2;
    }

let ran r ~steps =
  Blocks.Run.run r ~steps;
  r

(** Set every buffer of a block to NaN: destinations, staggered scratch,
    src ghosts and interiors alike.  A restore writes the src interiors
    and re-primes their ghosts, and a step writes every other value before
    it reads it, so a target poisoned before its restore must still
    continue bitwise. *)
let poison (sim : Pfcore.Timestep.t) =
  List.iter
    (fun (_, buf) -> Vm.Buffer.fill buf Float.nan)
    sim.Pfcore.Timestep.block.Vm.Engine.buffers

(** Run [r] the case's steps; a forest whose case crashes a rank runs
    under the recovery driver, every rollback restoring into poisoned
    storage, and must have restarted. *)
let advance r (c : Gen.case) =
  match (Blocks.Run.comm r, c.Gen.faults.Gen.crash) with
  | Some comm, Some _ ->
    let stats =
      Resilience.Recovery.protect ~every:c.Gen.faults.Gen.ckpt_every ~steps:c.Gen.steps
        ~step_count:(fun () -> Blocks.Run.step_count r)
        ~step:(fun () -> Blocks.Run.step r)
        ~capture:(fun () -> Resilience.Snapshot.capture_run r)
        ~restore:(fun snap ->
          List.iter poison (Blocks.Run.sims r);
          Resilience.Snapshot.restore_run snap r)
        comm
    in
    stats.Resilience.Recovery.restarts >= 1
  | _ ->
    Blocks.Run.run r ~steps:c.Gen.steps;
    true

(** Two runs of one global domain agree in the interiors of [fields]
    (default: the state fields, φ and μ), by global coordinates. *)
let runs_agree ?cmp ?fields a b =
  let fields =
    match fields with Some fl -> fl | None -> Pfcore.Timestep.state_fields (Blocks.Run.gen a)
  in
  let value r f c g = Blocks.Run.get r f ~component:c g in
  agree ?cmp ~fields ~dims:(Blocks.Run.global_dims a) (value a) (value b)

(* The padded data of each block's buffers: every buffer, or with
   [~scratch:false] the state fields and their destinations. *)
let buffer_data ?(scratch = true) (sims : Pfcore.Timestep.t list) =
  List.map
    (fun (sim : Pfcore.Timestep.t) ->
      let fields =
        if scratch then List.map fst sim.Pfcore.Timestep.block.Vm.Engine.buffers
        else
          let g = sim.Pfcore.Timestep.gen in
          let f = g.Pfcore.Genkernels.fields in
          if Pfcore.Params.n_mu g.Pfcore.Genkernels.params > 0 then
            [ f.Pfcore.Model.phi_src; f.phi_dst; f.mu_src; f.mu_dst ]
          else [ f.Pfcore.Model.phi_src; f.phi_dst ]
      in
      List.map (fun f -> (Vm.Engine.buffer sim.Pfcore.Timestep.block f).Vm.Buffer.data) fields)
    sims

let data_equal =
  List.equal
    (List.equal (fun x y ->
         Array.length x = Array.length y
         &&
         let ok = ref true in
         Array.iteri (fun i v -> if not (bits_equal v y.(i)) then ok := false) x;
         !ok))

(** Two runs' blocks, paired in order, hold the same bits in every padded
    buffer: ghosts, destinations and staggered scratch included.  This
    holds for runs that differ only in how they got there (faults healed,
    a rollback into the run's own storage): a step rewrites what it reads.
    With [~scratch:false] only the state fields and their destinations
    count, ghosts included — for a run restored or resumed into other
    storage and stepped since, whose scratch no step writes (the outer
    ghosts of a staggered field) keeps that storage's NaN or zeros, while
    a destination holds the previous state with its primed ghosts. *)
let buffers_bitwise_equal ?scratch a b = data_equal (buffer_data ?scratch a) (buffer_data ?scratch b)

(** The same state, and the same bits in the state and destination
    buffers, ghosts included. *)
let same_state a b =
  Resilience.Snapshot.equal (Resilience.Snapshot.capture_run a) (Resilience.Snapshot.capture_run b)
  && buffers_bitwise_equal ~scratch:false (Blocks.Run.sims a) (Blocks.Run.sims b)

(* ------------------------------------------------------------------ *)
(* The model-level oracles: relations between two runs of a case       *)
(* ------------------------------------------------------------------ *)

(* Oracle 1: per-term simplification and global CSE are value-preserving
   on the generated models.  One step at the default coefficients: the
   unoptimized kernels are several times bigger, so only one per family
   is generated. *)
let opt_vs_raw (c : Gen.case) =
  let c = { c with Gen.coef = 0; steps = 1 } in
  runs_agree ~cmp:tolerant
    (ran (build (single c) c) ~steps:1)
    (ran (build ~gen:(gen_of ~raw:true c) (single c) c) ~steps:1)

(* Oracle 2: the engine's sweep of the generated φ kernel — lowered,
   hoisted, on the case's backend, pool width and tile — against the
   per-cell [Eval] sweep of its body. *)
let engine_vs_eval (c : Gen.case) =
  let c = { c with Gen.split = false } and e = c.Gen.exec in
  let engine = sim_of c and evaled = sim_of c in
  let gen = engine.Pfcore.Timestep.gen in
  let phi = gen.Pfcore.Genkernels.phi_full in
  let params = Pfcore.Timestep.runtime_params engine in
  Vm.Engine.run ~num_domains:e.Gen.domains ?tile:(tile_of e) ~backend:(backend_of e)
    ~step:c.Gen.seed ~params
    (Vm.Engine.bind phi engine.Pfcore.Timestep.block);
  eval_sweep ~step:c.Gen.seed ~params phi.Ir.Kernel.body evaled.Pfcore.Timestep.block;
  agree ~cmp:engine_close
    ~fields:[ gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_dst ]
    ~dims:(global c)
    (block_value engine.Pfcore.Timestep.block)
    (block_value evaled.Pfcore.Timestep.block)

(* Oracle 3: the split variants evaluate different, algebraically equal
   trees. *)
let full_vs_split_variant (c : Gen.case) =
  runs_agree ~cmp:tolerant
    (ran (build (single c) { c with Gen.split = false }) ~steps:c.Gen.steps)
    (ran (build (single c) { c with Gen.split = true }) ~steps:c.Gen.steps)

(* Oracles 7 and 8 (and 4's pool width): the case's executor, on the
   interpreter or the JIT, against the serial interpreted reference, in
   every buffer: ghosts, destinations and staggered scratch included. *)
let executor_invisible ~jit (c : Gen.case) =
  buffers_bitwise_equal
    (Blocks.Run.sims (ran (build (single c) c) ~steps:c.Gen.steps))
    (Blocks.Run.sims (ran (build ~exec:{ c.Gen.exec with Gen.jit } (single c) c) ~steps:c.Gen.steps))

(* Oracle 5: the forest of the case's rank grid, on its executor and
   under its healing faults, against one block. *)
let single_vs_forest (c : Gen.case) =
  let c = no_crash c in
  let f = build ~exec:c.Gen.exec ~faults:true (forest c) c in
  advance f c && runs_agree (ran (build (single c) c) ~steps:c.Gen.steps) f

(* Oracle 6 and the adaptive snapshot leg: capture → encode → decode →
   restore into a target of the same shape but another seed, on the
   case's executor, every buffer NaN, is the identity on the stored state
   (the src interiors), and the target then continues bitwise with the
   original — which a restore that left a src ghost unprimed, or a step
   that read scratch before writing it, would break. *)
let roundtrip ?sharp shape (c : Gen.case) =
  let shape = shape c in
  let orig = ran (build ?sharp shape c) ~steps:c.Gen.steps in
  let target = build ?sharp ~exec:c.Gen.exec shape { c with Gen.seed = c.Gen.seed + 1 } in
  let snap = Resilience.Snapshot.capture_run orig in
  let decoded = Resilience.Snapshot.decode (Resilience.Snapshot.encode snap) in
  Resilience.Snapshot.equal snap decoded
  && begin
    List.iter poison (Blocks.Run.sims target);
    Resilience.Snapshot.restore_run decoded target;
    Resilience.Snapshot.equal snap (Resilience.Snapshot.capture_run target)
  end
  && begin
    Blocks.Run.run orig ~steps:c.Gen.steps;
    Blocks.Run.run target ~steps:c.Gen.steps;
    same_state orig target
  end

let snapshot_roundtrip c = roundtrip single c && roundtrip forest c

(* Any single flipped byte in the encoded stream must be rejected by the
   CRC (or the structural validation), never silently accepted. *)
let snapshot_corruption (c : Gen.case) =
  let encoded = Resilience.Snapshot.encode (Resilience.Snapshot.capture_run (build (forest c) c)) in
  let pos = c.Gen.seed mod String.length encoded in
  let b = Bytes.of_string encoded in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  match Resilience.Snapshot.decode (Bytes.to_string b) with
  | _ -> false
  | exception Resilience.Snapshot.Invalid _ -> true

(* Oracle 6 and the adaptive crash leg: crash a rank, roll back to the
   last checkpoint into poisoned storage, replay — on the case's
   executor, under its drop/delay/duplicate plan, whose priming and
   replay messages run through the same plan — and end bitwise where the
   undisturbed reference run ends (refinement schedule included). *)
let crash_restart ?sharp shape (c : Gen.case) =
  let c = with_crash c in
  let shape = shape c in
  let faulty = build ?sharp ~exec:c.Gen.exec ~faults:true shape c in
  advance faulty c && same_state (ran (build ?sharp shape c) ~steps:c.Gen.steps) faulty

(* Every counter of a substrate: traffic, deliveries, what the fault plan
   did and what healing it took, the virtual clock and the restarts. *)
let counters (m : Blocks.Mpisim.t) =
  Blocks.Mpisim.
    [
      m.messages_sent; m.bytes_sent; m.delivered; m.retransmissions; m.dropped; m.duplicated;
      m.delayed_count; m.stale_discarded; m.clock; m.restarts;
    ]

(* Oracle 10 (paper §7): hiding the φ_dst exchange behind the μ interior
   sweep is purely a scheduling transformation, on any executor and
   under any fault plan, healed in place or rolled back: the overlapped
   run ends bitwise where the fault-free sequential reference does, and
   the sequential run under the same plan consumed the same message
   stream, so every substrate counter matches ([Blocks.Lockstep.drain]). *)
let overlapped_vs_sequential (c : Gen.case) =
  let faulty overlap = build ~exec:{ c.Gen.exec with Gen.overlap } ~faults:true (forest c) c in
  let subject = faulty true and sequential = faulty false in
  advance subject c && advance sequential c
  && runs_agree (ran (build (forest c) c) ~steps:c.Gen.steps) subject
  && runs_agree sequential subject
  && Option.map counters (Blocks.Run.comm sequential) = Option.map counters (Blocks.Run.comm subject)

(* Oracle 5's adaptive leg: freezing bulk blocks to constants, refining
   around the interface, Morton rebalancing and servicing frozen
   exchanges with constant slabs are semantics-free, on any executor and
   under healing faults — and the reduction, frozen blocks' constants
   included, is bitwise the uniform block's. *)
let adaptive_vs_uniform (c : Gen.case) =
  let c = no_crash c in
  let uniform = ran (build ~sharp:true (single ~dims:(adaptive_global c) c) c) ~steps:c.Gen.steps in
  let af = build ~sharp:true ~exec:c.Gen.exec ~faults:true (adaptive c) c in
  advance af c && runs_agree uniform af
  && bits_equal (Blocks.Run.interface_cells uniform) (Blocks.Run.interface_cells af)

(* ------------------------------------------------------------------ *)
(* Oracle 11: exact reductions vs. the serial single-tile reference    *)
(* ------------------------------------------------------------------ *)

(* The seed picks the operation and the cell function.  The custom cell
   function reads *global* coordinates only, so every executor sees the
   same per-cell value; its Philox-keyed NaN holes exercise the
   NaN-skipping min/max across partial boundaries.  Component 1 falls
   back to 0 on one-component fields. *)
let reduction (c : Gen.case) (phi : Fieldspec.t) =
  let op = [| Vm.Reduce.Sum; Vm.Reduce.Min; Vm.Reduce.Max |].(c.Gen.seed mod 3) in
  let gd = global c in
  let cellfn =
    match c.Gen.seed / 3 mod 4 with
    | 0 -> Vm.Reduce.Component 0
    | 1 -> Vm.Reduce.Component (min 1 (phi.Fieldspec.components - 1))
    | 2 -> Vm.Reduce.Interface
    | _ ->
      Vm.Reduce.Custom
        (fun g ->
          let cell = ref 0 in
          for d = Array.length gd - 1 downto 0 do
            cell := (!cell * gd.(d)) + g.(d)
          done;
          let u = Philox.symmetric ~cell:!cell ~step:c.Gen.seed ~slot:11 in
          if u > 0.6 then Float.nan else u)
  in
  (op, cellfn)

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

(* A reduction is a function of the field values alone: the serial
   single-tile reference — a sum equal to the independent exact sum of
   the same cells — is reproduced bitwise by a pooled, tiled sweep of the
   same block and by the case's forest merging per-rank partials over the
   fixed rank tree, on its executor, with drop/delay/duplicate healing
   invisibly on the reduction channels.  The state reduced is the one
   after [steps - 1] steps (the initial condition included), and a
   quarter of the cases reduce a one-rank forest (the rank tree's
   trivial merge). *)
let reduce_vs_serial (c : Gen.case) =
  let c = no_crash c in
  let c =
    if c.Gen.seed / 12 mod 4 = 0 then
      { c with Gen.exec = { c.Gen.exec with Gen.grid = Array.map (fun _ -> 1) c.Gen.exec.Gen.grid } }
    else c
  in
  let e = c.Gen.exec and steps = c.Gen.steps - 1 in
  let single = sim_of c in
  Pfcore.Timestep.run single ~steps;
  let block = single.Pfcore.Timestep.block in
  let phi = single.Pfcore.Timestep.gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_src in
  let op, cellfn = reduction c phi in
  let reference = Vm.Reduce.scalar ~num_domains:1 block phi cellfn op in
  let pooled = Vm.Reduce.scalar ~num_domains:e.Gen.domains ~tile:e.Gen.tile block phi cellfn op in
  let f = ran (build ~exec:e ~faults:true (forest c) c) ~steps in
  (op <> Vm.Reduce.Sum || bits_equal reference (Fsum.sum (cell_values block phi cellfn)))
  && bits_equal reference pooled
  && bits_equal reference
       (Blocks.Run.scalar ~num_domains:e.Gen.domains ~tile:e.Gen.tile f phi cellfn op)

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

(** The farm = solo check of oracle 9, [pfgen serve --verify] and the
    serve suite.  Pass [on_finish] to [Serve.Scheduler.run]: it keeps a
    copy of each finished job's state and destination buffers, ghosts
    included.  [diverged], called after the farm has run, runs each job
    once alone ([Serve.Scheduler.solo_exec]: serial, interpreted, no
    faults) and lists the results whose buffers or final state are not
    the solo run's. *)
type solo_check = {
  on_finish : Serve.Workload.spec -> Pfcore.Timestep.t list -> unit;
  diverged : Serve.Scheduler.job_result list -> Serve.Scheduler.job_result list;
}

let solo_check () =
  let farm : (int, float array list list) Hashtbl.t = Hashtbl.create 16 in
  let on_finish (spec : Serve.Workload.spec) sims =
    Hashtbl.replace farm spec.Serve.Workload.id
      (List.map (List.map Array.copy) (buffer_data ~scratch:false sims))
  in
  let diverged =
    List.filter (fun (r : Serve.Scheduler.job_result) ->
        let spec = r.Serve.Scheduler.r_spec in
        match Hashtbl.find_opt farm spec.Serve.Workload.id with
        | Some blocks ->
          let solo = Serve.Scheduler.solo_exec spec in
          not
            (data_equal blocks (buffer_data ~scratch:false (Blocks.Run.sims solo))
            && Resilience.Snapshot.equal r.Serve.Scheduler.final
                 (Resilience.Snapshot.capture_run solo))
        | None -> true)
  in
  { on_finish; diverged }

(* The farm scheduler multiplexes jobs over the shared pool with pooled
   (recycled) buffers, arbitrary quantum slicing, snapshot preemption and
   injected rank crashes — and none of it may be observable in the
   results.  The workload keeps to the cheap 2D families (curvature plus
   the mu-less zoo models); the full mix including eutectic and the 3D
   families is exercised by `pfgen serve --soak`. *)
let farm_vs_solo ~count =
  QCheck.Test.make ~name:"oracle9: farm-scheduled job = solo run (bitwise)" ~count
    Gen.arb_farm
    (fun s ->
      let specs =
        Serve.Workload.generate
          ~families:[ Serve.Workload.Curv2d; Serve.Workload.Pfc; Serve.Workload.GrayScott ]
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
      let check = solo_check () in
      let stats =
        Serve.Scheduler.run ~config ~on_finish:check.on_finish ~mempool:(Serve.Mempool.create ())
          specs
      in
      stats.Serve.Scheduler.rejected = []
      && List.length stats.Serve.Scheduler.results = List.length specs
      && check.diverged stats.Serve.Scheduler.results = [])

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

(* The check over a family's actual density at the case's coefficients
   (of order eps*gamma for eutectic), probing one phase component at one
   cell.  The commutation error analysis above scales with the
   coefficients, hence the wider flat budget. *)
let family_ad_fd (c : Gen.case) ~comp ~cell =
  let p = Gen.params c in
  let f = Pfcore.Model.make_fields p in
  let density =
    Expr.subst
      [ (Pfcore.Model.t_loc, Expr.num 0.47) ]
      (Pfcore.Model.family_density (Pfcore.Model.make_ctx ~symbolic:false) p f)
  in
  let bindings = Pfcore.Genkernels.guard_bindings in
  let comp = comp mod p.Pfcore.Params.n_phases and cell = cell mod o12_cells in
  let wrt = Pfcore.Model.phi_at ~component:comp f.Pfcore.Model.phi_src in
  let scheme = Fd.Discretize.create ~dx:(Expr.num 1.) ~dim:2 () in
  let state = o12_state ~seed:c.Gen.seed in
  let arr = state (f.Pfcore.Model.phi_src.Fieldspec.name, comp) in
  let fd = o12_fd ~state ~bindings (Fd.Discretize.discretize scheme density) ~arr ~cell in
  let ad =
    o12_ad ~state ~bindings density ~wrt ~x:(cell mod o12_dims.(0)) ~y:(cell / o12_dims.(0))
  in
  let dev = Float.abs (ad -. fd) in
  (dev, dev <= 0.05 +. (0.02 *. (Float.abs ad +. Float.abs fd)))

let family_ad_vs_fd (c : Gen.case) = snd (family_ad_fd c ~comp:c.Gen.seed ~cell:c.Gen.seed)

(** Worst observed |AD − FD| deviation of [family] (at the preset
    coefficients) over every phase component and a spread of probe cells —
    the per-family check of the energy suite, held to the oracle's budget.
    Returns [(max_deviation, within_budget)]. *)
let o12_family_deviation family ~seed =
  let c = { (Gen.base family) with Gen.seed } in
  let worst = ref 0. and ok = ref true in
  for comp = 0 to (Gen.params c).Pfcore.Params.n_phases - 1 do
    List.iter
      (fun cell ->
        let dev, within = family_ad_fd c ~comp ~cell in
        worst := Float.max !worst dev;
        ok := !ok && within)
      [ 0; 17; 53; 91; 118 ]
  done;
  (!worst, !ok)

(* ------------------------------------------------------------------ *)
(* The harness's test list                                             *)
(* ------------------------------------------------------------------ *)

(** One model-level oracle: its [key] (the oracle number, then the leg),
    the claim its tests are named by, the families it applies to, and one
    sample per [per] of the base count (at least one). *)
type relation = {
  key : string;
  claim : string;
  families : Gen.family list;
  per : int;
  holds : Gen.case -> bool;
}

(* Curvature and Gray–Scott are the families whose kernels are
   position-independent, which is what entitles the adaptive forest to
   freeze their bulk blocks; P1, P2 and eutectic read a temperature
   gradient, and PFC's smooth bulk is no exact fixed point.  The
   overlapped exchange hides the φ_dst exchange behind the μ sweep, so
   only the families with μ (P1, P2, eutectic) have anything to overlap.
   The unoptimized P1 and P2 kernels (3D, no CSE) cost seconds per sweep,
   and oracle 12's probe grid is 2D, so oracles 1 and 12 leave out the 3D
   families. *)
let relations =
  let open Gen in
  let all = families and plane = [ Curvature; Eutectic; Pfc; Gray_scott ] in
  let freezable = [ Curvature; Gray_scott ] and with_mu = [ P1; P2; Eutectic ] in
  [
    { key = "1"; claim = "optimized kernels = unoptimized kernels (tolerance)";
      families = plane; per = 5; holds = opt_vs_raw };
    { key = "2"; claim = "engine phi sweep = Eval interpreter";
      families = all; per = 5; holds = engine_vs_eval };
    { key = "3"; claim = "full = split variant (tolerance)";
      families = all; per = 5; holds = full_vs_split_variant };
    { key = "5"; claim = "single block = Mpisim forest (bitwise)";
      families = all; per = 10; holds = single_vs_forest };
    { key = "5 adaptive"; claim = "adaptive forest = uniform fine grid (bitwise)";
      families = freezable; per = 10; holds = adaptive_vs_uniform };
    { key = "5 adaptive snapshot";
      claim = "adaptive snapshot encode/decode/restore = identity (bitwise)";
      families = freezable; per = 10; holds = roundtrip ~sharp:true adaptive };
    { key = "5 adaptive crash";
      claim = "adaptive crash + rollback + replay = undisturbed run (bitwise)";
      families = freezable; per = 10; holds = crash_restart ~sharp:true adaptive };
    { key = "6 snapshot"; claim = "snapshot encode/decode/restore = identity (bitwise)";
      families = all; per = 10; holds = snapshot_roundtrip };
    { key = "6 corrupted"; claim = "corrupted snapshot is rejected by checksum";
      families = all; per = 5; holds = snapshot_corruption };
    { key = "6 crash"; claim = "crash + rollback + replay = undisturbed run (bitwise)";
      families = all; per = 10; holds = crash_restart forest };
    { key = "7"; claim = "pooled tiled sweep = serial sweep (bitwise)";
      families = all; per = 10; holds = executor_invisible ~jit:false };
    { key = "8"; claim = "jit backend = interpreter (bitwise)";
      families = all; per = 10; holds = executor_invisible ~jit:true };
    { key = "10"; claim = "overlapped exchange = sequential exchange (bitwise)";
      families = with_mu; per = 10; holds = overlapped_vs_sequential };
    { key = "11"; claim = "pooled/tiled/forest reduction = serial reference (bitwise)";
      families = all; per = 10; holds = reduce_vs_serial };
    { key = "12"; claim = "family density, Varder = finite differences";
      families = plane; per = 5; holds = family_ad_vs_fd };
  ]

let samples ~count r = max 1 (count / r.per)

(** Every oracle × family cell of the model-level battery, with its
    sample count at base count [count]. *)
let cells ~count =
  List.concat_map
    (fun r -> List.map (fun f -> (r.key, f, samples ~count r)) r.families)
    relations

(* A leg's test name: the oracle number, the family group (the zoo
   families keep their [zoo] label, so test names stay stable), the claim
   and the family. *)
let relation_test ~count r family =
  let number = List.hd (String.split_on_char ' ' r.key) in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "oracle%s%s: %s [%s]" number
         (if Gen.is_zoo family then " zoo" else "")
         r.claim (Gen.family_name family))
    ~count:(samples ~count r) (Gen.arb_case family) r.holds

(** All oracle tests.  [count] is the base sample count; cheap scalar
    oracles run more samples, whole-model oracles fewer. *)
let all ~count =
  simplify_tests ~count:(2 * count)
  @ [
      engine_vs_interp ~count;
      full_vs_split ~count;
      serial_vs_domains ~count:(max 3 (count / 2));
      fast_tier_vs_interp ~count:(max 1 (count / 10));
      farm_vs_solo ~count:(max 2 (count / 8));
      ad_vs_fd ~count;
    ]
  @ List.concat_map (fun r -> List.map (relation_test ~count r) r.families) relations
  @ Obs_props.tests ~count
