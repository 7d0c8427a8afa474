(* pfgen — command-line front end of the code-generation pipeline.

   Mirrors how the paper's toolchain is driven: pick a model instance,
   generate optimized kernels, emit C/CUDA, query the performance model, or
   run a simulation.

     pfgen gen-c --model p1 -o kernels.c
     pfgen gen-cuda --model p2 --approx
     pfgen table1 --model p1
     pfgen perf --model p1 --cores 24
     pfgen simulate --model curvature --size 64 --steps 200
     pfgen registers --model p1 *)

open Cmdliner

let model_conv =
  let parse = function
    | "p1" -> Ok (Pfcore.Params.p1 ())
    | "p2" -> Ok (Pfcore.Params.p2 ())
    | "p2-2d" -> Ok (Pfcore.Params.p2 ~dim:2 ())
    | "curvature" -> Ok (Pfcore.Params.curvature ~dim:2 ())
    | "curvature-3d" -> Ok (Pfcore.Params.curvature ~dim:3 ())
    | "eutectic" -> Ok (Pfcore.Params.eutectic ())
    | "eutectic-3d" -> Ok (Pfcore.Params.eutectic ~dim:3 ())
    | "pfc" -> Ok (Pfcore.Params.pfc ())
    | "gray-scott" -> Ok (Pfcore.Params.gray_scott ())
    | s ->
      Error
        (`Msg
          ("unknown model " ^ s
         ^ " (p1, p2, p2-2d, curvature, curvature-3d, eutectic, eutectic-3d, pfc, gray-scott)"))
  in
  let print ppf (p : Pfcore.Params.t) = Fmt.string ppf p.Pfcore.Params.name in
  Arg.conv (parse, print)

let model_arg =
  Arg.(value & opt model_conv (Pfcore.Params.p1 ()) & info [ "model"; "m" ] ~doc:"Model instance: p1, p2, p2-2d, curvature, curvature-3d, eutectic, eutectic-3d, pfc, gray-scott.")

let symbolic_arg =
  Arg.(value & flag & info [ "symbolic" ] ~doc:"Keep material parameters as runtime kernel arguments instead of freezing them at generation time.")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file (stdout if omitted).")

let generate params symbolic =
  let opts = { Pfcore.Genkernels.default_options with symbolic_params = symbolic } in
  Pfcore.Genkernels.generate ~opts params

let kernels_of (g : Pfcore.Genkernels.t) =
  [ g.phi_full; g.phi_split.Pfcore.Genkernels.stag; g.phi_split.Pfcore.Genkernels.main ]
  @ (match g.mu_full with Some k -> [ k ] | None -> [])
  @ (match g.mu_split with
    | Some p -> [ p.Pfcore.Genkernels.stag; p.Pfcore.Genkernels.main ]
    | None -> [])
  @ Option.to_list g.projection

let write output text =
  match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Fmt.pr "wrote %s (%d bytes)@." path (String.length text)

(* ---- gen-c ---- *)

let gen_c params symbolic simd output =
  let g = generate params symbolic in
  let lowered = List.map Ir.Lower.run (kernels_of g) in
  let text =
    match simd with
    | None -> Backend.Ccode.translation_unit lowered
    | Some "avx512" -> Backend.Simd.translation_unit ~isa:Backend.Simd.AVX512 lowered
    | Some "avx2" -> Backend.Simd.translation_unit ~isa:Backend.Simd.AVX2 lowered
    | Some "sse2" -> Backend.Simd.translation_unit ~isa:Backend.Simd.SSE2 lowered
    | Some other -> failwith ("unknown ISA " ^ other)
  in
  write output text

let simd_arg =
  Arg.(value & opt (some string) None & info [ "simd" ] ~doc:"Vectorize with intrinsics: avx512, avx2 or sse2 (default: scalar OpenMP C).")

let gen_c_cmd =
  Cmd.v
    (Cmd.info "gen-c" ~doc:"Emit the generated C kernels (OpenMP, optionally SIMD intrinsics).")
    Term.(const gen_c $ model_arg $ symbolic_arg $ simd_arg $ output_arg)

(* ---- gen-cuda ---- *)

let gen_cuda params symbolic approx fence output =
  let g = generate params symbolic in
  let approx =
    if approx then { Backend.Cexpr.fast_div = true; fast_rsqrt = true } else Backend.Cexpr.exact
  in
  write output (Backend.Cuda.translation_unit ~approx ?fence_stride:fence (kernels_of g))

let approx_arg =
  Arg.(value & flag & info [ "approx" ] ~doc:"Use approximate division and reciprocal square roots (fdividef/frsqrt).")

let fence_arg =
  Arg.(value & opt (some int) None & info [ "fence" ] ~doc:"Insert __threadfence_block() every N statements.")

let gen_cuda_cmd =
  Cmd.v
    (Cmd.info "gen-cuda" ~doc:"Emit the generated CUDA kernels.")
    Term.(const gen_cuda $ model_arg $ symbolic_arg $ approx_arg $ fence_arg $ output_arg)

(* ---- table1 ---- *)

let table1 params symbolic =
  let g = generate params symbolic in
  let show name k =
    Fmt.pr "%-14s %a@." name Field.Opcount.pp (Pfcore.Genkernels.counts k)
  in
  show "phi-full" g.phi_full;
  show "phi-split/stag" g.phi_split.Pfcore.Genkernels.stag;
  show "phi-split/main" g.phi_split.Pfcore.Genkernels.main;
  (match g.mu_full with Some k -> show "mu-full" k | None -> ());
  (match g.mu_split with
  | Some p ->
    show "mu-split/stag" p.Pfcore.Genkernels.stag;
    show "mu-split/main" p.Pfcore.Genkernels.main
  | None -> ());
  Fmt.pr "@.stencils: phi reads phi %s"
    (Ir.Kernel.stencil_signature g.phi_full g.Pfcore.Genkernels.fields.Pfcore.Model.phi_src);
  (match g.mu_full with
  | Some mu ->
    Fmt.pr ", mu reads phi %s, mu %s"
      (Ir.Kernel.stencil_signature mu g.Pfcore.Genkernels.fields.Pfcore.Model.phi_src)
      (Ir.Kernel.stencil_signature mu g.Pfcore.Genkernels.fields.Pfcore.Model.mu_src)
  | None -> ());
  Fmt.pr "@."

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Print per-cell operation counts of all kernel variants (paper Table 1).")
    Term.(const table1 $ model_arg $ symbolic_arg)

(* ---- perf ---- *)

let perf params cores block_n =
  let g = generate params false in
  let m = Perfmodel.Machine.skylake_8174 in
  let report k =
    let p = Perfmodel.Ecm.predict m k ~block_n in
    Fmt.pr "%-14s %a@." k.Ir.Kernel.name Perfmodel.Ecm.pp p;
    Fmt.pr "%-14s 1 core: %.1f MLUP/s; %d cores: %.1f MLUP/s; saturates at %d cores@." ""
      (Perfmodel.Ecm.single_core_mlups m p)
      cores
      (Perfmodel.Ecm.multicore_mlups m p ~cores)
      (Perfmodel.Ecm.saturation_cores m p)
  in
  List.iter report (kernels_of g);
  Fmt.pr "@.%a@." Perfmodel.Layercond.pp_report (g.phi_full, m.Perfmodel.Machine.l2_bytes)

let cores_arg = Arg.(value & opt int 24 & info [ "cores" ] ~doc:"Active cores per socket.")
let block_arg = Arg.(value & opt int 60 & info [ "block" ] ~doc:"Cubic block edge length.")

let perf_cmd =
  Cmd.v
    (Cmd.info "perf" ~doc:"ECM performance model report for every kernel (Kerncraft workflow).")
    Term.(const perf $ model_arg $ cores_arg $ block_arg)

(* ---- registers ---- *)

let registers params =
  let g = generate params false in
  let dev = Gpumodel.Device.p100 in
  List.iter
    (fun (k : Ir.Kernel.t) ->
      let outcomes = Gpumodel.Evotune.tune ~generations:3 ~population:8 dev k.Ir.Kernel.body in
      let best = List.hd outcomes in
      let baseline = List.find (fun o -> o.Gpumodel.Evotune.genome = []) outcomes in
      Fmt.pr "%-14s baseline %d regs %.2f ns/LUP -> tuned [%s] %d regs %.2f ns/LUP@."
        k.Ir.Kernel.name baseline.Gpumodel.Evotune.registers.Gpumodel.Transforms.nvcc
        baseline.Gpumodel.Evotune.time_ns
        (String.concat "; " (List.map Gpumodel.Transforms.name best.Gpumodel.Evotune.genome))
        best.Gpumodel.Evotune.registers.Gpumodel.Transforms.nvcc best.Gpumodel.Evotune.time_ns)
    (kernels_of g)

let registers_cmd =
  Cmd.v
    (Cmd.info "registers" ~doc:"GPU register-pressure analysis and evolutionary transformation tuning.")
    Term.(const registers $ model_arg)

(* ---- simulate ---- *)

let variant_of split = if split then Pfcore.Timestep.Split else Pfcore.Timestep.Full

let init_single _params sim = Pfcore.Simulation.init_model sim

let decomposition ~dim ~size ~ranks =
  if size mod ranks <> 0 then failwith "size must be divisible by ranks";
  let grid = Array.init dim (fun d -> if d = 0 then ranks else 1) in
  let block_dims = Array.init dim (fun d -> if d = 0 then size / ranks else size) in
  (grid, block_dims)

let build_forest ?num_domains ?tile ?backend ?overlap ~split ~grid ~block_dims g =
  let forest =
    Blocks.Forest.create ~variant_phi:(variant_of split) ?num_domains ?tile ?backend
      ?overlap ~grid ~block_dims g
  in
  Array.iter Pfcore.Simulation.init_model forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  forest

let build_single ?num_domains ?tile ?backend ~split ~dims params g =
  let sim =
    Pfcore.Timestep.create ~variant_phi:(variant_of split) ?num_domains ?tile ?backend ~dims g
  in
  init_single params sim;
  Pfcore.Timestep.prime sim;
  sim

(* Bitwise comparison of two readers of the state (a forest's, an
   adaptive forest's or a single block's [get]) over all global interior
   cells: every component of φ_src and, when the model has μ, of μ_src —
   what a snapshot holds.  Returns the number of differing (field, cell,
   component)s. *)
let state_mismatches (g : Pfcore.Genkernels.t) ~global_dims a b =
  let dim = Array.length global_dims in
  let bad = ref 0 in
  let coords = Array.make dim 0 in
  let rec walk field d =
    if d = dim then
      for c = 0 to field.Symbolic.Fieldspec.components - 1 do
        let x = a field ~component:c coords and y = b field ~component:c coords in
        if not (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) then incr bad
      done
    else
      for i = 0 to global_dims.(d) - 1 do
        coords.(d) <- i;
        walk field (d + 1)
      done
  in
  List.iter (fun field -> walk field 0) (Pfcore.Timestep.state_fields g);
  !bad

let single_get (sim : Pfcore.Timestep.t) f ~component coords =
  Vm.Buffer.get (Vm.Engine.buffer sim.Pfcore.Timestep.block f) ~component coords

let build_adaptive ?num_domains ?tile ?backend ~overlap ~split ~ranks ~bgrid ~block_dims
    params g =
  let af =
    Blocks.Adaptive.create ~variant_phi:(variant_of split) ?num_domains ?tile ?backend
      ~overlap ~ranks ~bgrid ~block_dims g
  in
  List.iter (init_single params) (Blocks.Adaptive.active_sims af);
  Blocks.Adaptive.prime af;
  af

(* Every diagnostic below is an exact reduction (a sum rounded once), so
   the printed numbers are bitwise reproducible across domain counts,
   tile shapes, backends and rank decompositions. *)
let print_diag ~interface ~fraction ~mn ~mx =
  Fmt.pr "diag: interface cells %.0f (fraction %.6f), phi[0] min %.17g max %.17g@."
    interface fraction mn mx

(* The same diagnostics over a forest's block set (uniform or adaptive). *)
let print_blocks_diag ?backend ?num_domains ?tile (b : Blocks.Lockstep.t) phi =
  let extremum op =
    Blocks.Lockstep.scalar ?backend ?num_domains ?tile b phi (Vm.Reduce.Component 0) op
  in
  print_diag
    ~interface:(Blocks.Lockstep.interface_cells ?backend ?num_domains ?tile b)
    ~fraction:(Blocks.Lockstep.interface_fraction ?backend ?num_domains ?tile b)
    ~mn:(extremum Vm.Reduce.Min) ~mx:(extremum Vm.Reduce.Max)

(* The crash-protected run of [--crash-at k]: a chaos fault plan that
   crashes a rank entering step k, then [protect] (the rollback driver);
   prints the plan and what the recovery and the substrate healed. *)
let run_faulty ~comm ~crash_at ~fault_seed protect =
  let plan = Blocks.Faultplan.chaos ~seed:fault_seed ~crash_step:crash_at () in
  Blocks.Mpisim.set_fault_plan comm (Some plan);
  Fmt.pr "fault plan: %a@." Blocks.Faultplan.pp plan;
  let stats = protect () in
  Fmt.pr
    "recovery: %d checkpoint(s), %d restart(s), %d step(s) replayed; substrate healed %d \
     retransmission(s), %d dropped, %d duplicated, %d delayed@."
    stats.Resilience.Recovery.checkpoints stats.Resilience.Recovery.restarts
    stats.Resilience.Recovery.replayed_steps comm.Blocks.Mpisim.retransmissions
    comm.Blocks.Mpisim.dropped comm.Blocks.Mpisim.duplicated comm.Blocks.Mpisim.delayed_count

let print_fractions fractions =
  Fmt.pr "phase fractions: %a@." Fmt.(array ~sep:(any " ") (fmt "%.4f")) fractions

(* The tier each JIT program ran on: the ISA, scalar C, or why it fell
   back to the interpreter. *)
let print_jit_tiers () =
  List.iter
    (fun (tier, n) -> Fmt.pr "jit tier: %s (%d program%s)@." tier n (if n = 1 then "" else "s"))
    (Vm.Jit.tiers ())

let simulate params size steps ranks split overlap domains tile backend crash_at ckpt_every
    fault_seed adaptive diag trace metrics_out =
  let g = generate params false in
  let phi = g.Pfcore.Genkernels.fields.Pfcore.Model.phi_src in
  let dim = params.Pfcore.Params.dim in
  if overlap && ranks <= 1 then failwith "--overlap requires --ranks > 1";
  let observing = trace <> None || metrics_out <> None in
  if observing then begin
    (* arm the observability sink before any block is built so priming
       exchanges and the first checkpoint are on the trace too *)
    Obs.Metrics.reset ();
    Obs.Sink.clear ();
    Obs.Sink.enable ()
  end;
  let t0 = Unix.gettimeofday () in
  let fractions =
    if adaptive then begin
      if size mod 6 <> 0 || size < 12 then
        failwith "--adaptive requires --size a multiple of 6, at least 12";
      if crash_at <> None && ranks <= 1 then failwith "--crash-at requires --ranks > 1";
      let bgrid = Array.make dim (size / 6) in
      let block_dims = Array.make dim 6 in
      let af =
        build_adaptive ?num_domains:domains ?tile ?backend ~overlap ~split ~ranks ~bgrid
          ~block_dims params g
      in
      (match crash_at with
      | None -> Blocks.Adaptive.run af ~steps
      | Some k ->
        (* checkpoints hold the refinement state too, and replayed
           adaptation decisions are pure functions of it *)
        let comm = af.Blocks.Adaptive.comm in
        run_faulty ~comm ~crash_at:k ~fault_seed (fun () ->
            Resilience.Recovery.protect ~every:ckpt_every ~steps
              ~step_count:(fun () -> Blocks.Adaptive.step_count af)
              ~step:(fun () -> Blocks.Adaptive.step af)
              ~capture:(fun () -> Resilience.Snapshot.capture_adaptive af)
              ~restore:(fun snap -> Resilience.Snapshot.restore_adaptive snap af)
              comm));
      (* the adaptive run is always verified bitwise against the uniform
         fine-grid run — coarsening must never change a single bit *)
      let uni =
        build_single ?num_domains:domains ?tile ?backend ~split ~dims:(Array.make dim size)
          params g
      in
      Pfcore.Timestep.run uni ~steps;
      let bad =
        state_mismatches g ~global_dims:af.Blocks.Adaptive.global_dims (Blocks.Adaptive.get af)
          (single_get uni)
      in
      if bad = 0 then Fmt.pr "verification: adaptive forest = uniform fine grid (bitwise)@."
      else begin
        Fmt.epr "verification FAILED: %d cell value(s) differ from the uniform run@." bad;
        exit 1
      end;
      Fmt.pr
        "adaptive: %d/%d block(s) frozen, %d freeze(s), %d thaw(s), %d migration(s), \
         cells-touched savings %.2fx@."
        (Blocks.Adaptive.frozen_blocks af)
        (Blocks.Adaptive.nblocks af)
        af.Blocks.Adaptive.freezes af.Blocks.Adaptive.thaws af.Blocks.Adaptive.migrations
        (Blocks.Adaptive.savings af);
      if diag then
        print_blocks_diag ?backend ?num_domains:domains ?tile af.Blocks.Adaptive.blocks phi;
      Blocks.Adaptive.phase_fractions ?backend ?num_domains:domains ?tile af
    end
    else if ranks > 1 then begin
      let grid, block_dims = decomposition ~dim ~size ~ranks in
      let forest =
        build_forest ?num_domains:domains ?tile ?backend ~overlap ~split ~grid ~block_dims g
      in
      (match crash_at with
      | None -> Blocks.Forest.run forest ~steps
      | Some k ->
        (* fault-injected run under crash protection, verified bitwise
           against an undisturbed twin *)
        run_faulty ~comm:forest.Blocks.Forest.comm ~crash_at:k ~fault_seed (fun () ->
            Resilience.Recovery.run_protected ~every:ckpt_every ~steps forest);
        let clean = build_forest ~split ~grid ~block_dims g in
        Blocks.Forest.run clean ~steps;
        let bad =
          state_mismatches g ~global_dims:forest.Blocks.Forest.global_dims
            (Blocks.Forest.get forest) (Blocks.Forest.get clean)
        in
        if bad = 0 then Fmt.pr "verification: protected run = clean run (bitwise)@."
        else begin
          Fmt.epr "verification FAILED: %d cell value(s) differ from the clean run@." bad;
          exit 1
        end);
      if diag then
        print_blocks_diag ?backend ?num_domains:domains ?tile forest.Blocks.Forest.blocks phi;
      Blocks.Reduce.phase_fractions ?backend ?num_domains:domains ?tile forest
    end
    else begin
      if crash_at <> None then failwith "--crash-at requires --ranks > 1";
      let sim =
        build_single ?num_domains:domains ?tile ?backend ~split ~dims:(Array.make dim size)
          params g
      in
      Pfcore.Timestep.run sim ~steps;
      if diag then
        print_diag
          ~interface:(Pfcore.Diag.interface_cells ?backend ?num_domains:domains ?tile sim)
          ~fraction:(Pfcore.Diag.interface_fraction ?backend ?num_domains:domains ?tile sim)
          ~mn:(Pfcore.Diag.min_value ?backend ?num_domains:domains ?tile sim phi ~component:0)
          ~mx:(Pfcore.Diag.max_value ?backend ?num_domains:domains ?tile sim phi ~component:0);
      Pfcore.Diag.phase_fractions ?backend ?num_domains:domains ?tile sim
    end
  in
  let dt = Unix.gettimeofday () -. t0 in
  if observing then begin
    Obs.Sink.disable ();
    (match trace with
    | Some path ->
      let evs = Obs.Sink.events () in
      Obs.Trace.save path evs;
      Fmt.pr "wrote Chrome trace to %s (%d events)@." path (List.length evs)
    | None -> ());
    match metrics_out with
    | Some path ->
      Obs.Report.save path (Obs.Metrics.snapshot ());
      Fmt.pr "wrote metrics report to %s@." path
    | None -> ()
  end;
  let cells = float_of_int (int_of_float (float_of_int size ** float_of_int dim)) in
  let backend_name =
    Vm.Engine.backend_label
      (match backend with Some b -> b | None -> Vm.Engine.default_backend ())
  in
  Fmt.pr
    "%d steps of %s on %d^%d (%d rank%s%s, %s phi kernel, %s backend) in %.2f s = %.3f \
     MLUP/s@."
    steps params.Pfcore.Params.name size dim ranks
    (if ranks > 1 then "s" else "")
    (if overlap then ", overlapped exchange" else "")
    (if split then "split" else "full")
    backend_name dt
    (cells *. float_of_int steps /. dt /. 1e6);
  print_fractions fractions;
  print_jit_tiers ()

let tile_conv =
  let parse s =
    try Ok (Vm.Schedule.shape_of_string s) with Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Vm.Schedule.pp_shape)

let domains_arg =
  Arg.(value & opt (some int) None & info [ "domains" ] ~doc:"Run every kernel sweep on $(docv) OCaml domains through the persistent pool (default: \\$PFGEN_DOMAINS or 1; pooled results are bitwise identical to serial)." ~docv:"N")

let tile_arg =
  Arg.(value & opt (some tile_conv) None & info [ "tile" ] ~doc:"Cache-blocking tile shape per loop depth, e.g. 8x4 (2D) or 16x8x* (3D; * or 0 = full extent at that depth). Default: one slab per domain along the outer loop." ~docv:"AxB")

let backend_conv =
  let parse s =
    match Vm.Engine.backend_of_string s with
    | Some b -> Ok b
    | None -> Error (`Msg ("unknown backend " ^ s ^ " (interp, jit)"))
  in
  let print ppf b = Fmt.string ppf (Vm.Engine.backend_label b) in
  Arg.conv (parse, print)

let backend_arg =
  Arg.(value & opt (some backend_conv) None & info [ "backend" ] ~doc:"VM execution backend: interp (reference interpreter) or jit (the generated C kernels, built with gcc once per kernel program, bitwise identical; without gcc it falls back to the interpreter and says why). Default: \\$PFGEN_VM_BACKEND or interp." ~docv:"BACKEND")

let size_arg = Arg.(value & opt int 32 & info [ "size" ] ~doc:"Domain edge length in cells.")
let steps_arg = Arg.(value & opt int 50 & info [ "steps" ] ~doc:"Time steps to run.")
let ranks_arg = Arg.(value & opt int 1 & info [ "ranks" ] ~doc:"Simulated MPI ranks (1D decomposition).")
let split_arg = Arg.(value & flag & info [ "split" ] ~doc:"Use the split (staggered-precompute) phi kernel variant.")

let overlap_arg =
  Arg.(value & flag & info [ "overlap" ] ~doc:"Overlap the phi_dst ghost exchange with the mu interior sweep (IR-derived inner/outer kernel split; bitwise identical to the sequential exchange). Requires --ranks > 1.")

let crash_arg =
  Arg.(value & opt (some int) None & info [ "crash-at" ] ~doc:"Inject faults (drop/delay/duplicate) and crash a rank entering step $(docv); the run recovers by rollback and is verified bitwise against an undisturbed twin. Requires --ranks > 1." ~docv:"K")

let ckpt_every_arg =
  Arg.(value & opt int 5 & info [ "checkpoint-every" ] ~doc:"Checkpoint cadence (steps) for the crash-protected run.")

let fault_seed_arg =
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~doc:"Seed of the deterministic fault plan.")

let adaptive_arg =
  Arg.(value & flag & info [ "adaptive" ] ~doc:"Run on the interface-adaptive block forest (6-cell blocks, Morton-balanced over the ranks): fully-bulk blocks freeze to per-field constants, interface blocks stay resolved, and the result is verified bitwise against the uniform fine-grid run. Requires --size a multiple of 6.")

let diag_arg =
  Arg.(value & flag & info [ "diag" ] ~doc:"Print deterministic diagnostics (interface-cell count and fraction, min/max of phase component 0) computed by exact, order-free reductions: bitwise reproducible across domain counts, tile shapes, backends and rank decompositions.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc:"Record spans (kernel sweeps, ghost exchanges, checkpoints) and write a Chrome trace-event JSON to $(docv): one lane per simulated rank, one track per OCaml domain. Open in about://tracing or Perfetto." ~docv:"FILE")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc:"Write the metrics report (per-kernel cells and timing histograms, network counters, checkpoint stats) to $(docv): JSON when the name ends in .json, aligned text otherwise." ~docv:"FILE")

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a simulation with the generated kernels (optionally on simulated MPI ranks, optionally under fault injection with crash recovery, optionally recording a trace and metrics).")
    Term.(const simulate $ model_arg $ size_arg $ steps_arg $ ranks_arg $ split_arg
          $ overlap_arg $ domains_arg $ tile_arg $ backend_arg $ crash_arg
          $ ckpt_every_arg $ fault_seed_arg $ adaptive_arg $ diag_arg $ trace_arg
          $ metrics_arg)

(* ---- checkpoint / resume ---- *)

let checkpoint params size steps ranks split output =
  let g = generate params false in
  let dim = params.Pfcore.Params.dim in
  let snap =
    if ranks > 1 then begin
      let grid, block_dims = decomposition ~dim ~size ~ranks in
      let forest = build_forest ~split ~grid ~block_dims g in
      Blocks.Forest.run forest ~steps;
      Resilience.Snapshot.capture forest
    end
    else begin
      let sim = build_single ~split ~dims:(Array.make dim size) params g in
      Pfcore.Timestep.run sim ~steps;
      Resilience.Snapshot.capture_single sim
    end
  in
  let bytes = Resilience.Snapshot.save output snap in
  Fmt.pr "wrote %a to %s (%d bytes)@." Resilience.Snapshot.pp snap output bytes

let snap_out_arg =
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~doc:"Snapshot file to write." ~docv:"FILE")

let checkpoint_cmd =
  Cmd.v
    (Cmd.info "checkpoint" ~doc:"Run a simulation and write a versioned, checksummed snapshot of its state (the interiors of phi_src and, when the model has mu, mu_src; step index; model fingerprint). Resuming re-primes the ghost layers.")
    Term.(const checkpoint $ model_arg $ size_arg $ steps_arg $ ranks_arg $ split_arg
          $ snap_out_arg)

let verify_resumed bad =
  if bad = 0 then Fmt.pr "verification: resumed run = uninterrupted run (bitwise)@."
  else begin
    Fmt.epr "verification FAILED: %d cell value(s) differ@." bad;
    exit 1
  end

(* A snapshot that cannot be read or restored ends the command with one
   line and exit 1, like a wrong --model. *)
let or_refuse f =
  try f ()
  with Resilience.Snapshot.Invalid msg ->
    Fmt.epr "resume: %s@." msg;
    exit 1

let resume params input steps verify =
  let g = generate params false in
  let snap = or_refuse (fun () -> Resilience.Snapshot.load input) in
  Fmt.pr "loaded %a from %s@." Resilience.Snapshot.pp snap input;
  (* validate the model before building any block: resuming under the
     wrong --model must fail cleanly, not crash mid-construction *)
  let fp = Resilience.Snapshot.fingerprint_of_params params in
  if fp <> snap.Resilience.Snapshot.fingerprint then begin
    Fmt.epr
      "resume: snapshot was taken with a different model (fingerprint %08x, --model \
       %s has %08x)@."
      snap.Resilience.Snapshot.fingerprint params.Pfcore.Params.name fp;
    exit 1
  end;
  let ranks = Array.fold_left ( * ) 1 snap.Resilience.Snapshot.grid in
  let split = snap.Resilience.Snapshot.split_phi in
  let size = snap.Resilience.Snapshot.global_dims.(0) in
  let dim = Array.length snap.Resilience.Snapshot.global_dims in
  let fractions =
    if ranks > 1 then begin
      let forest =
        Blocks.Forest.create ~variant_phi:(variant_of split)
          ~variant_mu:(variant_of snap.Resilience.Snapshot.split_mu)
          ~grid:snap.Resilience.Snapshot.grid
          ~block_dims:snap.Resilience.Snapshot.block_dims g
      in
      or_refuse (fun () -> Resilience.Snapshot.restore snap forest);
      Blocks.Forest.run forest ~steps;
      if verify then begin
        (* rerun from the same initial conditions without interruption and
           demand bitwise agreement *)
        let clean =
          build_forest ~split ~grid:snap.Resilience.Snapshot.grid
            ~block_dims:snap.Resilience.Snapshot.block_dims g
        in
        Blocks.Forest.run clean ~steps:(snap.Resilience.Snapshot.step + steps);
        verify_resumed
          (state_mismatches g ~global_dims:forest.Blocks.Forest.global_dims
             (Blocks.Forest.get forest) (Blocks.Forest.get clean))
      end;
      Blocks.Reduce.phase_fractions forest
    end
    else begin
      let sim =
        Pfcore.Timestep.create ~variant_phi:(variant_of split)
          ~variant_mu:(variant_of snap.Resilience.Snapshot.split_mu)
          ~dims:snap.Resilience.Snapshot.block_dims g
      in
      or_refuse (fun () -> Resilience.Snapshot.restore_single snap sim);
      Pfcore.Timestep.run sim ~steps;
      if verify then begin
        let clean = build_single ~split ~dims:snap.Resilience.Snapshot.block_dims params g in
        Pfcore.Timestep.run clean ~steps:(snap.Resilience.Snapshot.step + steps);
        verify_resumed
          (state_mismatches g ~global_dims:snap.Resilience.Snapshot.global_dims
             (single_get sim) (single_get clean))
      end;
      Pfcore.Diag.phase_fractions sim
    end
  in
  Fmt.pr "%d more steps of %s on %d^%d (%d rank%s) from step %d@." steps
    params.Pfcore.Params.name size dim ranks
    (if ranks > 1 then "s" else "")
    snap.Resilience.Snapshot.step;
  print_fractions fractions

let snap_in_arg =
  Arg.(required & opt (some string) None & info [ "i"; "input" ] ~doc:"Snapshot file to resume from." ~docv:"FILE")

let verify_arg =
  Arg.(value & flag & info [ "verify" ] ~doc:"Also rerun from scratch without interruption and require bitwise agreement with the resumed run.")

let resume_cmd =
  Cmd.v
    (Cmd.info "resume" ~doc:"Resume a simulation from a snapshot written by 'pfgen checkpoint' (topology and kernel variants are reconstructed from the snapshot; the model fingerprint is validated). With --verify, proves the restart is bitwise exact.")
    Term.(const resume $ model_arg $ snap_in_arg $ steps_arg $ verify_arg)

(* ---- drift ---- *)

let drift n sweeps check_flag json =
  let r = Check.Drift.run ~n ~sweeps () in
  Fmt.pr "%a" Check.Drift.pp r;
  (match json with
  | Some path -> write (Some path) (Check.Drift.to_json r)
  | None -> ());
  if check_flag then
    match Check.Drift.verdict r with
    | Ok () ->
      Fmt.pr "drift check: OK (max deviation %.2f <= threshold %.2f)@."
        (Check.Drift.max_deviation r) Check.Drift.threshold
    | Error msg ->
      Fmt.epr "drift check FAILED: %s@." msg;
      exit 1

let drift_size_arg =
  Arg.(value & opt int 12 & info [ "size" ] ~doc:"Cubic block edge length for the measurement sweeps.")

let drift_sweeps_arg =
  Arg.(value & opt int 2 & info [ "sweeps" ] ~doc:"Timed sweeps per repetition (the median of 9 repetitions is kept).")

let drift_check_arg =
  Arg.(value & flag & info [ "check" ] ~doc:"Exit nonzero when any measured/model ratio deviates beyond the documented threshold or the mu split/full ordering disagrees with the model.")

let drift_json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~doc:"Also write the full report as JSON to $(docv)." ~docv:"FILE")

let drift_cmd =
  Cmd.v
    (Cmd.info "drift"
       ~doc:"ECM drift oracle: execute all eight P1/P2 kernel variants (phi/mu, full/split) in the VM, compare measured per-cell cost ratios against the ECM performance-model predictions, and report the deviation of each ratio pair. With --check, enforces the documented drift threshold and the mu split <= full ordering.")
    Term.(const drift $ drift_size_arg $ drift_sweeps_arg $ drift_check_arg $ drift_json_arg)

(* ---- tune ---- *)

let choice_json (c : Vm.Tune.choice) =
  let assoc l =
    String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %.6g" k v) l)
  in
  Printf.sprintf
    "{\n\
    \      \"variant\": %S,\n\
    \      \"tile\": %S,\n\
    \      \"backend\": %S,\n\
    \      \"fingerprint\": \"%08x\",\n\
    \      \"predicted_cy_per_lup\": { %s },\n\
    \      \"measured_ns_per_lup\": { %s },\n\
    \      \"backend_ns_per_lup\": { %s },\n\
    \      \"cachesim_bytes_per_lup\": %.6g\n\
    \    }"
    c.Vm.Tune.variant_label
    (Fmt.str "%a" Vm.Tune.pp_tile c.Vm.Tune.tile)
    (Vm.Engine.backend_label c.Vm.Tune.backend)
    c.Vm.Tune.fingerprint (assoc c.Vm.Tune.predicted_cy) (assoc c.Vm.Tune.measured_ns)
    (assoc c.Vm.Tune.backend_ns)
    c.Vm.Tune.cachesim_bytes_per_lup

let tune_json (params : Pfcore.Params.t) (plan : Pfcore.Timestep.plan) =
  let families =
    ("phi", plan.Pfcore.Timestep.phi)
    :: (match plan.Pfcore.Timestep.mu with Some m -> [ ("mu", m) ] | None -> [])
  in
  Printf.sprintf
    "{\n\
    \  \"model\": %S,\n\
    \  \"domains\": %d,\n\
    \  \"tile\": %S,\n\
    \  \"backend\": %S,\n\
    \  \"families\": {\n\
     %s\n\
    \  }\n\
     }\n"
    params.Pfcore.Params.name plan.Pfcore.Timestep.plan_domains
    (Fmt.str "%a" Vm.Tune.pp_tile plan.Pfcore.Timestep.plan_tile)
    (Vm.Engine.backend_label plan.Pfcore.Timestep.plan_backend)
    (String.concat ",\n"
       (List.map (fun (k, c) -> Printf.sprintf "    %S: %s" k (choice_json c)) families))

let tune params domains probe_n check_flag json =
  let g = generate params false in
  let domains =
    match domains with Some d -> d | None -> Vm.Pool.default_domains ()
  in
  let plan = Pfcore.Timestep.autotune ~domains ~probe_n g in
  Fmt.pr "model %s, tuned for %d domain(s), %d^%d probe block, %s backend@."
    params.Pfcore.Params.name domains probe_n params.Pfcore.Params.dim
    (Vm.Engine.backend_label plan.Pfcore.Timestep.plan_backend);
  Fmt.pr "@.phi family:@.%a@." Vm.Tune.pp_choice plan.Pfcore.Timestep.phi;
  (match plan.Pfcore.Timestep.mu with
  | Some m -> Fmt.pr "mu family:@.%a@." Vm.Tune.pp_choice m
  | None -> ());
  (match json with Some path -> write (Some path) (tune_json params plan) | None -> ());
  if check_flag then begin
    (* 1. the decision cache: re-tuning the same model must not re-probe *)
    let hits0, misses0 = Vm.Tune.cache_stats () in
    let plan' = Pfcore.Timestep.autotune ~domains ~probe_n g in
    let hits1, misses1 = Vm.Tune.cache_stats () in
    if misses1 <> misses0 || hits1 <= hits0 then begin
      Fmt.epr "tune check FAILED: repeated autotune missed the decision cache@.";
      exit 1
    end;
    if plan'.Pfcore.Timestep.phi.Vm.Tune.fingerprint
       <> plan.Pfcore.Timestep.phi.Vm.Tune.fingerprint
    then begin
      Fmt.epr "tune check FAILED: cached decision differs from the original@.";
      exit 1
    end;
    (* 2. the plan's pooled tiled execution is bitwise identical to a serial
       run of the same kernel variants *)
    let dims = Array.make params.Pfcore.Params.dim 8 in
    let run mk =
      let sim = mk () in
      Pfcore.Simulation.init_smooth sim;
      Pfcore.Timestep.run sim ~steps:2;
      sim
    in
    let serial =
      run (fun () ->
          Pfcore.Timestep.create
            ~variant_phi:(Pfcore.Timestep.variant_of_choice plan.Pfcore.Timestep.phi)
            ?variant_mu:
              (Option.map Pfcore.Timestep.variant_of_choice plan.Pfcore.Timestep.mu)
            ~num_domains:1 ~dims g)
    in
    let tuned = run (fun () -> Pfcore.Timestep.create_tuned ~plan ~dims g) in
    let bad = ref 0 in
    List.iter2
      (fun (_, (x : Vm.Buffer.t)) (_, (y : Vm.Buffer.t)) ->
        Array.iteri
          (fun i v ->
            if
              not
                (Int64.equal (Int64.bits_of_float v)
                   (Int64.bits_of_float y.Vm.Buffer.data.(i)))
            then incr bad)
          x.Vm.Buffer.data)
      serial.Pfcore.Timestep.block.Vm.Engine.buffers
      tuned.Pfcore.Timestep.block.Vm.Engine.buffers;
    if !bad <> 0 then begin
      Fmt.epr "tune check FAILED: tuned run diverges from serial in %d element(s)@." !bad;
      exit 1
    end;
    Fmt.pr
      "tune check: OK (decision cached; tuned plan at %d domain(s) = serial, bitwise)@."
      plan.Pfcore.Timestep.plan_domains
  end

let tune_domains_arg =
  Arg.(value & opt (some int) None & info [ "domains" ] ~doc:"Pool width to tune for (default: \\$PFGEN_DOMAINS or 1); part of the cache fingerprint." ~docv:"N")

let probe_size_arg =
  Arg.(value & opt int 10 & info [ "probe-size" ] ~doc:"Edge length of the cubic probe block used for measured probes.")

let tune_check_arg =
  Arg.(value & flag & info [ "check" ] ~doc:"Verify the tuner: a repeated run must hit the decision cache, and the tuned pooled plan must reproduce a serial run bitwise. Exits nonzero on failure.")

let tune_json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~doc:"Also write the full decision report (variants, tiles, ECM predictions, measured probes, cache-simulator traffic) as JSON to $(docv)." ~docv:"FILE")

let tune_cmd =
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Autotune kernel execution for this machine: choose full vs. split per kernel family and a cache-blocking tile shape by combining ECM model predictions, cache-simulator traffic and short measured probes. Decisions are cached per model fingerprint and reused by 'pfgen simulate' via Timestep.create_tuned.")
    Term.(const tune $ model_arg $ tune_domains_arg $ probe_size_arg $ tune_check_arg
          $ tune_json_arg)

(* ---- serve ---- *)

let serve jobs seed quantum active park_after budget_mb quota domains tune soak verify
    no_crash trace metrics_out =
  let jobs = if soak then max jobs 50 else jobs in
  let verify = verify || soak in
  let observing = trace <> None || metrics_out <> None in
  if observing then begin
    Obs.Metrics.reset ();
    Obs.Sink.clear ();
    Obs.Sink.enable ()
  end;
  let specs =
    Serve.Workload.generate ~with_crash:(not no_crash) ~seed ~jobs ()
  in
  let config =
    {
      Serve.Scheduler.quantum;
      max_active = active;
      budget_bytes = budget_mb * 1024 * 1024;
      tenant_quota = quota;
      park_after;
      num_domains = (match domains with Some d -> d | None -> Vm.Pool.default_domains ());
      autotune = tune;
      ckpt_every = 2;
    }
  in
  let mempool = Serve.Mempool.create () in
  let t0 = Unix.gettimeofday () in
  let stats = Serve.Scheduler.run ~config ~mempool specs in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter
    (fun ((spec : Serve.Workload.spec), reason) ->
      Fmt.pr "rejected: %a (%s)@." Serve.Workload.pp_spec spec reason)
    stats.Serve.Scheduler.rejected;
  List.iter
    (fun (r : Serve.Scheduler.job_result) ->
      Fmt.pr "done: %a | %d quantum(s), %d preemption(s), %d restart(s), %.1f ms@."
        Serve.Workload.pp_spec r.Serve.Scheduler.r_spec r.Serve.Scheduler.r_quanta
        r.Serve.Scheduler.r_preemptions r.Serve.Scheduler.r_restarts
        (r.Serve.Scheduler.latency_ns /. 1e6))
    stats.Serve.Scheduler.results;
  let n = List.length stats.Serve.Scheduler.results in
  let mp = stats.Serve.Scheduler.mempool in
  let hit_rate =
    let total = mp.Serve.Mempool.hits + mp.Serve.Mempool.misses in
    if total = 0 then 0. else float_of_int mp.Serve.Mempool.hits /. float_of_int total
  in
  let qs = stats.Serve.Scheduler.queue in
  Fmt.pr
    "farm: %d job(s) in %.2f s = %.1f jobs/s; %d preemption(s), %d crash restart(s); \
     queue parked %d (budget) + %d (quota), rejected %d@."
    n dt
    (float_of_int n /. dt)
    stats.Serve.Scheduler.preemptions stats.Serve.Scheduler.restarts
    qs.Serve.Queue.parked_budget qs.Serve.Queue.parked_quota qs.Serve.Queue.rejected;
  Fmt.pr "mempool: %.1f%% hit rate, %a@." (100. *. hit_rate) Serve.Mempool.pp_stats mp;
  print_jit_tiers ();
  if observing then begin
    Obs.Sink.disable ();
    (match trace with
    | Some path ->
      let evs = Obs.Sink.events () in
      Obs.Trace.save path evs;
      Fmt.pr "wrote Chrome trace to %s (%d events)@." path (List.length evs)
    | None -> ());
    match metrics_out with
    | Some path ->
      Obs.Report.save path (Obs.Metrics.snapshot ());
      Fmt.pr "wrote metrics report to %s@." path
    | None -> ()
  end;
  if verify then begin
    (* oracle 9 inline: every farm result must equal its solo run bitwise *)
    let bad =
      List.filter
        (fun (r : Serve.Scheduler.job_result) ->
          not
            (Resilience.Snapshot.equal r.Serve.Scheduler.final
               (Serve.Scheduler.run_solo r.Serve.Scheduler.r_spec)))
        stats.Serve.Scheduler.results
    in
    if bad = [] then
      Fmt.pr "verification: all %d farm result(s) = solo runs (bitwise)@." n
    else begin
      List.iter
        (fun (r : Serve.Scheduler.job_result) ->
          Fmt.epr "verification FAILED: %a diverges from its solo run@."
            Serve.Workload.pp_spec r.Serve.Scheduler.r_spec)
        bad;
      exit 1
    end
  end;
  if soak && n < 50 then begin
    Fmt.epr "soak FAILED: only %d of the required 50 job(s) completed@." n;
    exit 1
  end

let serve_jobs_arg =
  Arg.(value & opt int 12 & info [ "jobs" ] ~doc:"Workload size (forced to at least 50 by --soak).")

let serve_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload seed: the same seed replays the identical job mix.")

let quantum_arg =
  Arg.(value & opt int 2 & info [ "quantum" ] ~doc:"Timesteps per scheduler slice.")

let active_arg =
  Arg.(value & opt int 3 & info [ "active" ] ~doc:"Maximum resident (admitted) jobs.")

let park_after_arg =
  Arg.(value & opt int 3 & info [ "park-after" ] ~doc:"Preempt a job after $(docv) consecutive quanta: snapshot it, recycle its buffers, requeue it (0 disables preemption)." ~docv:"N")

let budget_mb_arg =
  Arg.(value & opt int 64 & info [ "budget-mb" ] ~doc:"Memory budget for admission control, in MiB of projected field-buffer bytes.")

let quota_arg =
  Arg.(value & opt int 2 & info [ "quota" ] ~doc:"Maximum resident jobs per tenant.")

let serve_tune_arg =
  Arg.(value & flag & info [ "tune" ] ~doc:"Take tile shapes from the shared Vm.Tune cache (probed once per model family, hit by every further job).")

let soak_arg =
  Arg.(value & flag & info [ "soak" ] ~doc:"Soak gate: run at least 50 mixed jobs with crash injection and verify every result bitwise against a solo run; exits nonzero on any divergence.")

let serve_verify_arg =
  Arg.(value & flag & info [ "verify" ] ~doc:"Verify every farm result bitwise against a solo rerun of the same job (implied by --soak).")

let no_crash_arg =
  Arg.(value & flag & info [ "no-crash" ] ~doc:"Generate the workload without fault-injected jobs.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a multi-tenant simulation farm: a priority job queue with tenant quotas and memory admission control feeds a cooperative round-robin scheduler that slices jobs into timestep quanta over the persistent domain pool, recycles field buffers through a size-class memory pool, shares the autotune cache across jobs, preempts long jobs via snapshots and survives injected rank crashes by rollback recovery.")
    Term.(const serve $ serve_jobs_arg $ serve_seed_arg $ quantum_arg $ active_arg
          $ park_after_arg $ budget_mb_arg $ quota_arg $ domains_arg $ serve_tune_arg
          $ soak_arg $ serve_verify_arg $ no_crash_arg $ trace_arg $ metrics_arg)

(* ---- check ---- *)

let check samples seed quiet =
  let code = Check.Harness.run ~verbose:(not quiet) ?seed ~samples () in
  if code <> 0 then exit 1

let samples_arg =
  Arg.(value & opt int 200 & info [ "samples"; "n" ] ~doc:"Base sample count per oracle (cheap oracles run more, whole-model oracles fewer).")

let seed_arg =
  Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"Fix the random seed for a reproducible run.")

let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print failures.")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Differential verification soak: fuzz random expressions, kernels and models through cross-layer oracle pairs (Eval vs. optimizer passes, Vm.Engine vs. interpreter, full vs. split kernels, serial vs. domains, 1 rank vs. 2x2 Mpisim ranks). Exits nonzero on divergence, reporting a minimized counterexample.")
    Term.(const check $ samples_arg $ seed_arg $ quiet_arg)

(* ---- main ---- *)

let () =
  let info =
    Cmd.info "pfgen" ~version:"1.0.0"
      ~doc:"Code generation for massively parallel phase-field simulations (SC'19 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_c_cmd;
            gen_cuda_cmd;
            table1_cmd;
            perf_cmd;
            registers_cmd;
            simulate_cmd;
            checkpoint_cmd;
            resume_cmd;
            drift_cmd;
            tune_cmd;
            serve_cmd;
            check_cmd;
          ]))
