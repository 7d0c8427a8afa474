(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5–§6).  Each artifact is one subcommand; running without
   arguments produces all of them.  Measured numbers come from executing the
   generated kernels in the VM on this machine; hierarchy/network/GPU curves
   are analytic-model projections (clearly labeled), since the original
   testbeds were SuperMUC-NG and Piz Daint.  EXPERIMENTS.md records the
   paper-vs-reproduction comparison for every row printed here.

     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- table1     # a single artifact
     dune exec bench/main.exe -- micro      # Bechamel kernel microbenchmarks *)

let section title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                            *)
(* ------------------------------------------------------------------ *)

(* Each artifact accumulates (key, value) metrics while printing its
   human-readable table; the dispatcher then writes them to
   BENCH_<artifact>.json so CI and the experiment log can consume the
   numbers without scraping stdout. *)
let metrics : (string * float) list ref = ref []

let metric key value = metrics := (key, value) :: !metrics

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

(* Provenance of a bench run: which commit, which compiler, how many
   cores.  Best-effort — outside a checkout the rev is "unknown". *)
let git_rev =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let line = try String.trim (input_line ic) with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

(* The shared provenance block of every BENCH_*.json artifact; one
   definition so a new artifact cannot drift from the established schema. *)
let meta_json () =
  Printf.sprintf
    "  \"meta\": {\n    \"git_rev\": %S,\n    \"ocaml_version\": %S,\n    \"domains\": %d\n  },\n"
    (Lazy.force git_rev) Sys.ocaml_version
    (Domain.recommended_domain_count ())

let write_bench_json target =
  let path = Printf.sprintf "BENCH_%s.json" target in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"target\": %S,\n" target;
  output_string oc (meta_json ());
  Printf.fprintf oc "  \"metrics\": {\n";
  let entries = List.rev !metrics in
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "    %S: %s%s\n" k (json_float v)
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Fmt.pr "[wrote %s: %d metric(s)]@." path (List.length entries)

let gen_p1 = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p1 ()))
let gen_p2 = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p2 ()))

let skl = Perfmodel.Machine.skylake_8174
let counts = Pfcore.Genkernels.counts

(* ------------------------------------------------------------------ *)
(* VM measurement helpers                                              *)
(* ------------------------------------------------------------------ *)

let bench_block (gen : Pfcore.Genkernels.t) ~dims =
  let block = Vm.Engine.make_block ~ghost:2 ~dims (Pfcore.Timestep.field_list gen) in
  let n = float_of_int gen.Pfcore.Genkernels.params.Pfcore.Params.n_phases in
  List.iter
    (fun (_, buf) ->
      Vm.Buffer.init buf (fun c comp ->
          (1. /. n) +. (0.01 *. sin (float_of_int ((c.(0) * 3) + (comp * 7)))));
      Vm.Buffer.periodic buf)
    block.Vm.Engine.buffers;
  block

let kernel_params (gen : Pfcore.Genkernels.t) =
  let p = gen.Pfcore.Genkernels.params in
  ("t", 0.) :: ("dx", p.Pfcore.Params.dx) :: ("dt", p.Pfcore.Params.dt)
  :: gen.Pfcore.Genkernels.bindings

(** Measured MLUP/s of one kernel sweep on this machine's VM. *)
let measure_kernel gen kernel ~dims ~sweeps =
  let block = bench_block gen ~dims in
  let bound = Vm.Engine.bind kernel block in
  let params = kernel_params gen in
  Vm.Engine.run ~params bound;
  let t0 = Unix.gettimeofday () in
  for step = 1 to sweeps do
    Vm.Engine.run ~step ~params bound
  done;
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int (Array.fold_left ( * ) 1 dims * sweeps) /. dt /. 1e6

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

type paper_row = { p_loads : string; p_stores : string; p_norm : int }

let paper_table1 = function
  | "P1", "mu-full" -> { p_loads = "112"; p_stores = "2"; p_norm = 2126 }
  | "P1", "mu-split" -> { p_loads = "84+22"; p_stores = "6+2"; p_norm = 1328 }
  | "P1", "phi-full" -> { p_loads = "30"; p_stores = "4"; p_norm = 1004 }
  | "P1", "phi-split" -> { p_loads = "16+54"; p_stores = "12+4"; p_norm = 818 }
  | "P2", "mu-full" -> { p_loads = "79"; p_stores = "1"; p_norm = 1177 }
  | "P2", "mu-split" -> { p_loads = "60+13"; p_stores = "3+1"; p_norm = 756 }
  | "P2", "phi-full" -> { p_loads = "58"; p_stores = "3"; p_norm = 3968 }
  | "P2", "phi-split" -> { p_loads = "48+40"; p_stores = "9+3"; p_norm = 2593 }
  | _ -> { p_loads = "?"; p_stores = "?"; p_norm = 0 }

let table1_row tag name (main : Field.Opcount.t) (stag : Field.Opcount.t option) =
  let paper = paper_table1 (tag, name) in
  let combined =
    match stag with
    | None -> main
    | Some st -> Field.Opcount.( ++ ) st main
  in
  let loads, stores =
    match stag with
    | None -> (string_of_int main.Field.Opcount.loads, string_of_int main.Field.Opcount.stores)
    | Some st ->
      ( Printf.sprintf "%d+%d" st.Field.Opcount.loads main.Field.Opcount.loads,
        Printf.sprintf "%d+%d" st.Field.Opcount.stores main.Field.Opcount.stores )
  in
  Fmt.pr "%-3s %-10s %10s %8s %6d %6d %6d %6d | %10s %8s %6d@." tag name loads stores
    combined.Field.Opcount.adds combined.Field.Opcount.muls combined.Field.Opcount.divs
    (Field.Opcount.normalized combined)
    paper.p_loads paper.p_stores paper.p_norm;
  let key =
    String.lowercase_ascii (String.map (function '-' -> '_' | c -> c) (tag ^ "_" ^ name))
  in
  metric (key ^ "_norm_flops") (float_of_int (Field.Opcount.normalized combined));
  metric (key ^ "_norm_flops_paper") (float_of_int paper.p_norm)

let table1 () =
  section "Table 1: per-cell operation counts (ours | paper)";
  Fmt.pr "%-3s %-10s %10s %8s %6s %6s %6s %6s | %10s %8s %6s@." "" "kernel" "loads" "stores"
    "adds" "muls" "divs" "norm" "loads" "stores" "norm";
  let emit tag (g : Pfcore.Genkernels.t) =
    (match (g.mu_full, g.mu_split) with
    | Some mf, Some ms ->
      table1_row tag "mu-full" (counts mf) None;
      table1_row tag "mu-split"
        (counts ms.Pfcore.Genkernels.main)
        (Some (counts ms.Pfcore.Genkernels.stag))
    | _ -> ());
    table1_row tag "phi-full" (counts g.phi_full) None;
    table1_row tag "phi-split"
      (counts g.phi_split.Pfcore.Genkernels.main)
      (Some (counts g.phi_split.Pfcore.Genkernels.stag))
  in
  emit "P1" (Lazy.force gen_p1);
  emit "P2" (Lazy.force gen_p2);
  let g1 = Lazy.force gen_p1 in
  let ms = Option.get g1.mu_split in
  let ours =
    Field.Opcount.normalized (counts ms.Pfcore.Genkernels.stag)
    + Field.Opcount.normalized (counts ms.Pfcore.Genkernels.main)
  in
  Fmt.pr
    "@.paper §5.1: the manually optimized mu kernel of [2] needed 1384 normalized FLOPs;@.";
  Fmt.pr "our automatically simplified mu-split kernel needs %d.@." ours;
  metric "p1_mu_split_vs_manual_1384" (float_of_int ours)

(* ------------------------------------------------------------------ *)
(* Figure 2 left & middle: ECM vs benchmark, variant selection         *)
(* ------------------------------------------------------------------ *)

let core_counts = [ 1; 4; 8; 12; 16; 20; 24 ]

let print_curve label per_core =
  Fmt.pr "%-22s" label;
  List.iter (fun (_, v) -> Fmt.pr " %7.2f" v) per_core;
  Fmt.pr "@."

let ecm_curve kernels =
  List.map
    (fun cores ->
      let inv =
        List.fold_left
          (fun acc k ->
            acc
            +. 1.
               /. Perfmodel.Ecm.multicore_mlups skl
                    (Perfmodel.Ecm.predict skl k ~block_n:60)
                    ~cores)
          0. kernels
      in
      (cores, 1. /. inv /. float_of_int cores))
    core_counts

let fig2_left () =
  section "Figure 2 (left): mu kernel variants on Skylake, MLUP/s per core";
  let g = Lazy.force gen_p1 in
  let mu_full = Option.get g.mu_full in
  let pair = Option.get g.mu_split in
  Fmt.pr "%-22s" "cores";
  List.iter (fun c -> Fmt.pr " %7d" c) core_counts;
  Fmt.pr "@.";
  print_curve "ECM mu-split (model)"
    (ecm_curve [ pair.Pfcore.Genkernels.stag; pair.Pfcore.Genkernels.main ]);
  print_curve "ECM mu-full  (model)" (ecm_curve [ mu_full ]);
  let p_stag = Perfmodel.Ecm.predict skl pair.Pfcore.Genkernels.stag ~block_n:60 in
  let p_full = Perfmodel.Ecm.predict skl mu_full ~block_n:60 in
  Fmt.pr "scalability limit (saturation cores): split %d, full %d (paper: 32 vs 83)@."
    (Perfmodel.Ecm.saturation_cores skl p_stag)
    (Perfmodel.Ecm.saturation_cores skl p_full);
  let dims = [| 24; 24; 24 |] in
  let m_full = measure_kernel g mu_full ~dims ~sweeps:3 in
  let m_stag = measure_kernel g pair.Pfcore.Genkernels.stag ~dims ~sweeps:3 in
  let m_main = measure_kernel g pair.Pfcore.Genkernels.main ~dims ~sweeps:3 in
  let m_split = 1. /. ((1. /. m_stag) +. (1. /. m_main)) in
  Fmt.pr "measured on this machine (VM, 1 core, %d^3): split %.2f, full %.2f MLUP/s@."
    dims.(0) m_split m_full;
  metric "measured_mu_split_mlups" m_split;
  metric "measured_mu_full_mlups" m_full;
  metric "measured_split_over_full" (m_split /. m_full);
  metric "saturation_cores_split"
    (float_of_int (Perfmodel.Ecm.saturation_cores skl p_stag));
  metric "saturation_cores_full"
    (float_of_int (Perfmodel.Ecm.saturation_cores skl p_full));
  Fmt.pr "shape check: measured split/full ratio %.2f (ECM predicts %.2f at 1 core)@."
    (m_split /. m_full)
    (snd (List.hd (ecm_curve [ pair.Pfcore.Genkernels.stag; pair.Pfcore.Genkernels.main ]))
    /. snd (List.hd (ecm_curve [ mu_full ])))

let fig2_middle () =
  section "Figure 2 (middle): phi kernel variants, P1 vs P2";
  let g1 = Lazy.force gen_p1 and g2 = Lazy.force gen_p2 in
  Fmt.pr "%-22s" "cores";
  List.iter (fun c -> Fmt.pr " %7d" c) core_counts;
  Fmt.pr "@.";
  print_curve "ECM P1 phi-full" (ecm_curve [ g1.phi_full ]);
  print_curve "ECM P1 phi-split"
    (ecm_curve [ g1.phi_split.Pfcore.Genkernels.stag; g1.phi_split.Pfcore.Genkernels.main ]);
  print_curve "ECM P2 phi-full" (ecm_curve [ g2.phi_full ]);
  print_curve "ECM P2 phi-split"
    (ecm_curve [ g2.phi_split.Pfcore.Genkernels.stag; g2.phi_split.Pfcore.Genkernels.main ]);
  let pick (g : Pfcore.Genkernels.t) =
    let idx, _ =
      Perfmodel.Ecm.select_variant skl ~block_n:60 ~cores:24
        [
          [ g.phi_full ];
          [ g.phi_split.Pfcore.Genkernels.stag; g.phi_split.Pfcore.Genkernels.main ];
        ]
    in
    if idx = 0 then "full" else "split"
  in
  Fmt.pr "model-selected phi variant at 24 cores: P1 -> %s, P2 -> %s (paper: full / split)@."
    (pick g1) (pick g2)

(* ------------------------------------------------------------------ *)
(* Figure 2 right: GPU register transformations                        *)
(* ------------------------------------------------------------------ *)

let fig2_right () =
  section "Figure 2 (right): GPU register-usage transformations (mu-full, P1)";
  let g = Lazy.force gen_p1 in
  let body = (Option.get g.mu_full).Ir.Kernel.body in
  let dev = Gpumodel.Device.p100 in
  let cells = 128. *. 128. *. 128. in
  let row label transforms =
    let result = Gpumodel.Transforms.apply transforms body in
    let regs = Gpumodel.Transforms.registers result in
    let ms = Gpumodel.Transforms.modeled_time dev result *. cells /. 1e6 in
    Fmt.pr "%-20s %10d %6d %11.1f@." label regs.Gpumodel.Transforms.analysis
      regs.Gpumodel.Transforms.nvcc ms
  in
  Fmt.pr "%-20s %10s %6s %11s@." "transformations" "analysis" "nvcc" "runtime ms";
  row "none" [];
  row "sched" [ Gpumodel.Transforms.Sched 20 ];
  row "dupl" [ Gpumodel.Transforms.Remat Gpumodel.Remat.default ];
  row "fence" [ Gpumodel.Transforms.Fence 32 ];
  row "dupl+sched+fence"
    [
      Gpumodel.Transforms.Remat Gpumodel.Remat.default;
      Gpumodel.Transforms.Sched 20;
      Gpumodel.Transforms.Fence 32;
    ];
  Fmt.pr "(registers = 2 x alive doubles + overhead; runtime from the P100 occupancy model)@.";
  let outcomes = Gpumodel.Evotune.tune ~generations:4 ~population:10 dev body in
  let best = List.hd outcomes in
  Fmt.pr "evolutionary tuner best sequence: [%s], %.1f ms@."
    (String.concat "; " (List.map Gpumodel.Transforms.name best.Gpumodel.Evotune.genome))
    (best.Gpumodel.Evotune.time_ns *. cells /. 1e6)

(* ------------------------------------------------------------------ *)
(* Table 2: GPU communication options                                  *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: communication options on 128 GPUs (Piz Daint model)";
  let block_dims = [| 400; 400; 400 |] in
  let c =
    Blocks.Gpucomm.costs Gpumodel.Device.p100 Blocks.Netmodel.piz_daint ~block_dims
      ~bytes_per_cell:152 ~flops_per_cell:3000 ~ranks:128
  in
  Fmt.pr "%-8s %-10s %14s | %s@." "overlap" "GPUDirect" "MLUP/s (model)" "paper";
  let paper =
    [ (false, false, 395); (false, true, 403); (true, false, 422); (true, true, 440) ]
  in
  List.iter
    (fun (ov, gd, ref_) ->
      let rate =
        Blocks.Gpucomm.mlups_per_gpu c
          { Blocks.Gpucomm.overlap = ov; gpudirect = gd }
          ~block_dims
      in
      metric
        (Printf.sprintf "mlups_overlap_%b_gpudirect_%b" ov gd)
        rate;
      Fmt.pr "%-8b %-10b %14.0f | %d@." ov gd rate ref_)
    paper;
  Fmt.pr "cost split: comp %.2f ms, pack %.2f ms, stage %.2f ms, net %.2f ms per step@."
    (c.Blocks.Gpucomm.t_comp_s *. 1e3)
    (c.Blocks.Gpucomm.t_pack_s *. 1e3)
    (c.Blocks.Gpucomm.t_stage_s *. 1e3)
    (c.Blocks.Gpucomm.t_net_s *. 1e3)

(* ------------------------------------------------------------------ *)
(* Figure 3: scaling                                                   *)
(* ------------------------------------------------------------------ *)

let cpu_cfg ~simd_width ~overlap =
  let machine =
    if simd_width = 8 then skl else Perfmodel.Machine.with_simd_width simd_width skl
  in
  let g = Lazy.force gen_p1 in
  let pair = Option.get g.mu_split in
  (* per-core rate of one full time step: pick the best kernel combination *)
  let _, step_rate =
    Perfmodel.Ecm.select_variant machine ~block_n:60 ~cores:24
      [
        [ g.phi_full; Option.get g.mu_full ];
        [ g.phi_full; pair.Pfcore.Genkernels.stag; pair.Pfcore.Genkernels.main ];
      ]
  in
  {
    Blocks.Scaling.net = Blocks.Netmodel.supermuc_ng;
    mlups_per_pe = step_rate /. 24.;
    fields_bytes_per_cell = 8 * ((2 * 4) + (2 * 2)); (* phi + mu, both time levels *)
    ghost_width = 1;
    overlap;
  }

let fig3_weak_cpu () =
  section "Figure 3 (left): weak scaling on SuperMUC-NG model, 60^3 per core";
  let generated = cpu_cfg ~simd_width:8 ~overlap:true in
  let manual = cpu_cfg ~simd_width:4 ~overlap:true in
  Fmt.pr "%-10s %18s %22s@." "cores" "P1 generated" "P1 manual [2] (AVX2)";
  List.iter
    (fun cores ->
      let gen_rate = Blocks.Scaling.weak generated ~block_dims:[| 60; 60; 60 |] ~ranks:cores in
      metric (Printf.sprintf "generated_mlups_per_core_%d" cores) gen_rate;
      Fmt.pr "%-10d %18.2f %22.2f@." cores gen_rate
        (Blocks.Scaling.weak manual ~block_dims:[| 60; 60; 60 |] ~ranks:cores))
    [ 16; 64; 256; 1024; 4096; 16384; 65536; 152064; 304128 ];
  Fmt.pr "(MLUP/s per core; paper: ~6 generated vs ~5 manual, flat to half the machine)@."

let fig3_weak_gpu () =
  section "Figure 3 (middle): weak scaling on Piz Daint model, 400^3 per GPU";
  let block_dims = [| 400; 400; 400 |] in
  Fmt.pr "%-10s %14s@." "GPUs" "MLUP/s per GPU";
  List.iter
    (fun gpus ->
      let c =
        Blocks.Gpucomm.costs Gpumodel.Device.p100 Blocks.Netmodel.piz_daint ~block_dims
          ~bytes_per_cell:152 ~flops_per_cell:3000 ~ranks:gpus
      in
      let rate =
        Blocks.Gpucomm.mlups_per_gpu c
          { Blocks.Gpucomm.overlap = true; gpudirect = true }
          ~block_dims
      in
      metric (Printf.sprintf "mlups_per_gpu_%d" gpus) rate;
      Fmt.pr "%-10d %14.0f@." gpus rate)
    [ 1; 4; 16; 64; 128; 512; 1024; 2400 ];
  Fmt.pr "(paper: ~440 MLUP/s per GPU, flat to 2400 GPUs)@."

let fig3_strong () =
  section "Figure 3 (right): strong scaling, 512 x 256 x 256 total domain";
  let cfg = cpu_cfg ~simd_width:8 ~overlap:true in
  Fmt.pr "%-10s %16s %14s@." "cores" "MLUP/s per core" "time steps/s";
  List.iter
    (fun cores ->
      let per_core, steps =
        Blocks.Scaling.strong cfg ~global_dims:[| 512; 256; 256 |] ~ranks:cores
      in
      metric (Printf.sprintf "steps_per_s_%d" cores) steps;
      Fmt.pr "%-10d %16.2f %14.1f@." cores per_core steps)
    [ 48; 192; 768; 3072; 12288; 49152; 152064 ];
  Fmt.pr "(paper: 0.2 steps/s at 48 cores, 460 steps/s at 152064 cores)@."

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations: the design choices behind the headline numbers";
  let g1 = Lazy.force gen_p1 in
  let p = Pfcore.Params.p1 () in

  Fmt.pr "-- compile-time parameter freezing (paper §5.1) --@.";
  let opts = { Pfcore.Genkernels.default_options with symbolic_params = true } in
  let generic = Pfcore.Genkernels.generate ~opts p in
  Fmt.pr "frozen:   phi-full %d norm FLOPs, %d runtime args@."
    (Field.Opcount.normalized (counts g1.phi_full))
    (List.length (Ir.Kernel.parameters g1.phi_full));
  Fmt.pr "symbolic: phi-full %d norm FLOPs, %d runtime args (of %d config parameters)@."
    (Field.Opcount.normalized (counts generic.phi_full))
    (List.length (Ir.Kernel.parameters generic.phi_full))
    (Pfcore.Params.config_parameter_count p);

  Fmt.pr "@.-- analytic temperature forms --@.";
  let const_t =
    Pfcore.Genkernels.generate { p with Pfcore.Params.temp = Pfcore.Params.Const_temp 0.5 }
  in
  Fmt.pr "T(z,t) gradient: mu-full %d norm FLOPs@."
    (Field.Opcount.normalized (counts (Option.get g1.mu_full)));
  Fmt.pr "T constant:      mu-full %d norm FLOPs (temperature terms fold away)@."
    (Field.Opcount.normalized (counts (Option.get const_t.mu_full)));
  let lowered = Ir.Lower.run (Option.get g1.mu_full) in
  Fmt.pr "loop-invariant hoisting moved %d assignments out of the inner loops@."
    (Ir.Lower.hoisted_count lowered);

  Fmt.pr "@.-- per-term simplification and CSE --@.";
  List.iter
    (fun (label, o) ->
      let g = Pfcore.Genkernels.generate ~opts:o p in
      Fmt.pr "%-24s phi-full %5d norm FLOPs@." label
        (Field.Opcount.normalized (counts g.phi_full)))
    [
      ("simplify+cse (default)", Pfcore.Genkernels.default_options);
      ("cse only", { Pfcore.Genkernels.default_options with simplify = false });
      ("no cse", { Pfcore.Genkernels.default_options with cse = false });
    ];

  Fmt.pr "@.-- spatial blocking (layer condition, paper §6.1) --@.";
  let mu = Option.get g1.mu_full in
  Fmt.pr "%a@." Perfmodel.Layercond.pp_report (mu, skl.Perfmodel.Machine.l2_bytes);
  List.iter
    (fun n ->
      Fmt.pr "  block %3d^3: %4.0f B/LUP from memory@." n
        (Perfmodel.Layercond.traffic_bytes_per_lup mu
           ~cache_bytes:skl.Perfmodel.Machine.l2_bytes ~n))
    [ 40; 60; 67; 100; 200 ];

  Fmt.pr "@.-- approximate operations (paper §3.5: 25-35%% on mu kernels) --@.";
  let c = counts mu in
  let exact = Field.Opcount.normalized c in
  let approx = exact - (c.Field.Opcount.divs * 12) - (c.Field.Opcount.sqrts * 7) in
  Fmt.pr "mu-full normalized cost: exact %d, with fast div/rsqrt %d (-%d%%)@." exact approx
    ((exact - approx) * 100 / exact)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test.make per paper artifact          *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Bechamel kernel microbenchmarks (one per table/figure)";
  let g1 = Lazy.force gen_p1 in
  let pair = Option.get g1.mu_split in
  let dims = [| 12; 12; 12 |] in
  let sweep kernel =
    let block = bench_block g1 ~dims in
    let bound = Vm.Engine.bind kernel block in
    let params = kernel_params g1 in
    fun () -> Vm.Engine.run ~params bound
  in
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"pfgen"
      [
        (* Table 1 / Fig. 2 left: the two mu variants *)
        Test.make ~name:"table1_mu_full_sweep" (Staged.stage (sweep (Option.get g1.mu_full)));
        Test.make ~name:"fig2_mu_split_sweep"
          (Staged.stage
             (let s1 = sweep pair.Pfcore.Genkernels.stag
              and s2 = sweep pair.Pfcore.Genkernels.main in
              fun () ->
                s1 ();
                s2 ()));
        (* Fig. 2 middle: phi variants *)
        Test.make ~name:"fig2_phi_full_sweep" (Staged.stage (sweep g1.phi_full));
        (* Fig. 3: a full Algorithm-1 time step *)
        Test.make ~name:"fig3_timestep"
          (Staged.stage
             (let sim = Pfcore.Timestep.create ~dims g1 in
              Pfcore.Simulation.init_lamellae sim;
              fun () -> Pfcore.Timestep.step sim));
        (* Fig. 2 right: the GPU scheduling transformation itself *)
        Test.make ~name:"fig2r_kessler_schedule"
          (Staged.stage (fun () ->
               ignore (Gpumodel.Kessler.schedule ~beam:4 g1.phi_full.Ir.Kernel.body)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let cells = float_of_int (Array.fold_left ( * ) 1 dims) in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some (ns :: _) ->
        let key =
          String.map (function '/' | '-' | '.' -> '_' | c -> c) name
        in
        metric (key ^ "_ns_per_run") ns;
        if
          Astring.String.is_infix ~affix:"sweep" name
          || Astring.String.is_infix ~affix:"timestep" name
        then begin
          metric (key ^ "_mlups") (cells /. ns *. 1e3);
          Fmt.pr "%-36s %12.0f ns/run  = %6.3f MLUP/s@." name ns (cells /. ns *. 1e3)
        end
        else Fmt.pr "%-36s %12.0f ns/run@." name ns
      | _ -> Fmt.pr "%-36s (no estimate)@." name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Resilience: checkpoint overhead on this machine                     *)
(* ------------------------------------------------------------------ *)

let resilience () =
  section "Resilience: checkpoint overhead (curvature model, 2x2 ranks, VM)";
  let gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ())) in
  let g = Lazy.force gen in
  let forest = Blocks.Forest.create ~grid:[| 2; 2 |] ~block_dims:[| 16; 16 |] g in
  Array.iter Pfcore.Simulation.init_lamellae forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let steps = 20 in
  let (), step_s = time (fun () -> Blocks.Forest.run forest ~steps) in
  let step_ms = step_s /. float_of_int steps *. 1e3 in
  let reps = 10 in
  let snap, capture_s =
    time (fun () ->
        let s = ref (Resilience.Snapshot.capture forest) in
        for _ = 2 to reps do
          s := Resilience.Snapshot.capture forest
        done;
        !s)
  in
  let capture_ms = capture_s /. float_of_int reps *. 1e3 in
  let encoded, encode_s =
    time (fun () ->
        let e = ref (Resilience.Snapshot.encode snap) in
        for _ = 2 to reps do
          e := Resilience.Snapshot.encode snap
        done;
        !e)
  in
  let encode_ms = encode_s /. float_of_int reps *. 1e3 in
  let every = 5 in
  let overhead = capture_ms /. (float_of_int every *. step_ms) *. 100. in
  Fmt.pr "time step:          %8.3f ms@." step_ms;
  Fmt.pr "snapshot capture:   %8.3f ms@." capture_ms;
  Fmt.pr "snapshot encode:    %8.3f ms (%d bytes)@." encode_ms (String.length encoded);
  Fmt.pr "checkpoint every %d steps: %.1f%% overhead (in-memory capture only)@." every
    overhead;
  metric "step_ms" step_ms;
  metric "capture_ms" capture_ms;
  metric "encode_ms" encode_ms;
  metric "snapshot_bytes" (float_of_int (String.length encoded));
  metric "checkpoint_every" (float_of_int every);
  metric "overhead_percent" overhead

(* ------------------------------------------------------------------ *)
(* Observability overhead                                              *)
(* ------------------------------------------------------------------ *)

(* The zero-cost-when-disabled claim, measured: the instrumented
   [Vm.Engine.run] with the sink off must cost the same sweep time as the
   uninstrumented [run_plain] (its only extra work is one atomic load and
   branch per sweep); the full tracing cost with the sink on is reported
   alongside for context. *)
let obs () =
  section "Observability: instrumentation overhead (P1 phi-full, 16^3)";
  let gen = Lazy.force gen_p1 in
  let dims = [| 16; 16; 16 |] in
  let block = bench_block gen ~dims in
  let bound = Vm.Engine.bind gen.Pfcore.Genkernels.phi_full block in
  let params = kernel_params gen in
  let sweeps = 10 and reps = 5 in
  (* best-of-reps sweep time, first call as warmup *)
  let best f =
    f 0;
    let t = ref infinity in
    for rep = 1 to reps do
      let t0 = Unix.gettimeofday () in
      for s = 1 to sweeps do
        f ((rep * sweeps) + s)
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !t then t := dt
    done;
    !t /. float_of_int sweeps
  in
  Obs.Sink.disable ();
  let t_plain = best (fun step -> Vm.Engine.run_plain ~step ~params bound) in
  let t_disabled = best (fun step -> Vm.Engine.run ~step ~params bound) in
  Obs.Metrics.reset ();
  Obs.Sink.clear ();
  Obs.Sink.enable ();
  let t_enabled = best (fun step -> Vm.Engine.run ~step ~params bound) in
  let events = List.length (Obs.Sink.events ()) in
  Obs.Sink.disable ();
  Obs.Sink.clear ();
  Obs.Metrics.reset ();
  let cells = float_of_int (Array.fold_left ( * ) 1 dims) in
  let ns t = t *. 1e9 /. cells in
  let pct t = (t /. t_plain -. 1.) *. 100. in
  Fmt.pr "uninstrumented run_plain:   %8.1f ns/cell@." (ns t_plain);
  Fmt.pr "instrumented, sink off:     %8.1f ns/cell (%+.2f%%)@." (ns t_disabled)
    (pct t_disabled);
  Fmt.pr "instrumented, sink on:      %8.1f ns/cell (%+.2f%%, %d events)@." (ns t_enabled)
    (pct t_enabled) events;
  metric "plain_ns_per_cell" (ns t_plain);
  metric "disabled_ns_per_cell" (ns t_disabled);
  metric "enabled_ns_per_cell" (ns t_enabled);
  metric "disabled_overhead_percent" (pct t_disabled);
  metric "enabled_overhead_percent" (pct t_enabled);
  metric "trace_events" (float_of_int events)

(* ------------------------------------------------------------------ *)
(* Pool: serial vs pooled sweep through the persistent domain pool      *)
(* ------------------------------------------------------------------ *)

(* Gate failures are collected here and turned into a nonzero exit after
   every BENCH_*.json has been written, so CI still gets the numbers. *)
let gate_failures : string list ref = ref []

(* The tentpole speedup gate: a pooled P1 phi sweep at 4 domains must beat
   the serial sweep by >= 1.7x — but only on hardware that has the cores.
   On smaller machines (CI containers are often 1-2 cores) the speedup is
   recorded but the threshold is enforced only when PFGEN_POOL_GATE=1
   forces it.  The zero-extra-spawns gate is unconditional: after warmup,
   100%% of pooled sweeps must reuse the persistent pool. *)
let pool_bench () =
  section "Pool: serial vs pooled P1 phi-full sweep (persistent domain pool)";
  let gen = Lazy.force gen_p1 in
  let dims = [| 32; 32; 32 |] in
  let domains = 4 in
  let cores = Domain.recommended_domain_count () in
  let block = bench_block gen ~dims in
  let bound = Vm.Engine.bind gen.Pfcore.Genkernels.phi_full block in
  let params = kernel_params gen in
  let sweeps = 2 and reps = 3 in
  let best f =
    f 0;
    let t = ref infinity in
    for rep = 1 to reps do
      let t0 = Unix.gettimeofday () in
      for s = 1 to sweeps do
        f ((rep * sweeps) + s)
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !t then t := dt
    done;
    !t /. float_of_int sweeps
  in
  (* tuner-informed tile for the pooled run (served from the Tune cache) *)
  let plan = Pfcore.Timestep.autotune ~domains gen in
  let tile = plan.Pfcore.Timestep.phi.Vm.Tune.tile in
  Fmt.pr "%a@." Vm.Tune.pp_choice plan.Pfcore.Timestep.phi;
  let t_serial = best (fun step -> Vm.Engine.run_plain ~step ~params bound) in
  (* warm the pool once, then demand zero further spawns *)
  Vm.Engine.run_plain ~num_domains:domains ?tile ~params bound;
  let spawned0 = Vm.Pool.spawned_total () in
  let t_pooled =
    best (fun step -> Vm.Engine.run_plain ~num_domains:domains ?tile ~step ~params bound)
  in
  let extra_spawns = Vm.Pool.spawned_total () - spawned0 in
  let cells = float_of_int (Array.fold_left ( * ) 1 dims) in
  let ns t = t *. 1e9 /. cells in
  let speedup = t_serial /. t_pooled in
  let threshold = 1.7 in
  let enforced = cores >= domains || Sys.getenv_opt "PFGEN_POOL_GATE" = Some "1" in
  Fmt.pr "serial sweep:          %8.1f ns/cell@." (ns t_serial);
  Fmt.pr "pooled sweep (x%d):     %8.1f ns/cell (tile %a)@." domains (ns t_pooled)
    Vm.Tune.pp_tile tile;
  Fmt.pr "speedup:               %8.2fx (gate >= %.1fx %s, %d core(s) available)@." speedup
    threshold
    (if enforced then "ENFORCED" else "recorded only")
    cores;
  Fmt.pr "extra spawns after warmup: %d (gate = 0, always enforced)@." extra_spawns;
  metric "serial_ns_per_cell" (ns t_serial);
  metric "pooled_ns_per_cell" (ns t_pooled);
  metric "speedup" speedup;
  metric "domains" (float_of_int domains);
  metric "cores_available" (float_of_int cores);
  metric "extra_spawns_after_warmup" (float_of_int extra_spawns);
  metric "gate_threshold" threshold;
  metric "gate_enforced" (if enforced then 1. else 0.);
  metric "gate_passed"
    (if (not enforced || speedup >= threshold) && extra_spawns = 0 then 1. else 0.);
  if extra_spawns <> 0 then
    gate_failures :=
      Printf.sprintf "pool: %d extra domain spawn(s) after warmup (expected 0)" extra_spawns
      :: !gate_failures;
  if enforced && speedup < threshold then
    gate_failures :=
      Printf.sprintf "pool: speedup %.2fx below the %.1fx gate at %d domains" speedup
        threshold domains
      :: !gate_failures

(* ------------------------------------------------------------------ *)
(* JIT: interpreter vs closure-compiled tapes                           *)
(* ------------------------------------------------------------------ *)

(* The JIT speedup gate: a serial P1 phi-full sweep through the compiled
   backend must beat the tree-walking interpreter by >= 5x per cell, with
   the one-time compilation excluded (both backends are warmed before
   timing) — and the warm phase must never recompile: the memo table has
   to serve every timed sweep.  Both gates are unconditional; the measured
   numbers and the compile cost land in BENCH_jit.json. *)
let jit_bench () =
  section "JIT: interpreter vs closure-compiled P1 phi-full sweep (1 core)";
  let gen = Lazy.force gen_p1 in
  let dims = [| 24; 24; 24 |] in
  let block = bench_block gen ~dims in
  let bound = Vm.Engine.bind gen.Pfcore.Genkernels.phi_full block in
  let params = kernel_params gen in
  let sweeps = 2 and reps = 3 in
  let best backend =
    (* warmup sweep: for the JIT this includes the one-time compilation *)
    Vm.Engine.run_plain ~backend ~params bound;
    let t = ref infinity in
    for rep = 1 to reps do
      let t0 = Unix.gettimeofday () in
      for s = 1 to sweeps do
        Vm.Engine.run_plain ~backend ~step:((rep * sweeps) + s) ~params bound
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !t then t := dt
    done;
    !t /. float_of_int sweeps
  in
  Vm.Jit.clear_cache ();
  (* one-time compile cost: the first [get] populates the memo cache; for
     the native tier that includes the ocamlopt round trip.  Timed here so
     the warm-sweep measurements below exclude it entirely. *)
  let t0 = Unix.gettimeofday () in
  let compiled =
    Vm.Jit.get (Lazy.force bound.Vm.Engine.jit_key) ~dims ~ghost:2
      gen.Pfcore.Genkernels.phi_full bound.Vm.Engine.lowered
  in
  let compile_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Fmt.pr "tape: %d quads, tier: %s@." compiled.Vm.Jit.n_ops
    compiled.Vm.Jit.native_note;
  let t_interp = best Vm.Engine.Interp in
  let _, misses_warm = Vm.Jit.cache_stats () in
  let t_jit = best Vm.Engine.Jit in
  let recompiles = snd (Vm.Jit.cache_stats ()) - misses_warm in
  let cells = float_of_int (Array.fold_left ( * ) 1 dims) in
  let ns t = t *. 1e9 /. cells in
  let speedup = t_interp /. t_jit in
  let threshold = 5.0 in
  Fmt.pr "interpreter sweep:     %8.1f ns/cell@." (ns t_interp);
  Fmt.pr "jit sweep (warm):      %8.1f ns/cell@." (ns t_jit);
  Fmt.pr "speedup:               %8.2fx (gate >= %.1fx, ENFORCED)@." speedup threshold;
  Fmt.pr "one-time compile:      %8.2f ms (excluded from the warm sweeps)@." compile_ms;
  Fmt.pr "recompiles after warmup: %d (gate = 0, ENFORCED)@." recompiles;
  metric "interp_ns_per_cell" (ns t_interp);
  metric "jit_ns_per_cell" (ns t_jit);
  metric "speedup" speedup;
  metric "compile_ms" compile_ms;
  metric "native_tier" (if compiled.Vm.Jit.native then 1. else 0.);
  metric "recompiles_after_warmup" (float_of_int recompiles);
  metric "gate_threshold" threshold;
  metric "gate_passed" (if speedup >= threshold && recompiles = 0 then 1. else 0.);
  if recompiles <> 0 then
    gate_failures :=
      Printf.sprintf "jit: %d recompilation(s) after warmup (expected 0)" recompiles
      :: !gate_failures;
  if speedup < threshold then
    gate_failures :=
      Printf.sprintf "jit: speedup %.2fx below the %.1fx gate over the interpreter" speedup
        threshold
      :: !gate_failures

(* ------------------------------------------------------------------ *)
(* Serve: the multi-tenant simulation farm                             *)
(* ------------------------------------------------------------------ *)

(* The farm gates: after a warmup batch has populated the mempool's size
   classes, a steady-state batch over the same workload must allocate ZERO
   fresh field buffers (every acquire is a free-list hit) and the overall
   hit rate must reach 90%.  Both are unconditional — they hold on any
   machine because admission order and buffer sizes are deterministic.
   Throughput and latency percentiles are recorded for the experiment log. *)
let serve_bench () =
  section "Serve: multi-tenant farm, steady-state batch over a shared mempool";
  let specs =
    Serve.Workload.generate ~families:[ Serve.Workload.Curv2d ] ~with_crash:false ~seed:9
      ~jobs:12 ()
  in
  let config = Serve.Scheduler.default_config () in
  let mempool = Serve.Mempool.create () in
  (* warmup batch: takes the cold misses that size the pool's free lists *)
  let warm = Serve.Scheduler.run ~config ~mempool specs in
  let m_warm = warm.Serve.Scheduler.mempool in
  (* steady-state batch: the same workload, recycled storage throughout *)
  let stats = Serve.Scheduler.run ~config ~mempool specs in
  let m = stats.Serve.Scheduler.mempool in
  let n = List.length stats.Serve.Scheduler.results in
  let elapsed_s = stats.Serve.Scheduler.elapsed_ns /. 1e9 in
  let jobs_per_s = float_of_int n /. elapsed_s in
  let latencies =
    List.sort compare
      (List.map
         (fun (r : Serve.Scheduler.job_result) -> r.Serve.Scheduler.latency_ns /. 1e6)
         stats.Serve.Scheduler.results)
  in
  let percentile p =
    List.nth latencies
      (min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))
  in
  let p50 = percentile 0.5 and p99 = percentile 0.99 in
  let steady_hits = m.Serve.Mempool.hits - m_warm.Serve.Mempool.hits in
  let steady_misses = m.Serve.Mempool.misses - m_warm.Serve.Mempool.misses in
  (* the gated rate is the steady-state batch's own; the cumulative rate
     (including warmup's unavoidable cold misses) is recorded alongside *)
  let hit_rate =
    let total = steady_hits + steady_misses in
    if total = 0 then 0. else float_of_int steady_hits /. float_of_int total
  in
  let cumulative_rate =
    let total = m.Serve.Mempool.hits + m.Serve.Mempool.misses in
    if total = 0 then 0. else float_of_int m.Serve.Mempool.hits /. float_of_int total
  in
  let threshold = 0.9 in
  Fmt.pr "steady-state batch:    %d job(s) in %.3f s = %.1f jobs/s@." n elapsed_s jobs_per_s;
  Fmt.pr "job latency:           p50 %.1f ms, p99 %.1f ms@." p50 p99;
  Fmt.pr "preemptions:           %d, crash restarts: %d@." stats.Serve.Scheduler.preemptions
    stats.Serve.Scheduler.restarts;
  Fmt.pr "mempool:               %a@." Serve.Mempool.pp_stats m;
  Fmt.pr "steady-state hit rate: %8.1f%% (gate >= %.0f%%, ENFORCED; %.1f%% incl. warmup)@."
    (100. *. hit_rate) (100. *. threshold) (100. *. cumulative_rate);
  Fmt.pr "steady-state acquires: %d hit(s), %d fresh alloc(s) (gate = 0, ENFORCED)@."
    steady_hits steady_misses;
  metric "jobs" (float_of_int n);
  metric "jobs_per_s" jobs_per_s;
  metric "latency_p50_ms" p50;
  metric "latency_p99_ms" p99;
  metric "preemptions" (float_of_int stats.Serve.Scheduler.preemptions);
  metric "mempool_hit_rate" hit_rate;
  metric "mempool_hit_rate_incl_warmup" cumulative_rate;
  metric "steady_state_fresh_allocs" (float_of_int steady_misses);
  metric "mempool_high_water_bytes" (float_of_int m.Serve.Mempool.high_water_bytes);
  metric "gate_threshold" threshold;
  metric "gate_passed" (if hit_rate >= threshold && steady_misses = 0 then 1. else 0.);
  if steady_misses <> 0 then
    gate_failures :=
      Printf.sprintf "serve: %d fresh allocation(s) in the steady-state batch (expected 0)"
        steady_misses
      :: !gate_failures;
  if hit_rate < threshold then
    gate_failures :=
      Printf.sprintf "serve: mempool hit rate %.1f%% below the %.0f%% gate" (100. *. hit_rate)
        (100. *. threshold)
      :: !gate_failures;
  (* throughput vs quantum (recorded, not gated): smaller quanta buy finer
     interleaving at the cost of more scheduler passes and preemption
     snapshot traffic; each point is a steady-state batch on its own
     warmed mempool *)
  Fmt.pr "@.%-10s %12s %14s %12s@." "quantum" "jobs/s" "p99 ms" "preemptions";
  List.iter
    (fun qn ->
      let config = { config with Serve.Scheduler.quantum = qn } in
      let mp = Serve.Mempool.create () in
      let _warm = Serve.Scheduler.run ~config ~mempool:mp specs in
      let st = Serve.Scheduler.run ~config ~mempool:mp specs in
      let nq = List.length st.Serve.Scheduler.results in
      let jps = float_of_int nq /. (st.Serve.Scheduler.elapsed_ns /. 1e9) in
      let lats =
        List.sort compare
          (List.map
             (fun (r : Serve.Scheduler.job_result) -> r.Serve.Scheduler.latency_ns /. 1e6)
             st.Serve.Scheduler.results)
      in
      let p99q =
        List.nth lats (min (nq - 1) (int_of_float ((0.99 *. float_of_int (nq - 1)) +. 0.5)))
      in
      Fmt.pr "%-10d %12.1f %14.1f %12d@." qn jps p99q st.Serve.Scheduler.preemptions;
      metric (Printf.sprintf "jobs_per_s_quantum_%d" qn) jps;
      metric (Printf.sprintf "latency_p99_ms_quantum_%d" qn) p99q)
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Overlap: sequential vs overlapped ghost exchange (paper §7)          *)
(* ------------------------------------------------------------------ *)

(* The overlap gates.  (1) Bitwise: the overlapped forest must end exactly
   equal to the sequential one — unconditional, any machine.  (2) Hidden
   fraction: the in-process substrate cannot hide wall-clock time, so the
   enforced gate is model-calibrated — the measured μ interior compute per
   step must cover at least half of the SuperMUC-NG-modeled axis-0 φ_dst
   exchange time for the same block ([hidden = min(t_interior, t_comm) /
   t_comm]).  The raw wall-clock overhead of the split schedule is
   recorded alongside (not gated: it is pure scheduling cost here). *)
let overlap_bench () =
  section "Overlap: sequential vs overlapped phi_dst exchange (2-rank P1 forest)";
  let gen = Lazy.force gen_p1 in
  let block_dims = [| 12; 12; 12 |] and grid = [| 1; 1; 2 |] in
  let steps = 3 in
  let make ~overlap =
    let forest = Blocks.Forest.create ~overlap ~grid ~block_dims gen in
    Array.iter Pfcore.Simulation.init_lamellae forest.Blocks.Forest.sims;
    Blocks.Forest.prime forest;
    forest
  in
  let time_run forest =
    let t0 = Unix.gettimeofday () in
    Blocks.Forest.run forest ~steps;
    (Unix.gettimeofday () -. t0) /. float_of_int steps
  in
  let seq = make ~overlap:false in
  let t_seq = time_run seq in
  let ovl = make ~overlap:true in
  let t_ovl = time_run ovl in
  (* gate 1: bitwise identity over every cell of both state fields *)
  let fields = gen.Pfcore.Genkernels.fields in
  let gd = seq.Blocks.Forest.global_dims in
  let mismatches = ref 0 in
  List.iter
    (fun (f : Symbolic.Fieldspec.t) ->
      for gz = 0 to gd.(2) - 1 do
        for gy = 0 to gd.(1) - 1 do
          for gx = 0 to gd.(0) - 1 do
            for c = 0 to f.Symbolic.Fieldspec.components - 1 do
              let a = Blocks.Forest.get seq f ~component:c [| gx; gy; gz |] in
              let b = Blocks.Forest.get ovl f ~component:c [| gx; gy; gz |] in
              if Int64.bits_of_float a <> Int64.bits_of_float b then incr mismatches
            done
          done
        done
      done)
    [ fields.Pfcore.Model.phi_src; fields.Pfcore.Model.mu_src ];
  (* measured interior compute per step: the work available to hide the
     exchange behind (same per-rank block, solo, warmed) *)
  let sim = Pfcore.Timestep.create ~dims:block_dims gen in
  Pfcore.Timestep.smooth_fill sim.Pfcore.Timestep.block gen;
  Pfcore.Timestep.prime sim;
  Pfcore.Timestep.phase_phi sim;
  Pfcore.Timestep.phase_mu_interior sim (* warmup *);
  let t_interior = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    Pfcore.Timestep.phase_mu_interior sim;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !t_interior then t_interior := dt
  done;
  (* modeled axis-0 exchange for the same block on SuperMUC-NG at 10^5+
     ranks: 2 slabs of the φ_dst ghost layer per rank *)
  let phi_buf = Vm.Engine.buffer sim.Pfcore.Timestep.block fields.Pfcore.Model.phi_dst in
  let axis0_bytes = 2 * 8 * Blocks.Ghost.slab_size phi_buf 0 in
  let ranks = 131072 in
  let t_comm =
    Blocks.Netmodel.exchange_time_s Blocks.Netmodel.supermuc_ng
      ~bytes:(float_of_int axis0_bytes) ~neighbors:2 ~ranks
  in
  let hidden = Float.min !t_interior t_comm /. t_comm in
  let overhead = (t_ovl -. t_seq) /. t_seq *. 100. in
  let threshold = 0.5 in
  Fmt.pr "sequential step:       %8.2f ms@." (t_seq *. 1e3);
  Fmt.pr "overlapped step:       %8.2f ms (%+.1f%% scheduling overhead, recorded)@."
    (t_ovl *. 1e3) overhead;
  Fmt.pr "bitwise mismatches:    %8d (gate = 0, ENFORCED)@." !mismatches;
  Fmt.pr "mu interior compute:   %8.3f ms/step (measured)@." (!t_interior *. 1e3);
  Fmt.pr "modeled axis-0 comm:   %8.3f ms/step (%d B, SuperMUC-NG at %d ranks)@."
    (t_comm *. 1e3) axis0_bytes ranks;
  Fmt.pr "exchange hidden:       %8.1f%% (gate >= %.0f%%, ENFORCED)@." (100. *. hidden)
    (100. *. threshold);
  metric "sequential_step_ms" (t_seq *. 1e3);
  metric "overlapped_step_ms" (t_ovl *. 1e3);
  metric "overlap_overhead_percent" overhead;
  metric "bitwise_mismatches" (float_of_int !mismatches);
  metric "mu_interior_ms_per_step" (!t_interior *. 1e3);
  metric "axis0_exchange_bytes" (float_of_int axis0_bytes);
  metric "modeled_axis0_comm_ms" (t_comm *. 1e3);
  metric "model_ranks" (float_of_int ranks);
  metric "exchange_hidden_fraction" hidden;
  metric "gate_threshold" threshold;
  metric "gate_passed" (if !mismatches = 0 && hidden >= threshold then 1. else 0.);
  if !mismatches <> 0 then
    gate_failures :=
      Printf.sprintf "overlap: %d bitwise mismatch(es) between overlapped and sequential"
        !mismatches
      :: !gate_failures;
  if hidden < threshold then
    gate_failures :=
      Printf.sprintf "overlap: exchange hidden fraction %.2f below the %.2f gate" hidden
        threshold
      :: !gate_failures

(* ------------------------------------------------------------------ *)
(* Scaling: weak/strong projections calibrated on the measured overlap  *)
(* ------------------------------------------------------------------ *)

(* Labelled weak/strong-scaling projections out to SuperMUC-class rank
   counts (paper Fig. 3), driven by [Blocks.Scaling] with the per-PE
   update rate calibrated from a measured overlapped forest run of this
   build — so the artifact tracks the repository's real kernel speed, not
   a hard-coded constant.  Pure model, no gate: the numbers document where
   the analytic ceiling sits for the measured single-core rate. *)
let scaling_bench () =
  section "Scaling: weak/strong projections calibrated on a measured overlapped run";
  let gen = Lazy.force gen_p1 in
  let block_dims = [| 12; 12; 12 |] and grid = [| 1; 1; 2 |] in
  let forest = Blocks.Forest.create ~overlap:true ~grid ~block_dims gen in
  Array.iter Pfcore.Simulation.init_lamellae forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  Blocks.Forest.run forest ~steps:1 (* warmup *);
  let steps = 3 in
  let t0 = Unix.gettimeofday () in
  Blocks.Forest.run forest ~steps;
  let dt = Unix.gettimeofday () -. t0 in
  let ranks_measured = Array.length forest.Blocks.Forest.sims in
  let cells_per_rank = float_of_int (Array.fold_left ( * ) 1 block_dims) in
  let mlups_per_pe =
    cells_per_rank *. float_of_int steps /. (dt /. float_of_int ranks_measured) /. 1e6
    /. float_of_int ranks_measured
  in
  let fields_bytes_per_cell =
    List.fold_left
      (fun acc (f : Symbolic.Fieldspec.t) -> acc + (8 * f.Symbolic.Fieldspec.components))
      0
      (Pfcore.Timestep.field_list gen)
  in
  let cfg overlap =
    {
      Blocks.Scaling.net = Blocks.Netmodel.supermuc_ng;
      mlups_per_pe;
      fields_bytes_per_cell;
      ghost_width = 2;
      overlap;
    }
  in
  Fmt.pr "calibration: measured %.3f MLUP/s per PE (%d-rank overlapped forest), %d B/cell@."
    mlups_per_pe ranks_measured fields_bytes_per_cell;
  metric "calibrated_mlups_per_pe" mlups_per_pe;
  metric "fields_bytes_per_cell" (float_of_int fields_bytes_per_cell);
  let weak_ranks = [ 16; 1024; 16384; 131072; 262144 ] in
  let weak_dims = [| 60; 60; 60 |] in
  Fmt.pr "@.weak scaling, 60^3 cells/rank (MLUP/s per PE):@.";
  Fmt.pr "%-10s %14s %14s@." "ranks" "overlap" "no overlap";
  List.iter
    (fun ranks ->
      let ov = Blocks.Scaling.weak (cfg true) ~block_dims:weak_dims ~ranks in
      let nov = Blocks.Scaling.weak (cfg false) ~block_dims:weak_dims ~ranks in
      Fmt.pr "%-10d %14.3f %14.3f@." ranks ov nov;
      metric (Printf.sprintf "weak_overlap_mlups_per_pe@%d" ranks) ov;
      metric (Printf.sprintf "weak_noverlap_mlups_per_pe@%d" ranks) nov)
    weak_ranks;
  let strong_ranks = [ 48; 768; 12288; 49152; 147456 ] in
  let strong_dims = [| 512; 256; 256 |] in
  Fmt.pr "@.strong scaling, %dx%dx%d global (overlap on):@." strong_dims.(0) strong_dims.(1)
    strong_dims.(2);
  Fmt.pr "%-10s %14s %14s@." "ranks" "MLUP/s per PE" "steps/s";
  List.iter
    (fun ranks ->
      let per_pe, steps_s = Blocks.Scaling.strong (cfg true) ~global_dims:strong_dims ~ranks in
      Fmt.pr "%-10d %14.3f %14.2f@." ranks per_pe steps_s;
      metric (Printf.sprintf "strong_overlap_mlups_per_pe@%d" ranks) per_pe;
      metric (Printf.sprintf "strong_steps_per_s@%d" ranks) steps_s)
    strong_ranks

(* ------------------------------------------------------------------ *)
(* Reduce: canonical reductions + interface-adaptive block forest      *)
(* ------------------------------------------------------------------ *)

(* The reduce gates.  (1) Bitwise: the interface-adaptive forest must end
   exactly equal to the uniform fine-grid run over every phase component
   of every cell, and every canonical reduction (interface count, phase
   sum, extrema) must be bitwise identical between the serial single-tile
   reference, the pooled/tiled executor and the adaptive forest — the
   fixed-topology tree makes the combination order a constant of the
   contract, so the gate is zero divergence on any machine.  (2) Savings:
   on the interface-localized 2D curvature benchmark (shrinking sharp
   disc on 72^2, 12x12 blocks of 6^2 cells) the frozen bulk must buy at
   least 2x in cells touched versus the uniform sweep.  The per-cell
   reduction overhead is recorded alongside (not gated: wall-clock). *)
let reduce_bench () =
  section "Reduce: deterministic reductions + interface-adaptive forest (2D curvature)";
  let gen = Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()) in
  let phi = gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_src in
  let size = 72 and steps = 10 in
  let dims = [| size; size |] in
  (* uniform fine-grid reference *)
  let uni = Pfcore.Timestep.create ~dims gen in
  Pfcore.Simulation.init_sphere ~radius_frac:0.2 uni;
  Pfcore.Timestep.prime uni;
  Pfcore.Timestep.run uni ~steps;
  (* interface-adaptive forest over the same domain, same initial state *)
  let af = Blocks.Adaptive.create ~bgrid:[| size / 6; size / 6 |] ~block_dims:[| 6; 6 |] gen in
  List.iter (Pfcore.Simulation.init_sphere ~radius_frac:0.2) (Blocks.Adaptive.active_sims af);
  Blocks.Adaptive.prime af;
  let t0 = Unix.gettimeofday () in
  Blocks.Adaptive.run af ~steps;
  let t_adaptive = Unix.gettimeofday () -. t0 in
  (* gate 1a: bitwise identity of the full phase field *)
  let ub = Vm.Engine.buffer uni.Pfcore.Timestep.block phi in
  let mismatches = ref 0 in
  for gy = 0 to size - 1 do
    for gx = 0 to size - 1 do
      for c = 0 to phi.Symbolic.Fieldspec.components - 1 do
        let a = Blocks.Adaptive.get af phi ~component:c [| gx; gy |] in
        let b = Vm.Buffer.get ub ~component:c [| gx; gy |] in
        if Int64.bits_of_float a <> Int64.bits_of_float b then incr mismatches
      done
    done
  done;
  (* gate 1b: canonical reductions bitwise-equal across executors *)
  let block = uni.Pfcore.Timestep.block in
  let reductions =
    [
      ("interface_cells", Vm.Reduce.Interface, Vm.Reduce.Sum);
      ("phi0_sum", Vm.Reduce.Component 0, Vm.Reduce.Sum);
      ("phi0_min", Vm.Reduce.Component 0, Vm.Reduce.Min);
      ("phi0_max", Vm.Reduce.Component 0, Vm.Reduce.Max);
    ]
  in
  let divergent = ref 0 in
  List.iter
    (fun (name, cellfn, op) ->
      let serial = Vm.Reduce.scalar ~backend:Vm.Engine.Interp ~num_domains:1 block phi cellfn op in
      let pooled = Vm.Reduce.scalar ~num_domains:4 ~tile:[| 5; 3 |] block phi cellfn op in
      let adaptive = Blocks.Adaptive.scalar af phi cellfn op in
      if
        Int64.bits_of_float serial <> Int64.bits_of_float pooled
        || Int64.bits_of_float serial <> Int64.bits_of_float adaptive
      then incr divergent;
      metric name serial)
    reductions;
  (* gate 2: cells-touched savings of the frozen bulk *)
  let savings = Blocks.Adaptive.savings af in
  let savings_threshold = 2.0 in
  (* recorded overhead: canonical interface reduction, serial vs pooled *)
  let time_reduction f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let cells = float_of_int (size * size) in
  let t_serial =
    time_reduction (fun () ->
        Vm.Reduce.scalar ~backend:Vm.Engine.Interp ~num_domains:1 block phi Vm.Reduce.Interface
          Vm.Reduce.Sum)
  in
  let t_pooled =
    time_reduction (fun () ->
        Vm.Reduce.scalar ~num_domains:4 block phi Vm.Reduce.Interface Vm.Reduce.Sum)
  in
  Fmt.pr "adaptive run:          %8.2f ms (%d steps, %d/%d block(s) frozen at end)@."
    (t_adaptive *. 1e3) steps
    (Blocks.Adaptive.frozen_blocks af)
    (Blocks.Adaptive.nblocks af);
  Fmt.pr "bitwise mismatches:    %8d field cell(s), %d reduction(s) (gate = 0, ENFORCED)@."
    !mismatches !divergent;
  Fmt.pr "cells-touched savings: %8.2fx (gate >= %.1fx, ENFORCED)@." savings savings_threshold;
  Fmt.pr "reduction overhead:    %8.2f ns/cell serial, %.2f ns/cell pooled (recorded)@."
    (t_serial /. cells *. 1e9)
    (t_pooled /. cells *. 1e9);
  metric "steps" (float_of_int steps);
  metric "grid_cells" cells;
  metric "adaptive_run_ms" (t_adaptive *. 1e3);
  metric "frozen_blocks" (float_of_int (Blocks.Adaptive.frozen_blocks af));
  metric "total_blocks" (float_of_int (Blocks.Adaptive.nblocks af));
  metric "freezes" (float_of_int af.Blocks.Adaptive.freezes);
  metric "thaws" (float_of_int af.Blocks.Adaptive.thaws);
  metric "bitwise_mismatches" (float_of_int !mismatches);
  metric "divergent_reductions" (float_of_int !divergent);
  metric "cells_touched_savings" savings;
  metric "savings_threshold" savings_threshold;
  metric "reduce_ns_per_cell_serial" (t_serial /. cells *. 1e9);
  metric "reduce_ns_per_cell_pooled" (t_pooled /. cells *. 1e9);
  metric "gate_passed"
    (if !mismatches = 0 && !divergent = 0 && savings >= savings_threshold then 1. else 0.);
  if !mismatches <> 0 then
    gate_failures :=
      Printf.sprintf "reduce: %d bitwise mismatch(es) between adaptive and uniform"
        !mismatches
      :: !gate_failures;
  if !divergent <> 0 then
    gate_failures :=
      Printf.sprintf "reduce: %d reduction(s) diverge across executors" !divergent
      :: !gate_failures;
  if savings < savings_threshold then
    gate_failures :=
      Printf.sprintf "reduce: cells-touched savings %.2fx below the %.1fx gate" savings
        savings_threshold
      :: !gate_failures

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Model zoo: per-family update cost + the oracle-12 deviation gate     *)
(* ------------------------------------------------------------------ *)

(* One row per combinator-built family: measured ns/cell of a whole
   timestep under the interpreter and the compiled backend, and the worst
   Varder-vs-finite-difference deviation of the family's free-energy
   density (oracle 12) over every phase component at a spread of probe
   cells.  The deviation gate is ENFORCED and machine-independent: it re-
   checks the commutation budget documented in DESIGN.md §15, so a sign
   flip or dropped term in the variational frontend fails the bench job
   even if the sampled oracle happened to miss it. *)
let zoo_bench () =
  section "Model zoo: per-family update cost and oracle-12 deviation";
  let families =
    [
      (0, "eutectic", Pfcore.Params.eutectic ());
      (1, "pfc", Pfcore.Params.pfc ());
      (2, "gray_scott", Pfcore.Params.gray_scott ());
    ]
  in
  let all_ok = ref true in
  Fmt.pr "%-12s %15s %15s %18s@." "family" "interp ns/cell" "jit ns/cell"
    "oracle-12 max dev";
  List.iter
    (fun (zf, label, p) ->
      let gen = Pfcore.Genkernels.generate p in
      let dims = [| 24; 24 |] in
      let cells = float_of_int (dims.(0) * dims.(1)) in
      let time backend =
        let sim = Pfcore.Timestep.create ~backend ~dims gen in
        Pfcore.Simulation.init_model sim;
        Pfcore.Timestep.prime sim;
        Pfcore.Timestep.run sim ~steps:1 (* warmup; the jit compiles here *);
        let best = ref infinity in
        for _ = 1 to 3 do
          let t0 = Unix.gettimeofday () in
          Pfcore.Timestep.run sim ~steps:2;
          let dt = (Unix.gettimeofday () -. t0) /. 2. in
          if dt < !best then best := dt
        done;
        !best /. cells *. 1e9
      in
      let ns_interp = time Vm.Engine.Interp in
      let ns_jit = time Vm.Engine.Jit in
      let dev, ok = Check.Oracles.o12_family_deviation ~zf ~seed:5 in
      if not ok then begin
        all_ok := false;
        gate_failures :=
          Printf.sprintf "zoo: %s oracle-12 deviation %.5f exceeds its budget" label dev
          :: !gate_failures
      end;
      Fmt.pr "%-12s %15.1f %15.1f %18.5f@." label ns_interp ns_jit dev;
      metric (label ^ "_interp_ns_per_cell") ns_interp;
      metric (label ^ "_jit_ns_per_cell") ns_jit;
      metric (label ^ "_oracle12_max_deviation") dev)
    families;
  Fmt.pr "oracle-12 deviations within budget: %b (gate, ENFORCED)@." !all_ok;
  metric "gate_passed" (if !all_ok then 1. else 0.)

let () =
  let artifacts =
    [
      ("table1", table1);
      ("fig2_left", fig2_left);
      ("fig2_middle", fig2_middle);
      ("fig2_right", fig2_right);
      ("table2", table2);
      ("fig3_weak_cpu", fig3_weak_cpu);
      ("fig3_weak_gpu", fig3_weak_gpu);
      ("fig3_strong", fig3_strong);
      ("ablations", ablations);
      ("resilience", resilience);
      ("micro", micro);
      ("obs", obs);
      ("pool", pool_bench);
      ("jit", jit_bench);
      ("serve", serve_bench);
      ("overlap", overlap_bench);
      ("reduce", reduce_bench);
      ("scaling", scaling_bench);
      ("zoo", zoo_bench);
    ]
  in
  (* each artifact prints its table and then dumps the metrics it
     accumulated to BENCH_<artifact>.json *)
  let run_artifact (name, f) =
    metrics := [];
    f ();
    write_bench_json name
  in
  (match Array.to_list Sys.argv with
  | [ _ ] -> List.iter run_artifact artifacts
  | _ :: args ->
    List.iter
      (fun a ->
        match List.assoc_opt a artifacts with
        | Some f -> run_artifact (a, f)
        | None ->
          Fmt.epr "unknown artifact %s; available: %s@." a
            (String.concat ", " (List.map fst artifacts));
          exit 1)
      args
  | [] -> ());
  (* gate failures exit nonzero only after every json has been written *)
  if !gate_failures <> [] then begin
    List.iter (fun msg -> Fmt.epr "GATE FAILED: %s@." msg) !gate_failures;
    exit 1
  end
