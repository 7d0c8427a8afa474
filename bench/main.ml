(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5–§6).  Each artifact is one subcommand; running without
   arguments produces all of them.  Measured numbers come from executing the
   generated kernels on this machine, each timed by the shared probe
   ([Obs.Clock.trials]: a warm-up, then [trials] timed trials) and reported
   as the median with its interquartile range; hierarchy/network/GPU curves
   are analytic-model projections (clearly labeled), since the original
   testbeds were SuperMUC-NG and Piz Daint.  EXPERIMENTS.md records the
   paper-vs-reproduction comparison for every row printed here.

     dune exec bench/main.exe               # everything
     dune exec bench/main.exe -- table1     # a single artifact *)

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

(* Timed trials per measurement (after one warm-up), recorded in [meta]. *)
let trials = 9

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
    "  \"meta\": {\n    \"git_rev\": %S,\n    \"ocaml_version\": %S,\n    \"domains\": %d,\n    \"trials\": %d\n  },\n"
    (Lazy.force git_rev) Sys.ocaml_version
    (Domain.recommended_domain_count ())
    trials

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
(* Timing: the shared probe                                            *)
(* ------------------------------------------------------------------ *)

(* A timed number: the median of the probe's trials, recorded under [key]
   with their interquartile range under [key ^ "_iqr"]. *)
let timed key ts =
  Array.sort Float.compare ts;
  let q = Obs.Clock.quantile ts in
  metric key (q 0.5);
  metric (key ^ "_iqr") (q 0.75 -. q 0.25);
  q 0.5

let ms = Array.map (fun ns -> ns /. 1e6)

(* Sorted per-trial ns per cell of one sweep of [kernels] on the shared
   probe block, through the sweep probe the autotuner decides with. *)
let sweep_ns ?backend ?(domains = 1) ?tile gen kernels ~dims =
  Vm.Tune.probe ?backend ~domains ~tile ~sweeps:1 ~trials
    ~params:(Pfcore.Timestep.probe_params gen)
    (Pfcore.Timestep.probe_block gen ~dims)
    kernels

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
  let mlups = Array.map (fun ns -> 1e3 /. ns) in
  let m_full = timed "measured_mu_full_mlups" (mlups (sweep_ns g [ mu_full ] ~dims)) in
  let m_split =
    timed "measured_mu_split_mlups"
      (mlups (sweep_ns g [ pair.Pfcore.Genkernels.stag; pair.Pfcore.Genkernels.main ] ~dims))
  in
  Fmt.pr "measured on this machine (VM, 1 core, %d^3): split %.2f, full %.2f MLUP/s@."
    dims.(0) m_split m_full;
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
(* Timing gates                                                        *)
(* ------------------------------------------------------------------ *)

(* Gate failures are collected here and turned into a nonzero exit after
   every BENCH_*.json has been written, so CI still gets the numbers.  Each
   gate compares medians of the shared probe. *)
let gate_failures : string list ref = ref []

let gate ~name ~passed msg =
  metric "gate_passed" (if passed then 1. else 0.);
  if not passed then gate_failures := (name ^ ": " ^ msg) :: !gate_failures

(* ------------------------------------------------------------------ *)
(* Pool: serial vs pooled sweep through the persistent domain pool      *)
(* ------------------------------------------------------------------ *)

(* A pooled P1 phi sweep at 4 domains must beat the serial sweep by
   >= 1.7x — enforced only on hardware that has the 4 cores; on smaller
   hosts the speedup is recorded. *)
let pool_bench () =
  section "Pool: serial vs pooled P1 phi-full sweep (persistent domain pool)";
  let gen = Lazy.force gen_p1 in
  let kernels = [ gen.Pfcore.Genkernels.phi_full ] in
  let dims = [| 32; 32; 32 |] in
  let domains = 4 in
  let cores = Domain.recommended_domain_count () in
  (* the serial sweep first: the tuner below spawns the pool's workers, and
     idle workers join every minor collection, which slows the allocating
     serial sweep on a host with fewer cores than workers *)
  let serial = timed "serial_ns_per_cell" (sweep_ns gen kernels ~dims) in
  (* tuner-informed tile for the pooled run (served from the Tune cache) *)
  let plan = Pfcore.Timestep.autotune ~domains gen in
  let tile = plan.Pfcore.Timestep.phi.Vm.Tune.tile in
  Fmt.pr "%a@." Vm.Tune.pp_choice plan.Pfcore.Timestep.phi;
  let pooled = timed "pooled_ns_per_cell" (sweep_ns ~domains ?tile gen kernels ~dims) in
  let speedup = serial /. pooled in
  let threshold = 1.7 in
  let enforced = cores >= domains in
  Fmt.pr "serial sweep:          %8.1f ns/cell@." serial;
  Fmt.pr "pooled sweep (x%d):     %8.1f ns/cell (tile %a)@." domains pooled Vm.Tune.pp_tile
    tile;
  Fmt.pr "speedup:               %8.2fx (gate >= %.1fx %s, %d core(s) available)@." speedup
    threshold
    (if enforced then "ENFORCED" else "recorded only")
    cores;
  metric "speedup" speedup;
  metric "domains" (float_of_int domains);
  metric "cores_available" (float_of_int cores);
  metric "gate_threshold" threshold;
  metric "gate_enforced" (if enforced then 1. else 0.);
  (* idle workers still join every minor collection: on a 2-core host they
     double the allocating interpreter's sweep time in later artifacts *)
  Vm.Pool.shutdown ();
  gate ~name:"pool"
    ~passed:((not enforced) || speedup >= threshold)
    (Printf.sprintf "speedup %.2fx below the %.1fx gate at %d domains" speedup threshold
       domains)

(* ------------------------------------------------------------------ *)
(* JIT: interpreter vs the fast tier (generated C)                      *)
(* ------------------------------------------------------------------ *)

(* A serial P1 phi-full sweep through the fast tier (the generated C,
   built with gcc) must beat the tree-walking interpreter by >= 5x per
   cell; the probe's warm-up sweep takes the one-time compile, which is
   timed on its own. *)
let jit_bench () =
  section "JIT: interpreter vs the fast tier, P1 phi-full sweep (1 core)";
  let gen = Lazy.force gen_p1 in
  let kernel = gen.Pfcore.Genkernels.phi_full in
  let dims = [| 24; 24; 24 |] in
  let bound = Vm.Engine.bind kernel (Pfcore.Timestep.probe_block gen ~dims) in
  let compile () =
    Vm.Jit.get (Lazy.force bound.Vm.Engine.jit_key) kernel bound.Vm.Engine.lowered
  in
  let compile_ms =
    timed "compile_ms"
      (ms
         (Obs.Clock.trials ~n:trials (fun () ->
              Vm.Jit.clear_cache ();
              ignore (compile ()))))
  in
  let compiled = compile () in
  Fmt.pr "tier: %s, flags: %s@." compiled.Vm.Jit.tier
    (String.concat " "
       (Vm.Jit_cc.base_flags @ Vm.Jit_cc.isa_flags (Vm.Jit.host_target ())));
  let interp = timed "interp_ns_per_cell" (sweep_ns gen [ kernel ] ~dims) in
  let jit = timed "jit_ns_per_cell" (sweep_ns ~backend:Vm.Engine.Jit gen [ kernel ] ~dims) in
  let speedup = interp /. jit in
  let threshold = 5.0 in
  Fmt.pr "interpreter sweep:     %8.1f ns/cell@." interp;
  Fmt.pr "jit sweep (warm):      %8.1f ns/cell@." jit;
  Fmt.pr "speedup:               %8.2fx (gate >= %.1fx, ENFORCED)@." speedup threshold;
  Fmt.pr "one-time compile:      %8.2f ms (excluded from the warm sweeps)@." compile_ms;
  metric "speedup" speedup;
  metric "native_tier" (if compiled.Vm.Jit.entry <> None then 1. else 0.);
  metric "gate_threshold" threshold;
  gate ~name:"jit" ~passed:(speedup >= threshold)
    (Printf.sprintf "speedup %.2fx below the %.1fx gate over the interpreter" speedup
       threshold)

(* ------------------------------------------------------------------ *)
(* Overlap: sequential vs overlapped ghost exchange (paper §7)          *)
(* ------------------------------------------------------------------ *)

(* The in-process substrate cannot hide wall-clock time, so the hidden-
   fraction gate is model-calibrated: the measured μ interior compute per
   step must cover at least half of the SuperMUC-NG-modeled axis-0 φ_dst
   exchange time for the same block ([hidden = min(t_interior, t_comm) /
   t_comm]).  The wall-clock overhead of the split schedule is recorded
   alongside (not gated: it is pure scheduling cost here). *)
let overlap_bench () =
  section "Overlap: sequential vs overlapped phi_dst exchange (2-rank P1 forest)";
  let gen = Lazy.force gen_p1 in
  let block_dims = [| 12; 12; 12 |] and grid = [| 1; 1; 2 |] in
  let step_ms ~overlap =
    let forest = Blocks.Forest.create ~overlap ~grid ~block_dims gen in
    Array.iter Pfcore.Simulation.init_lamellae forest.Blocks.Forest.sims;
    Blocks.Forest.prime forest;
    ms (Obs.Clock.trials ~n:trials (fun () -> Blocks.Forest.run forest ~steps:1))
  in
  let t_seq = timed "sequential_step_ms" (step_ms ~overlap:false) in
  let t_ovl = timed "overlapped_step_ms" (step_ms ~overlap:true) in
  (* measured interior compute per step: the work available to hide the
     exchange behind (same per-rank block, solo) *)
  let sim = Pfcore.Timestep.create ~dims:block_dims gen in
  Pfcore.Timestep.smooth_fill sim.Pfcore.Timestep.block gen;
  Pfcore.Timestep.prime sim;
  Pfcore.Timestep.phase_phi sim;
  let t_interior =
    timed "mu_interior_ms_per_step"
      (ms (Obs.Clock.trials ~n:trials (fun () -> Pfcore.Timestep.phase_mu_interior sim)))
  in
  (* modeled axis-0 exchange for the same block on SuperMUC-NG at 10^5+
     ranks: 2 slabs of the φ_dst ghost layer per rank *)
  let phi_buf =
    Vm.Engine.buffer sim.Pfcore.Timestep.block
      gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_dst
  in
  let axis0_bytes = 2 * 8 * Blocks.Ghost.slab_size phi_buf 0 in
  let ranks = 131072 in
  let t_comm_ms =
    1e3
    *. Blocks.Netmodel.exchange_time_s Blocks.Netmodel.supermuc_ng
         ~bytes:(float_of_int axis0_bytes) ~neighbors:2 ~ranks
  in
  let hidden = Float.min t_interior t_comm_ms /. t_comm_ms in
  let overhead = (t_ovl -. t_seq) /. t_seq *. 100. in
  let threshold = 0.5 in
  Fmt.pr "sequential step:       %8.2f ms@." t_seq;
  Fmt.pr "overlapped step:       %8.2f ms (%+.1f%% scheduling overhead, recorded)@." t_ovl
    overhead;
  Fmt.pr "mu interior compute:   %8.3f ms/step (measured)@." t_interior;
  Fmt.pr "modeled axis-0 comm:   %8.3f ms/step (%d B, SuperMUC-NG at %d ranks)@." t_comm_ms
    axis0_bytes ranks;
  Fmt.pr "exchange hidden:       %8.1f%% (gate >= %.0f%%, ENFORCED)@." (100. *. hidden)
    (100. *. threshold);
  metric "overlap_overhead_percent" overhead;
  metric "axis0_exchange_bytes" (float_of_int axis0_bytes);
  metric "modeled_axis0_comm_ms" t_comm_ms;
  metric "model_ranks" (float_of_int ranks);
  metric "exchange_hidden_fraction" hidden;
  metric "gate_threshold" threshold;
  gate ~name:"overlap" ~passed:(hidden >= threshold)
    (Printf.sprintf "exchange hidden fraction %.2f below the %.2f gate" hidden threshold)

(* ------------------------------------------------------------------ *)
(* Scaling: weak/strong projections calibrated on the measured overlap  *)
(* ------------------------------------------------------------------ *)

(* Labelled weak/strong-scaling projections out to SuperMUC-class rank
   counts (paper Fig. 3), driven by [Blocks.Scaling] with the per-PE
   update rate calibrated from the median step of an overlapped forest on
   the fast tier — so the artifact tracks the repository's real kernel
   speed, not a hard-coded constant.  The in-process ranks share one core,
   so one rank's block takes 1/ranks of a step and the per-PE rate is the
   forest's cells over its step time.  Pure model, no gate. *)
let scaling_bench () =
  section "Scaling: weak/strong projections calibrated on a measured overlapped run";
  let gen = Lazy.force gen_p1 in
  let block_dims = [| 12; 12; 12 |] and grid = [| 1; 1; 2 |] in
  let forest =
    Blocks.Forest.create ~overlap:true ~backend:Vm.Engine.Jit ~grid ~block_dims gen
  in
  Array.iter Pfcore.Simulation.init_lamellae forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  let step_ms =
    timed "calibration_step_ms"
      (ms (Obs.Clock.trials ~n:trials (fun () -> Blocks.Forest.run forest ~steps:1)))
  in
  let ranks_measured = Array.length forest.Blocks.Forest.sims in
  let cells = float_of_int (ranks_measured * Array.fold_left ( * ) 1 block_dims) in
  let mlups_per_pe = cells /. step_ms /. 1e3 in
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
  Fmt.pr
    "calibration: %.3f MLUP/s per PE from the median of %d steps (%.3f ms) of a %d-rank \
     overlapped forest on the JIT backend, %d B/cell@."
    mlups_per_pe trials step_ms ranks_measured fields_bytes_per_cell;
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
(* Model zoo: per-family update cost                                   *)
(* ------------------------------------------------------------------ *)

(* One row per combinator-built family: ns/cell of a whole time step
   under the interpreter and the fast tier.  The families' oracle-12
   budget is a test of the energy suite. *)
let zoo_bench () =
  section "Model zoo: per-family update cost";
  let families =
    [
      ("eutectic", Pfcore.Params.eutectic ());
      ("pfc", Pfcore.Params.pfc ());
      ("gray_scott", Pfcore.Params.gray_scott ());
    ]
  in
  Fmt.pr "%-12s %15s %15s@." "family" "interp ns/cell" "jit ns/cell";
  List.iter
    (fun (label, p) ->
      let gen = Pfcore.Genkernels.generate p in
      let dims = [| 24; 24 |] in
      let cells = float_of_int (dims.(0) * dims.(1)) in
      let step_ns backend =
        let sim = Pfcore.Timestep.create ~backend ~dims gen in
        Pfcore.Simulation.init_model sim;
        Pfcore.Timestep.prime sim;
        Array.map
          (fun ns -> ns /. cells)
          (Obs.Clock.trials ~n:trials (fun () -> Pfcore.Timestep.step sim))
      in
      let interp = timed (label ^ "_interp_ns_per_cell") (step_ns Vm.Engine.Interp) in
      let jit = timed (label ^ "_jit_ns_per_cell") (step_ns Vm.Engine.Jit) in
      Fmt.pr "%-12s %15.1f %15.1f@." label interp jit)
    families

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
      ("pool", pool_bench);
      ("jit", jit_bench);
      ("overlap", overlap_bench);
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
