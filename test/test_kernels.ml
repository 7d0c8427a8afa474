(* Generated kernels: Table-1 shaped structural properties, stencil
   signatures, full-vs-split numerical equivalence, parameter freezing, and
   the physics anchors (curvature flow, conservation, simplex projection,
   eutectic front motion). *)

let p1 = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p1 ()))
let curv = lazy (Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()))

let counts = Pfcore.Genkernels.counts

let test_p1_phi_stencils () =
  let g = Lazy.force p1 in
  Alcotest.(check string) "phi kernel reads phi at D3C7" "D3C7"
    (Ir.Kernel.stencil_signature g.phi_full g.fields.phi_src);
  Alcotest.(check string) "phi kernel reads mu at center only" "D3C1"
    (Ir.Kernel.stencil_signature g.phi_full g.fields.mu_src)

let test_p1_mu_stencils () =
  let g = Lazy.force p1 in
  match g.mu_full with
  | None -> Alcotest.fail "P1 has a mu kernel"
  | Some mu ->
    Alcotest.(check string) "mu kernel reads mu at D3C7" "D3C7"
      (Ir.Kernel.stencil_signature mu g.fields.mu_src);
    (* anti-trapping gradients at staggered positions widen phi to D3C19 *)
    Alcotest.(check string) "mu kernel reads phi_src at D3C19" "D3C19"
      (Ir.Kernel.stencil_signature mu g.fields.phi_src)

let test_p1_table1_shape () =
  let g = Lazy.force p1 in
  let phi_full = counts g.phi_full in
  let phi_stag = counts g.phi_split.stag and phi_main = counts g.phi_split.main in
  let mu_full = counts (Option.get g.mu_full) in
  let mu_pair = Option.get g.mu_split in
  let mu_stag = counts mu_pair.stag and mu_main = counts mu_pair.main in
  (* paper Table 1, P1 column: loads/stores match exactly *)
  Alcotest.(check int) "phi-full loads (paper: 30)" 30 phi_full.Field.Opcount.loads;
  Alcotest.(check int) "phi-full stores (paper: 4)" 4 phi_full.Field.Opcount.stores;
  Alcotest.(check int) "phi-split stag stores (paper: 12)" 12 phi_stag.Field.Opcount.stores;
  Alcotest.(check int) "phi-split main stores (paper: 4)" 4 phi_main.Field.Opcount.stores;
  Alcotest.(check int) "mu-full loads (paper: 112)" 112 mu_full.Field.Opcount.loads;
  Alcotest.(check int) "mu-full stores (paper: 2)" 2 mu_full.Field.Opcount.stores;
  Alcotest.(check int) "mu-split stag stores (paper: 6)" 6 mu_stag.Field.Opcount.stores;
  Alcotest.(check int) "mu-split main stores (paper: 2)" 2 mu_main.Field.Opcount.stores;
  (* split halves the mu work: most FLOPs are staggered values (paper §5.1) *)
  let norm = Field.Opcount.normalized in
  Alcotest.(check bool) "mu-split total < mu-full" true
    (norm mu_stag + norm mu_main < norm mu_full);
  Alcotest.(check bool) "mu-split main is the cheap pass" true
    (norm mu_main * 3 < norm mu_stag);
  Alcotest.(check bool) "mu kernel uses sqrts (anti-trapping)" true (mu_full.Field.Opcount.sqrts > 0);
  Alcotest.(check bool) "mu kernel uses rsqrts (normals)" true (mu_full.Field.Opcount.rsqrts > 0)

let test_p1_ssa_and_params () =
  let g = Lazy.force p1 in
  List.iter
    (fun (k : Ir.Kernel.t) -> Field.Assignment.check_ssa k.Ir.Kernel.body)
    [ g.phi_full; g.phi_split.stag; g.phi_split.main; Option.get g.mu_full; Option.get g.projection ];
  (* frozen parameters: only the time remains a runtime argument *)
  Alcotest.(check (list string)) "phi kernel args" [ "t" ] (Ir.Kernel.parameters g.phi_full)

let test_symbolic_parameters_stay_runtime () =
  let opts = { Pfcore.Genkernels.default_options with symbolic_params = true } in
  let g = Pfcore.Genkernels.generate ~opts (Pfcore.Params.curvature ~dim:2 ()) in
  let params = Ir.Kernel.parameters g.phi_full in
  Alcotest.(check bool) "gamma stays a kernel argument" true (List.mem "gamma_0_1" params);
  Alcotest.(check bool) "eps stays a kernel argument" true (List.mem "eps" params)

let test_frozen_cheaper_than_symbolic () =
  (* compile-time specialization: the uniform τ folds the interpolation
     division away entirely, and no material parameters survive as kernel
     arguments *)
  let opts = { Pfcore.Genkernels.default_options with symbolic_params = true } in
  let generic = Pfcore.Genkernels.generate ~opts (Pfcore.Params.curvature ~dim:2 ()) in
  let frozen = Lazy.force curv in
  Alcotest.(check int) "frozen has no division" 0 (counts frozen.phi_full).Field.Opcount.divs;
  Alcotest.(check bool) "generic keeps the tau division" true
    ((counts generic.phi_full).Field.Opcount.divs > 0);
  Alcotest.(check bool) "generic keeps many runtime arguments" true
    (List.length (Ir.Kernel.parameters generic.phi_full)
    > List.length (Ir.Kernel.parameters frozen.phi_full))

let test_constant_temperature_simplifies () =
  (* the paper's ablation: a constant-T configuration folds away all
     temperature terms and needs fewer operations *)
  let p = Pfcore.Params.p1 () in
  let const_t = { p with Pfcore.Params.temp = Pfcore.Params.Const_temp 0.5 } in
  let g_grad = Lazy.force p1 and g_const = Pfcore.Genkernels.generate const_t in
  Alcotest.(check bool) "constant T needs fewer mu FLOPs" true
    (Field.Opcount.normalized (counts (Option.get g_const.mu_full))
    <= Field.Opcount.normalized (counts (Option.get g_grad.mu_full)))

let steps_match variant_phi variant_mu =
  (* full and split variants implement the same update *)
  let g = Lazy.force curv in
  let run vp vm =
    let t = Pfcore.Timestep.create ~variant_phi:vp ~variant_mu:vm ~dims:[| 12; 12 |] g in
    Pfcore.Simulation.init_sphere t;
    Pfcore.Timestep.run t ~steps:3;
    t
  in
  let a = run Pfcore.Timestep.Full Pfcore.Timestep.Full in
  let b = run variant_phi variant_mu in
  let ba = Pfcore.Simulation.phi_buffer a and bb = Pfcore.Simulation.phi_buffer b in
  let max_diff = ref 0. in
  for x = 0 to 11 do
    for y = 0 to 11 do
      for c = 0 to 1 do
        let d =
          abs_float
            (Vm.Buffer.get ba ~component:c [| x; y |] -. Vm.Buffer.get bb ~component:c [| x; y |])
        in
        if d > !max_diff then max_diff := d
      done
    done
  done;
  !max_diff

let test_split_equals_full () =
  let d = steps_match Pfcore.Timestep.Split Pfcore.Timestep.Full in
  Alcotest.(check bool) "split == full (round-off)" true (d < 1e-12)

let test_projection_keeps_simplex () =
  let g = Lazy.force curv in
  let t = Pfcore.Timestep.create ~dims:[| 16; 16 |] g in
  Pfcore.Simulation.init_sphere t;
  Pfcore.Timestep.run t ~steps:20;
  Alcotest.(check bool) "phi in [0,1]" true (Pfcore.Simulation.check_sane t);
  let fr = Pfcore.Diag.phase_fractions t in
  Alcotest.(check (float 1e-9)) "sum of fractions = 1" 1. (fr.(0) +. fr.(1))

let test_curvature_flow_shrinks () =
  let g = Lazy.force curv in
  let t = Pfcore.Timestep.create ~dims:[| 48; 48 |] g in
  Pfcore.Simulation.init_sphere t;
  let f0 = (Pfcore.Diag.phase_fractions t).(0) in
  Pfcore.Timestep.run t ~steps:150;
  let f1 = (Pfcore.Diag.phase_fractions t).(0) in
  Alcotest.(check bool) "sphere shrinks" true (f1 < f0 -. 0.001);
  Alcotest.(check bool) "sphere persists" true (f1 > 0.1)

let test_eutectic_front_advances () =
  let g = Lazy.force p1 in
  let t = Pfcore.Timestep.create ~dims:[| 16; 16; 32 |] g in
  Pfcore.Simulation.init_lamellae t;
  let z0 = Pfcore.Simulation.front_position t in
  let solid0 =
    let fr = Pfcore.Diag.phase_fractions t in
    fr.(0) +. fr.(1) +. fr.(2)
  in
  Pfcore.Timestep.run t ~steps:40;
  let z1 = Pfcore.Simulation.front_position t in
  let fr = Pfcore.Diag.phase_fractions t in
  let solid1 = fr.(0) +. fr.(1) +. fr.(2) in
  Alcotest.(check bool) "solid fraction grows" true (solid1 > solid0);
  Alcotest.(check bool) "front advances toward liquid" true (z1 > z0);
  Alcotest.(check bool) "state sane" true (Pfcore.Simulation.check_sane t)

let test_fluctuation_term_generates_rand () =
  let p = { (Pfcore.Params.curvature ~dim:2 ()) with Pfcore.Params.fluctuation = 0.01 } in
  let g = Pfcore.Genkernels.generate p in
  Alcotest.(check bool) "kernel contains Philox calls" true
    (Backend.Ccode.kernel_uses_rand g.phi_full)

let test_config_parameter_count () =
  (* paper §5.1: >50 material parameters for 4 phases / 3 components *)
  Alcotest.(check bool) "P1 has > 50 config parameters" true
    (Pfcore.Params.config_parameter_count (Pfcore.Params.p1 ()) > 50)

(* ---- the frontend's work is bounded; its kernels are pinned ---- *)

(* P2's first φ staggered flux assignment, as it reaches the per-term
   simplifier: 1,319 nodes whose expansion, a shared DAG, reads as a tree
   of 14.3 M nodes.  Walking that tree to factor and cost it allocated
   1.16e9 words and took seconds per term; the expansion, far costlier
   than the input, never won. *)
let p2_first_phi_flux () =
  let p = Pfcore.Params.p2 () in
  let f = Pfcore.Model.make_fields p in
  let ctx = Pfcore.Model.make_ctx ~symbolic:false in
  let scheme = Pfcore.Genkernels.scheme_of Pfcore.Genkernels.default_options p in
  let registry = Fd.Discretize.make_registry f.Pfcore.Model.phi_stag in
  Array.iter
    (fun rhs -> ignore (Fd.Discretize.discretize_split scheme ~registry rhs))
    (Pfcore.Model.phi_rhs ctx p f);
  (List.hd (Fd.Discretize.registry_kernel_body registry)).Field.Assignment.rhs

let test_simplify_work_bounded () =
  let e = p2_first_phi_flux () in
  Alcotest.(check int) "input nodes" 1319 (Symbolic.Expr.count_nodes e);
  let w0 = Gc.minor_words () in
  let s = Symbolic.Simplify.simplify_term e in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) (Printf.sprintf "%.3g words allocated < 1e7" words) true (words < 1e7);
  Alcotest.(check int) "same simplified form: nodes" 1316 (Symbolic.Expr.count_nodes s);
  Alcotest.(check int) "same simplified form: cost" 803 (Symbolic.Simplify.cost s)

(* The first 8 hex digits of the MD5 of every kernel's printed body
   ([Assignment.pp_list]) in the order phi_full, phi_stag, phi_main,
   mu_full, mu_stag, mu_main, projection (absent kernels skipped), for
   frozen and symbolic parameters.  Recorded before the per-term
   simplifier bounded its expansions: the bound changes no kernel. *)
let pinned_kernels =
  let module P = Pfcore.Params in
  [
    ( "curvature-2d", P.curvature ~dim:2 (),
      [ "6a436a3a"; "83f6eb4e"; "12e599ae"; "6f6d44ff" ],
      [ "4ca1a47c"; "84477260"; "7721c863"; "6f6d44ff" ] );
    ( "curvature-3d", P.curvature ~dim:3 (),
      [ "e5f846bb"; "dfed6429"; "7cfdf553"; "5b5f826d" ],
      [ "d1150a32"; "76cea142"; "374e3501"; "5b5f826d" ] );
    ( "p1-2d", P.p1 ~dim:2 (),
      [ "939a6659"; "b666fd7a"; "181442b1"; "899c5379"; "f17db611"; "8e1852d3"; "386b9dce" ],
      [ "422600d6"; "665f7f47"; "e3b69592"; "859a6222"; "b2d1c489"; "00ed3f97"; "386b9dce" ] );
    ( "p1-3d", P.p1 ~dim:3 (),
      [ "898a72e0"; "4b8419c8"; "2961cd62"; "f336fd41"; "66890540"; "e24bd497"; "bd636009" ],
      [ "977b06a7"; "5e4c0f6a"; "26648209"; "530e9e94"; "faf0c148"; "5ac21d9e"; "bd636009" ] );
    ( "p2-2d", P.p2 ~dim:2 (),
      [ "beb3037f"; "4c3dc819"; "382f48b1"; "b5d97ab0"; "40238d2d"; "400150e5"; "25d75655" ],
      [ "36976ab5"; "3b1558a1"; "bc65039b"; "3cf96b41"; "727a2278"; "082e9a26"; "25d75655" ] );
    ( "p2-3d", P.p2 ~dim:3 (),
      [ "1873f1fd"; "cd29324f"; "9bd66522"; "0e5ef356"; "219a21fb"; "c964efdb"; "acf491c1" ],
      [ "00ec126d"; "26268f48"; "cb8b1a2c"; "3304f3d8"; "9f207d69"; "c3ff2fb6"; "acf491c1" ] );
    ( "eutectic-2d", P.eutectic ~dim:2 (),
      [ "4155028b"; "a476b1e7"; "d2b96208"; "808ae24f"; "f29bee4d"; "ded0fa43"; "25d75655" ],
      [ "96f3b8d4"; "21073f0a"; "f20295d3"; "ac853e2c"; "8d53e1b5"; "7dc08bbe"; "25d75655" ] );
    ( "eutectic-3d", P.eutectic ~dim:3 (),
      [ "a7695a93"; "7cb25e12"; "f46c6214"; "e8a732b6"; "5d0db509"; "426c4724"; "acf491c1" ],
      [ "85be524e"; "854e5eea"; "4f38eaa4"; "dafbeca4"; "bc095db3"; "a06d9282"; "acf491c1" ] );
    ( "pfc-2d", P.pfc (),
      [ "079fe715"; "8f98d944"; "b7cd0447" ],
      [ "6fd20929"; "f9159a7d"; "318f74d5" ] );
    ( "gray-scott-2d", P.gray_scott (),
      [ "1d88e3c2"; "b2293ee0"; "88d61dbd" ],
      [ "3ac70cfe"; "24319f7b"; "f30164d9" ] );
  ]

let kernel_digests (g : Pfcore.Genkernels.t) =
  let pair name (p : Pfcore.Genkernels.pair) =
    [ (name ^ "_stag", p.Pfcore.Genkernels.stag); (name ^ "_main", p.Pfcore.Genkernels.main) ]
  in
  let kernels =
    [ ("phi_full", g.Pfcore.Genkernels.phi_full) ]
    @ pair "phi" g.Pfcore.Genkernels.phi_split
    @ Option.to_list (Option.map (fun k -> ("mu_full", k)) g.Pfcore.Genkernels.mu_full)
    @ Option.fold ~none:[] ~some:(pair "mu") g.Pfcore.Genkernels.mu_split
    @ Option.to_list (Option.map (fun k -> ("projection", k)) g.Pfcore.Genkernels.projection)
  in
  List.map
    (fun (name, (k : Ir.Kernel.t)) ->
      let text = Fmt.str "%a" Field.Assignment.pp_list k.Ir.Kernel.body in
      String.sub (Digest.to_hex (Digest.string (name ^ "\n" ^ text))) 0 8)
    kernels

let test_kernels_pinned () =
  List.iter
    (fun (label, p, frozen, symbolic) ->
      List.iter
        (fun (mode, symbolic_params, expected) ->
          let opts = { Pfcore.Genkernels.default_options with symbolic_params } in
          Alcotest.(check (list string))
            (Printf.sprintf "%s %s kernels" label mode)
            expected
            (kernel_digests (Pfcore.Genkernels.generate ~opts p)))
        [ ("frozen", false, frozen); ("symbolic", true, symbolic) ])
    pinned_kernels

let suite =
  [
    Alcotest.test_case "P1 phi stencil signatures" `Quick test_p1_phi_stencils;
    Alcotest.test_case "P1 mu stencil signatures" `Quick test_p1_mu_stencils;
    Alcotest.test_case "P1 Table-1 shape" `Quick test_p1_table1_shape;
    Alcotest.test_case "SSA and runtime params" `Quick test_p1_ssa_and_params;
    Alcotest.test_case "symbolic parameters stay runtime" `Quick test_symbolic_parameters_stay_runtime;
    Alcotest.test_case "frozen cheaper than generic" `Quick test_frozen_cheaper_than_symbolic;
    Alcotest.test_case "constant-T simplification" `Quick test_constant_temperature_simplifies;
    Alcotest.test_case "split == full variant" `Quick test_split_equals_full;
    Alcotest.test_case "projection keeps simplex" `Quick test_projection_keeps_simplex;
    Alcotest.test_case "curvature flow shrinks sphere" `Slow test_curvature_flow_shrinks;
    Alcotest.test_case "eutectic front advances" `Slow test_eutectic_front_advances;
    Alcotest.test_case "fluctuation generates Philox" `Quick test_fluctuation_term_generates_rand;
    Alcotest.test_case "config parameter count" `Quick test_config_parameter_count;
    Alcotest.test_case "simplify_term work is bounded (P2 flux)" `Quick
      test_simplify_work_bounded;
    Alcotest.test_case "every kernel of six families pinned" `Quick test_kernels_pinned;
  ]

let test_vtk_output () =
  let g = Lazy.force curv in
  let t = Pfcore.Timestep.create ~dims:[| 8; 8 |] g in
  Pfcore.Simulation.init_sphere t;
  let path = Filename.temp_file "pfgen" ".vtk" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pfcore.Vtkout.write_phi t path;
      let ic = open_in path in
      let header = input_line ic in
      let lines = ref 1 in
      (try
         while true do
           ignore (input_line ic);
           incr lines
         done
       with End_of_file -> ());
      close_in ic;
      Alcotest.(check string) "vtk header" "# vtk DataFile Version 3.0" header;
      (* 8x8 points, 2 phases + dominant = 3 scalar blocks of 64 values *)
      Alcotest.(check bool) "payload present" true (!lines > 3 * 64))

let suite = suite @ [ Alcotest.test_case "VTK output" `Quick test_vtk_output ]
