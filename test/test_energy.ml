(* Energy functional layer: variational derivatives against known
   Euler–Lagrange results, and the model building blocks. *)

open Symbolic
open Expr

let f2 = Fieldspec.scalar ~dim:2 "f"
let u = field f2

let test_varder_bulk_term () =
  (* δ/δu ∫ u² = 2u *)
  let d = Energy.Varder.run ~dim:2 (pow u 2) ~wrt:u in
  Alcotest.(check bool) "2u" true (equal d (mul [ num 2.; u ]))

let test_varder_gradient_term () =
  (* δ/δu ∫ |∇u|² = −2∇·∇u: one flux term per axis wrapping 2∂u *)
  let d = Energy.Varder.run ~dim:2 (Energy.Varder.grad_sq ~dim:2 u) ~wrt:u in
  let expected =
    add
      [
        neg (Diff (mul [ num 2.; Diff (u, 0) ], 0));
        neg (Diff (mul [ num 2.; Diff (u, 1) ], 1));
      ]
  in
  Alcotest.(check bool) "Euler-Lagrange of Dirichlet energy" true (equal d expected)

let test_varder_mixed () =
  (* ∫ u·∂x u is a pure boundary term: its variational derivative vanishes
     (bulk ∂x u cancels against the flux divergence) *)
  let density = mul [ u; Diff (u, 0) ] in
  let d = Energy.Varder.run ~dim:2 density ~wrt:u in
  Alcotest.(check bool) "boundary term has zero variation" true (equal d zero)

let test_interpolation_h () =
  let value x = Eval.eval (Eval.of_alist [ ("x", x) ]) (Energy.Functional.h (sym "x")) in
  Alcotest.(check (float 1e-12)) "h(0)=0" 0. (value 0.);
  Alcotest.(check (float 1e-12)) "h(1)=1" 1. (value 1.);
  Alcotest.(check (float 1e-12)) "h(1/2)=1/2" 0.5 (value 0.5);
  (* zero slope at the ends *)
  let h' = diff (Energy.Functional.h (sym "x")) ~wrt:(sym "x") in
  let slope x = Eval.eval (Eval.of_alist [ ("x", x) ]) h' in
  Alcotest.(check (float 1e-12)) "h'(0)=0" 0. (slope 0.);
  Alcotest.(check (float 1e-12)) "h'(1)=0" 0. (slope 1.)

let test_obstacle_potential () =
  let phis = [| sym "p0"; sym "p1"; sym "p2" |] in
  let w =
    Energy.Functional.obstacle ~gamma:(fun _ _ -> num 1.) ~gamma3:(fun _ _ _ -> num 2.) ~phis
  in
  let at p0 p1 p2 = Eval.eval (Eval.of_alist [ ("p0", p0); ("p1", p1); ("p2", p2) ]) w in
  Alcotest.(check (float 1e-12)) "vanishes in bulk" 0. (at 1. 0. 0.);
  let expected_pair = 16. /. (Float.pi *. Float.pi) *. 0.25 in
  Alcotest.(check (float 1e-12)) "two-phase value" expected_pair (at 0.5 0.5 0.);
  Alcotest.(check bool) "triple term positive" true
    (at 0.4 0.3 0.3 > at 0.4 0.3 0. *. 0.99)

let test_generalized_gradient_antisymmetry () =
  let a = field (Fieldspec.create ~dim:2 ~components:2 "p") in
  let b = field ~component:1 (Fieldspec.create ~dim:2 ~components:2 "p") in
  let qab = Energy.Functional.generalized_gradient ~dim:2 a b in
  let qba = Energy.Functional.generalized_gradient ~dim:2 b a in
  List.iter2
    (fun x y ->
      Alcotest.(check bool) "q_ab = -q_ba" true
        (equal (Simplify.expand x) (Simplify.expand (neg y))))
    qab qba

let test_cubic_anisotropy_limits () =
  (* along an axis direction the cubic term reaches 1 - delta*(3-4) = 1+δ;
     along the diagonal in 2D: Σq⁴/|q|⁴ = 1/2 → 1 - δ *)
  let delta = 0.3 in
  let eval_a qx qy =
    let q = [ sym "qx"; sym "qy" ] in
    let norm = add [ pow (sym "qx") 2; pow (sym "qy") 2 ] in
    let a =
      Energy.Functional.cubic_anisotropy ~delta:(num delta) ~rotation:None q ~norm_sq:norm
    in
    Eval.eval (Eval.of_alist [ ("qx", qx); ("qy", qy); ("q_eps", 1e-12) ]) a
  in
  Alcotest.(check (float 1e-9)) "axis direction" (1. +. delta) (eval_a 1. 0.);
  Alcotest.(check (float 1e-9)) "diagonal" (1. -. delta) (eval_a (sqrt 0.5) (sqrt 0.5));
  Alcotest.(check (float 1e-9)) "bulk guard" 1. (eval_a 0. 0.)

let test_rotation_invariance_of_norm () =
  (* rotations only redistribute the quartic term; a 90° rotation maps the
     cubic anisotropy onto itself *)
  let delta = 0.3 in
  let rot = [| [| 0.; -1. |]; [| 1.; 0. |] |] in
  let q = [ sym "qx"; sym "qy" ] in
  let norm = add [ pow (sym "qx") 2; pow (sym "qy") 2 ] in
  let a r = Energy.Functional.cubic_anisotropy ~delta:(num delta) ~rotation:r q ~norm_sq:norm in
  let at e qx qy = Eval.eval (Eval.of_alist [ ("qx", qx); ("qy", qy); ("q_eps", 1e-12) ]) e in
  Alcotest.(check (float 1e-9)) "fourfold symmetry" (at (a None) 0.6 0.8)
    (at (a (Some rot)) 0.6 0.8)

let test_parabolic_concentration () =
  (* c = -(2Aμ + B); with A=-1/2, B=0: c = μ *)
  let mu = [| sym "mu" |] in
  let c =
    Energy.Functional.concentration ~a:[| [| num (-0.5) |] |] ~b:[| num 0. |] ~mu
  in
  Alcotest.(check bool) "c = mu" true (equal c.(0) (sym "mu"))

let test_driving_force_interpolates () =
  let phis = [| sym "p0"; sym "p1" |] in
  let psis = [| num 2.; num 6. |] in
  let psi = Energy.Functional.driving_force ~psis ~phis in
  let at p0 p1 = Eval.eval (Eval.of_alist [ ("p0", p0); ("p1", p1) ]) psi in
  Alcotest.(check (float 1e-12)) "pure phase 0" 2. (at 1. 0.);
  Alcotest.(check (float 1e-12)) "pure phase 1" 6. (at 0. 1.)

(* ------------------------------------------------------------------ *)
(* Model-zoo combinators and the automatic variational derivative      *)
(* ------------------------------------------------------------------ *)

let test_varder_sum_rule () =
  (* δΨ/δu distributes over Functional.sum: varying the joint density
     produces exactly the flux atoms of the per-term variations *)
  let open Energy.Functional in
  let terms =
    [
      double_well ~w:(num 1.3) u;
      square_gradient ~dim:2 ~kappa:(num 0.7) u;
      linear_drive ~m:(num 0.4) u;
    ]
  in
  let joint = Energy.Varder.run ~dim:2 (sum terms) ~wrt:u in
  let split = add (List.map (fun d -> Energy.Varder.run ~dim:2 d ~wrt:u) terms) in
  Alcotest.(check bool) "joint = sum of parts" true
    (equal (Simplify.expand joint) (Simplify.expand split))

let test_varder_bulk_linearity () =
  (* for bulk densities the variation commutes with scaling structurally *)
  let open Energy.Functional in
  let d = sum [ double_well ~w:(num 1.) u; linear_drive ~m:(num 2.) u ] in
  let lhs = Energy.Varder.run ~dim:2 (scale (num 3.) d) ~wrt:u in
  let rhs = mul [ num 3.; Energy.Varder.run ~dim:2 d ~wrt:u ] in
  Alcotest.(check bool) "scale commutes with variation" true
    (equal (Simplify.expand lhs) (Simplify.expand rhs))

let test_varder_linearity_numeric () =
  (* with gradient terms the scaling constant lands inside the flux Diff
     node, so structural equality cannot hold; check the discretized values
     on the oracle-12 grid instead *)
  let open Energy.Functional in
  let f = Fieldspec.create ~dim:2 ~components:1 "o12_u" in
  let uu = field f in
  let d =
    sum [ double_well ~w:(num 1.1) uu; square_gradient ~dim:2 ~kappa:(num 0.6) uu ]
  in
  let state = Check.Oracles.o12_state ~seed:11 in
  let ad dens ~x ~y = Check.Oracles.o12_ad ~state ~bindings:[] dens ~wrt:uu ~x ~y in
  List.iter
    (fun (x, y) ->
      Alcotest.(check (float 1e-9))
        "3 * dF = d(3F)"
        (3. *. ad d ~x ~y)
        (ad (scale (num 3.) d) ~x ~y))
    [ (0, 0); (3, 4); (11, 9) ]

let test_varder_second_order () =
  (* δ/δu ∫ ½(∇²u)² = +∇⁴u: the second-order Euler–Lagrange term carries a
     plus sign (two integrations by parts); this is the rule PFC's
     (1+∇²)²ψ rides on *)
  let lap = Energy.Varder.lap ~dim:2 u in
  let d = Energy.Varder.run ~dim:2 (mul [ num 0.5; sq lap ]) ~wrt:u in
  let expected = add [ Diff (Diff (lap, 0), 0); Diff (Diff (lap, 1), 1) ] in
  Alcotest.(check bool) "biharmonic" true (equal d expected)

let test_p1_density_node_for_node () =
  (* the P1 functional assembled by the combinator frontend reproduces the
     hand-written paper eq. 3 density ε a + ω/ε + ψ node for node after
     expansion.  The right-hand side below is written from the paper
     formulas with raw Expr nodes — no Energy.Functional calls — with the
     P1 parameter values inlined. *)
  let p = Pfcore.Params.p1 () in
  let f = Pfcore.Model.make_fields p in
  let ctx = Pfcore.Model.make_ctx ~symbolic:false in
  let model = Pfcore.Model.family_density ctx p f in
  (* hand side: 4 phases (liquid = 3), 2 mu components, isotropic γ = 0.8,
     γ3 = 12, ε = 4, T kept as the placeholder symbol *)
  let t = sym "T_loc" in
  let phi a = field ~component:a f.Pfcore.Model.phi_src in
  let mu i = field ~component:i f.Pfcore.Model.mu_src in
  let pairs k = List.concat (List.init 4 (fun b -> List.init b (fun a -> k a b))) in
  let grad_a =
    add
      (pairs (fun a b ->
           mul
             [
               num 0.8;
               add
                 (List.init 3 (fun d ->
                      sq
                        (sub
                           (mul [ phi a; Diff (phi b, d) ])
                           (mul [ phi b; Diff (phi a, d) ]))));
             ]))
  in
  let obst =
    add
      [
        mul
          [
            num (16. /. (Float.pi *. Float.pi));
            add (pairs (fun a b -> mul [ num 0.8; phi a; phi b ]));
          ];
        add
          (List.concat
             (List.init 4 (fun c ->
                  List.concat
                    (List.init c (fun b ->
                         List.init b (fun a -> mul [ num 12.; phi a; phi b; phi c ]))))));
      ]
  in
  let solid_b = [| [| 0.4; 0.2 |]; [| -0.3; 0.5 |]; [| -0.1; -0.6 |] |] in
  let psi alpha =
    (* ψ_α = μ·A_α μ + B_α·μ + C_α with A, B, C affine in T (paper eq. 6) *)
    let aa = if alpha = 3 then -0.5 else -0.55 in
    let quad = add (List.init 2 (fun i -> mul [ num aa; sq (mu i) ])) in
    if alpha = 3 then quad
    else
      add
        [
          quad;
          add
            (List.init 2 (fun i ->
                 mul
                   [
                     add
                       [
                         num solid_b.(alpha).(i);
                         mul [ num (0.05 +. (0.01 *. float_of_int i)); t ];
                       ];
                     mu i;
                   ]));
          add [ num (-0.02); mul [ num 0.04; t ] ];
        ]
  in
  let h z = mul [ sq z; sub (num 3.) (mul [ num 2.; z ]) ] in
  let drive = add (List.init 4 (fun a -> mul [ psi a; h (phi a) ])) in
  let hand = add [ mul [ num 4.; grad_a ]; div obst (num 4.); drive ] in
  Alcotest.(check bool) "paper eq. 3, P1 values" true
    (equal
       (Simplify.expand ~budget:100000 hand)
       (Simplify.expand ~budget:100000 model))

(* Oracle 12 at each zoo family's preset coefficients: the automatic
   variational derivative stays within the documented budget of the
   finite-difference functional derivative over every phase component and
   a spread of probe cells (seed 5). *)
let test_zoo_oracle12_budget () =
  List.iter
    (fun family ->
      let dev, ok = Check.Oracles.o12_family_deviation family ~seed:5 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: max |AD - FD| %.5f within budget" (Check.Gen.family_name family) dev)
        true ok)
    Check.Gen.[ Eutectic; Pfc; Gray_scott ]

let suite =
  [
    Alcotest.test_case "varder: bulk term" `Quick test_varder_bulk_term;
    Alcotest.test_case "varder: gradient term" `Quick test_varder_gradient_term;
    Alcotest.test_case "varder: mixed term" `Quick test_varder_mixed;
    Alcotest.test_case "interpolation h" `Quick test_interpolation_h;
    Alcotest.test_case "obstacle potential" `Quick test_obstacle_potential;
    Alcotest.test_case "generalized gradient antisymmetry" `Quick test_generalized_gradient_antisymmetry;
    Alcotest.test_case "cubic anisotropy limits" `Quick test_cubic_anisotropy_limits;
    Alcotest.test_case "anisotropy fourfold symmetry" `Quick test_rotation_invariance_of_norm;
    Alcotest.test_case "parabolic concentration" `Quick test_parabolic_concentration;
    Alcotest.test_case "driving force interpolation" `Quick test_driving_force_interpolates;
    Alcotest.test_case "varder: sum rule" `Quick test_varder_sum_rule;
    Alcotest.test_case "varder: bulk linearity" `Quick test_varder_bulk_linearity;
    Alcotest.test_case "varder: linearity (discretized)" `Quick test_varder_linearity_numeric;
    Alcotest.test_case "varder: second-order term (biharmonic)" `Quick test_varder_second_order;
    Alcotest.test_case "P1 density = paper eq. 3, node for node" `Quick
      test_p1_density_node_for_node;
    Alcotest.test_case "zoo families: oracle-12 deviation within budget" `Quick
      test_zoo_oracle12_budget;
  ]
