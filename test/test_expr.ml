(* Symbolic expression core: normalization, differentiation, simplification.
   Property-based tests check that every algebraic pass preserves numeric
   values on random expressions and random environments. *)

open Symbolic
open Expr

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Random expression generator (division-safe: only positive symbol
   values, powers in [-2, 3], no transcendentals that could overflow)   *)
(* ------------------------------------------------------------------ *)

let syms = [| "a"; "b"; "c"; "d" |]

let gen_expr =
  let open QCheck.Gen in
  sized_size (int_bound 24) (fun n ->
      fix
        (fun self n ->
          if n = 0 then
            oneof
              [
                map (fun x -> num (float_of_int x /. 4.)) (int_range (-8) 8);
                map (fun i -> sym syms.(i)) (int_range 0 (Array.length syms - 1));
              ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map2 (fun a b -> add [ a; b ]) sub sub;
                map2 (fun a b -> mul [ a; b ]) sub sub;
                map2 (fun a b -> Expr.sub a b) sub sub;
                map (fun a -> pow a 2) sub;
                map (fun a -> pow a 3) sub;
                map (fun a -> fn Fabs [ a ]) sub;
                map2 (fun a b -> fmax_ a b) sub sub;
                map2 (fun a b -> select (Lt (a, b)) a b) sub sub;
              ])
        n)

let arb_expr = QCheck.make ~print:Expr.to_string (QCheck.Gen.map (fun e -> e) gen_expr)

let env_of_floats (a, b, c, d) =
  Eval.of_alist [ ("a", a); ("b", b); ("c", c); ("d", d) ]

let arb_env =
  let g = QCheck.Gen.(quad (float_range 0.1 3.) (float_range 0.1 3.) (float_range 0.1 3.) (float_range 0.1 3.)) in
  QCheck.make g

(* expansion re-associates sums: tolerate FP noise, and skip the rare
   overflow cases where both sides leave the well-conditioned range *)
let close a b =
  if not (Float.is_finite a && Float.is_finite b) then a = b || (Float.is_nan a && Float.is_nan b)
  else
    let scale = Float.max 1. (Float.max (abs_float a) (abs_float b)) in
    abs_float (a -. b) /. scale < 1e-6 || abs_float a > 1e12

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_add_normalization () =
  let a = sym "a" and b = sym "b" in
  Alcotest.(check bool) "x+x = 2x" true (equal (add [ a; a ]) (mul [ num 2.; a ]));
  Alcotest.(check bool) "a+b-a = b" true (equal (add [ a; b; neg a ]) b);
  Alcotest.(check bool) "0 identity" true (equal (add [ zero; a ]) a);
  Alcotest.(check bool) "constants fold" true (equal (add [ num 1.; num 2. ]) (num 3.));
  Alcotest.(check bool) "nested flatten" true
    (equal (add [ add [ a; b ]; neg b ]) a)

let test_mul_normalization () =
  let a = sym "a" and b = sym "b" in
  Alcotest.(check bool) "x*x = x^2" true (equal (mul [ a; a ]) (pow a 2));
  Alcotest.(check bool) "x*x^-1 = 1" true (equal (mul [ a; pow a (-1) ]) one);
  Alcotest.(check bool) "zero absorbs" true (equal (mul [ zero; a; b ]) zero);
  Alcotest.(check bool) "1 identity" true (equal (mul [ one; a ]) a);
  Alcotest.(check bool) "constants fold" true (equal (mul [ num 2.; num 3.; a ]) (mul [ num 6.; a ]))

let test_pow_normalization () =
  let a = sym "a" in
  Alcotest.(check bool) "x^0 = 1" true (equal (pow a 0) one);
  Alcotest.(check bool) "x^1 = x" true (equal (pow a 1) a);
  Alcotest.(check bool) "(x^2)^3 = x^6" true (equal (pow (pow a 2) 3) (pow a 6));
  Alcotest.(check bool) "2^3 = 8" true (equal (pow (num 2.) 3) (num 8.));
  Alcotest.(check bool) "(xy)^2 distributes" true
    (equal (pow (mul [ a; sym "b" ]) 2) (mul [ pow a 2; pow (sym "b") 2 ]))

let test_select_folding () =
  let a = sym "a" in
  Alcotest.(check bool) "decided true" true (equal (select (Lt (num 1., num 2.)) a zero) a);
  Alcotest.(check bool) "decided false" true (equal (select (Lt (num 2., num 1.)) a zero) zero);
  Alcotest.(check bool) "equal branches" true (equal (select (Lt (a, zero)) a a) a)

let test_derivative_basics () =
  let a = sym "a" and b = sym "b" in
  let d e = diff e ~wrt:a in
  Alcotest.(check bool) "d(a)/da = 1" true (equal (d a) one);
  Alcotest.(check bool) "d(b)/da = 0" true (equal (d b) zero);
  Alcotest.(check bool) "d(a^3) = 3a^2" true (equal (d (pow a 3)) (mul [ num 3.; pow a 2 ]));
  Alcotest.(check bool) "product rule" true
    (equal (d (mul [ a; b ])) b);
  Alcotest.(check bool) "chain sqrt" true
    (close
       (Eval.eval (env_of_floats (2., 0., 0., 0.)) (d (sqrt_ a)))
       (0.5 /. sqrt 2.))

let test_derivative_wrt_subterm () =
  (* Differentiating w.r.t. a Diff atom: the variational-derivative trick. *)
  let phi = sym "phi" in
  let dphi = Diff (phi, 0) in
  let e = add [ pow phi 2; mul [ num 3.; pow dphi 2 ] ] in
  Alcotest.(check bool) "d/d(grad phi)" true
    (equal (diff e ~wrt:dphi) (mul [ num 6.; dphi ]))

let test_spatial_diff () =
  let phi = sym "phi_like" in
  (* spatially constant: derivative vanishes *)
  Alcotest.(check bool) "const" true (equal (spatial_diff (mul [ num 3.; phi ]) 0) zero);
  let f = Fieldspec.scalar ~dim:2 "f" in
  let acc = field f in
  Alcotest.(check bool) "linear pulls constants" true
    (equal (spatial_diff (mul [ num 3.; acc ]) 0) (mul [ num 3.; Diff (acc, 0) ]))

let test_free_syms () =
  let e = add [ sym "x"; mul [ sym "y"; sym "x" ] ] in
  Alcotest.(check (list string)) "free" [ "x"; "y" ] (free_syms e)

let test_subst () =
  let a = sym "a" in
  let e = add [ pow a 2; a ] in
  check_float "subst numeric" 6. (Eval.eval (Eval.of_alist []) (subst_syms [ ("a", num 2.) ] e))

let test_pp_roundtrip () =
  let e = add [ mul [ num 2.; sym "a" ]; pow (sym "b") (-1) ] in
  Alcotest.(check bool) "printable" true (String.length (to_string e) > 0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_expand_preserves =
  QCheck.Test.make ~name:"expand preserves value" ~count:300 (QCheck.pair arb_expr arb_env)
    (fun (e, env) ->
      let env = env_of_floats env in
      close (Eval.eval env e) (Eval.eval env (Simplify.expand e)))

let prop_factor_preserves =
  QCheck.Test.make ~name:"factor_common preserves value" ~count:300
    (QCheck.pair arb_expr arb_env) (fun (e, env) ->
      let env = env_of_floats env in
      close (Eval.eval env e) (Eval.eval env (Simplify.factor_common e)))

let prop_simplify_preserves =
  QCheck.Test.make ~name:"simplify_term preserves value" ~count:300
    (QCheck.pair arb_expr arb_env) (fun (e, env) ->
      let env = env_of_floats env in
      close (Eval.eval env e) (Eval.eval env (Simplify.simplify_term e)))

let prop_simplify_not_costlier =
  QCheck.Test.make ~name:"simplify_term never increases cost" ~count:300 arb_expr (fun e ->
      Simplify.cost (Simplify.simplify_term e) <= Simplify.cost e)

let has_kink e =
  fold
    (fun k n ->
      k || match n with Select _ | Fun ((Fabs | Fmin | Fmax), _) -> true | _ -> false)
    false e

(* [d e] (the symbolic derivative in [a]) against the central difference
   of [e] at h = 1e-6.  The tolerance is 1e-3 relative plus the
   quotient's own rounding bound: each of the [count_nodes e] operations
   evaluating f(a ± h) may round by eps times the largest magnitude M of
   any subterm there, and the difference of two such values divided by 2h
   is off by up to count_nodes * eps * M / h — far more than 1e-3 of the
   derivative once M is large (f about 2.2e10 at h = 1e-6 leaves only
   five significant digits). *)
let derivative_matches ?(d = fun e -> diff e ~wrt:(sym "a")) e (a, b, c, dd) =
  let h = 1e-6 in
  let env x = env_of_floats (x, b, c, dd) in
  let f x = Eval.eval (env x) e in
  let largest x = fold (fun m n -> Float.max m (abs_float (Eval.eval (env x) n))) 0. e in
  let deriv = Eval.eval (env a) (d e) in
  let numeric = (f (a +. h) -. f (a -. h)) /. (2. *. h) in
  let rounding =
    float_of_int (count_nodes e) *. epsilon_float
    *. Float.max (largest (a +. h)) (largest (a -. h))
    /. h
  in
  let scale = Float.max 1. (Float.max (abs_float deriv) (abs_float numeric)) in
  abs_float (deriv -. numeric) < (1e-3 *. scale) +. rounding

let prop_derivative_matches_numeric =
  QCheck.Test.make ~name:"symbolic derivative ~ finite difference" ~count:300
    (QCheck.pair arb_expr arb_env) (fun (e, env) ->
      (* piecewise kinks break central differences; restrict to smooth exprs *)
      QCheck.assume (not (has_kink e));
      derivative_matches e env)

(* The two instances that failed the relative tolerance alone: a constant
   of 1.3e13 leaves f(a + h) and f(a - h) the same double (central
   difference 0 against 30.75), and f about 2.2e10 leaves the quotient
   off by 0.2 in 106.6.  A derivative rule that is wrong — here d(u^3)
   taken as d(u^2) — still fails the check on random expressions. *)
let test_derivative_check_bound () =
  let a = sym "a" and c = sym "c" and d = sym "d" in
  let pinned =
    [
      ( add [ num (-13306217837829.65); mul [ num 0.00564; pow (add [ a; d ]) 6 ] ],
        (1.9058, 1., 1., 2.) );
      (add [ pow (add [ c; d ]) 18; pow (mul [ num 4.; a; add [ c; d ] ]) 2 ], (0.2365, 1., 1.8, 1.954));
    ]
  in
  List.iter
    (fun (e, env) ->
      Alcotest.(check bool) (Expr.to_string e) true (derivative_matches e env))
    pinned;
  let wrong e = diff (map_bottom_up (function Pow (u, 3) -> pow u 2 | n -> n) e) ~wrt:a in
  let cell =
    QCheck.Test.make_cell ~count:300 (QCheck.pair arb_expr arb_env) (fun (e, env) ->
        has_kink e || derivative_matches ~d:wrong e env)
  in
  match
    QCheck.TestResult.get_state (QCheck.Test.check_cell ~rand:(Random.State.make [| 3 |]) cell)
  with
  | QCheck.TestResult.Failed _ -> ()
  | _ -> Alcotest.fail "a wrong d(u^3) rule passed the derivative check"

let prop_count_nodes_positive =
  QCheck.Test.make ~name:"count_nodes >= 1" ~count:200 arb_expr (fun e -> count_nodes e >= 1)

(* Regression pins from the zoo bugfix sweep: the derivative of fmin/fmax
   guards must follow the active branch (a select, not a smooth blend), and
   nested same-axis Diff atoms must behave as independent symbols under
   [diff] — the rule Varder's second-order Euler–Lagrange term relies on. *)
let test_diff_fmin_fmax () =
  let a = sym "a" and b = sym "b" in
  let d e = diff e ~wrt:a in
  let at ~a:av ~b:bv e = Eval.eval (env_of_floats (av, bv, 0., 0.)) e in
  (* fmin picks a's slope where a <= b, b's slope (0) where b < a *)
  Alcotest.(check (float 0.)) "fmin, a active" 1. (at ~a:1. ~b:2. (d (fmin_ a b)));
  Alcotest.(check (float 0.)) "fmin, b active" 0. (at ~a:3. ~b:2. (d (fmin_ a b)));
  Alcotest.(check (float 0.)) "fmax, b active" 0. (at ~a:1. ~b:2. (d (fmax_ a b)));
  Alcotest.(check (float 0.)) "fmax, a active" 1. (at ~a:3. ~b:2. (d (fmax_ a b)));
  (* composite guard: d/da fmax(a², a) switches between 2a and 1 *)
  Alcotest.(check (float 0.)) "fmax of a^2 vs a, quadratic branch" 6.
    (at ~a:3. ~b:0. (d (fmax_ (sq a) a)));
  Alcotest.(check (float 0.)) "fmax of a^2 vs a, linear branch" 1.
    (at ~a:0.5 ~b:0. (d (fmax_ (sq a) a)))

let test_diff_nested_diff_atom () =
  let f = Fieldspec.scalar ~dim:2 "f" in
  let u = field f in
  let uxx = Diff (Diff (u, 0), 0) in
  (* the second-derivative atom is an independent symbol: ∂(½ uxx²)/∂uxx =
     uxx, and it is opaque to ∂/∂u and to the first-derivative atom *)
  Alcotest.(check bool) "quadratic in the atom" true
    (equal (diff (mul [ num 0.5; sq uxx ]) ~wrt:uxx) uxx);
  Alcotest.(check bool) "opaque to d/du" true (equal (diff (sq uxx) ~wrt:u) zero);
  Alcotest.(check bool) "opaque to d/d(ux)" true
    (equal (diff (sq uxx) ~wrt:(Diff (u, 0))) zero);
  (* mixed atoms Diff(Diff(u,0),1) are distinct from Diff(Diff(u,1),0) *)
  let uxy = Diff (Diff (u, 0), 1) and uyx = Diff (Diff (u, 1), 0) in
  Alcotest.(check bool) "mixed atoms distinct" true (equal (diff (sq uxy) ~wrt:uyx) zero)

let suite =
  [
    Alcotest.test_case "add normalization" `Quick test_add_normalization;
    Alcotest.test_case "mul normalization" `Quick test_mul_normalization;
    Alcotest.test_case "pow normalization" `Quick test_pow_normalization;
    Alcotest.test_case "select folding" `Quick test_select_folding;
    Alcotest.test_case "derivative basics" `Quick test_derivative_basics;
    Alcotest.test_case "derivative wrt subterm" `Quick test_derivative_wrt_subterm;
    Alcotest.test_case "spatial diff" `Quick test_spatial_diff;
    Alcotest.test_case "free symbols" `Quick test_free_syms;
    Alcotest.test_case "substitution" `Quick test_subst;
    Alcotest.test_case "pretty printing" `Quick test_pp_roundtrip;
    Alcotest.test_case "fmin/fmax derivative follows the active branch" `Quick
      test_diff_fmin_fmax;
    Alcotest.test_case "nested Diff atoms are independent symbols" `Quick
      test_diff_nested_diff_atom;
    Alcotest.test_case "derivative check: rounding bound, wrong rule fails" `Quick
      test_derivative_check_bound;
    QCheck_alcotest.to_alcotest prop_expand_preserves;
    QCheck_alcotest.to_alcotest prop_factor_preserves;
    QCheck_alcotest.to_alcotest prop_simplify_preserves;
    QCheck_alcotest.to_alcotest prop_simplify_not_costlier;
    QCheck_alcotest.to_alcotest prop_derivative_matches_numeric;
    QCheck_alcotest.to_alcotest prop_count_nodes_positive;
  ]
