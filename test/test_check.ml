(* Differential verification: the lib/check oracle pairs as an alcotest
   suite, plus a mutation smoke-check that the harness actually catches and
   shrinks an injected optimizer bug.

   Sample counts stay small by default (PFGEN_QCHECK_COUNT scales them up;
   the @slow alias and `pfgen check` run the heavy configurations). *)

open Symbolic

let oracle_tests =
  List.map
    (QCheck_alcotest.to_alcotest ~verbose:false)
    (Check.Harness.tests ())

(* ------------------------------------------------------------------ *)
(* Mutation smoke-check                                                *)
(* ------------------------------------------------------------------ *)

(* A deliberately broken "simplifier" (x^2 -> x^3) run through the same
   oracle-1 machinery: the harness must fail the law and hand back a small,
   shrunk counterexample.  Guards the guard: if this stops failing, the
   oracle or the shrinker went blind. *)
let test_mutation_caught () =
  let broken _bindings e =
    Expr.map_bottom_up
      (function Expr.Pow (b, 2) -> Expr.mul [ b; b; b ] | node -> node)
      e
  in
  let cell =
    Check.Oracles.expr_transform_cell ~count:500 ~name:"mutated simplifier" broken
  in
  let result = QCheck.Test.check_cell ~rand:(Random.State.make [| 42 |]) cell in
  match QCheck.TestResult.get_state result with
  | QCheck.TestResult.Failed { instances = cex :: _ } ->
    let e, env = cex.QCheck.TestResult.instance in
    let size = Expr.count_nodes e in
    if size > 12 then
      Alcotest.failf "counterexample not minimized: %d nodes after %d shrink steps (%s)"
        size cex.QCheck.TestResult.shrink_steps (Expr.to_string e);
    Alcotest.(check bool)
      "shrinker ran" true
      (cex.QCheck.TestResult.shrink_steps > 0);
    ignore env
  | _ -> Alcotest.fail "injected x^2 -> x^3 bug was not caught by oracle 1"

(* A broken engine-level law must be caught too: flipping Fmin to Fmax in
   the transform side diverges on almost any sample. *)
let test_mutation_minmax_caught () =
  let broken _bindings e =
    Expr.map_bottom_up
      (function
        | Expr.Fun (Expr.Fmin, args) -> Expr.fn Expr.Fmax args | node -> node)
      e
  in
  let cell =
    Check.Oracles.expr_transform_cell ~count:1000 ~name:"mutated fmin" broken
  in
  let result = QCheck.Test.check_cell ~rand:(Random.State.make [| 7 |]) cell in
  match QCheck.TestResult.get_state result with
  | QCheck.TestResult.Failed _ -> ()
  | _ -> Alcotest.fail "injected fmin -> fmax bug was not caught by oracle 1"

(* ------------------------------------------------------------------ *)
(* Eval edge cases (divergences would leak into generated C)           *)
(* ------------------------------------------------------------------ *)

let feq = Alcotest.float 0.

(* Pow with negative exponent at base 0: Eval computes 1/(0^n) = inf, the
   C backend emits 1.0/pf_pow2(x) which is also inf — consistent. *)
let test_pow_negative_at_zero () =
  let env = Eval.env () in
  Alcotest.check feq "0^-2 = inf" Float.infinity
    (Eval.eval env (Expr.Pow (Expr.num 0., -2)));
  Alcotest.check feq "0^-1 = inf" Float.infinity
    (Eval.eval env (Expr.Pow (Expr.num 0., -1)));
  Alcotest.check feq "(-0)^-1 = -inf" Float.neg_infinity
    (Eval.eval env (Expr.Pow (Expr.num (-0.), -1)));
  (* the engine's repeated-multiply path must agree on the inf sign *)
  let dst = Fieldspec.scalar ~dim:2 "d" and src = Fieldspec.scalar ~dim:2 "s" in
  let body =
    [ Field.Assignment.store (Fieldspec.center dst)
        (Expr.Pow (Expr.field src, -3)) ]
  in
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 2; 1 |] [ src; dst ] in
  let sbuf = Vm.Engine.buffer block src in
  Vm.Buffer.set sbuf [| 0; 0 |] 0.;
  Vm.Buffer.set sbuf [| 1; 0 |] (-0.);
  Vm.Engine.run ~params:[] (Vm.Engine.bind (Ir.Kernel.make ~name:"p" ~dim:2 body) block);
  let dbuf = Vm.Engine.buffer block dst in
  Alcotest.check feq "engine 0^-3" Float.infinity (Vm.Buffer.get dbuf [| 0; 0 |]);
  Alcotest.check feq "engine (-0)^-3" Float.neg_infinity (Vm.Buffer.get dbuf [| 1; 0 |])

(* Select boundary: Le takes the true branch at equality, Lt the false
   branch — matching the C backend's `<=` / `<` ternaries. *)
let test_select_boundary () =
  let env = Eval.env ~sym:(fun _ -> 1.) () in
  let a = Expr.sym "a" and b = Expr.sym "b" in
  let sel c = Eval.eval env (Expr.Select (c, Expr.num 10., Expr.num 20.)) in
  Alcotest.check feq "a <= b at equality -> true branch" 10. (sel (Expr.Le (a, b)));
  Alcotest.check feq "a < b at equality -> false branch" 20. (sel (Expr.Lt (a, b)));
  (* the smart constructor must fold numeric boundaries the same way *)
  Alcotest.check
    (Alcotest.testable Expr.pp Expr.equal)
    "select folds Le boundary" (Expr.num 10.)
    (Expr.select (Expr.Le (Expr.num 2., Expr.num 2.)) (Expr.num 10.) (Expr.num 20.));
  Alcotest.check
    (Alcotest.testable Expr.pp Expr.equal)
    "select folds Lt boundary" (Expr.num 20.)
    (Expr.select (Expr.Lt (Expr.num 2., Expr.num 2.)) (Expr.num 10.) (Expr.num 20.))

(* fmin/fmax with NaN: C99 semantics return the non-NaN operand.  All three
   OCaml layers (constant folder, Eval, Engine) route through
   Expr.c_fmin/c_fmax; this pins the behavior against the C backend's
   fmin()/fmax(). *)
let test_minmax_nan () =
  let nan_ = Float.nan in
  Alcotest.check feq "c_fmin nan x" 3. (Expr.c_fmin nan_ 3.);
  Alcotest.check feq "c_fmin x nan" 3. (Expr.c_fmin 3. nan_);
  Alcotest.check feq "c_fmax nan x" 3. (Expr.c_fmax nan_ 3.);
  Alcotest.check feq "c_fmax x nan" 3. (Expr.c_fmax 3. nan_);
  Alcotest.(check bool)
    "c_fmin nan nan" true
    (Float.is_nan (Expr.c_fmin nan_ nan_));
  (* Eval path *)
  let env = Eval.env ~sym:(function "n" -> nan_ | _ -> 5.) () in
  Alcotest.check feq "eval fmin(n, x) = x" 5.
    (Eval.eval env (Expr.Fun (Expr.Fmin, [ Expr.sym "n"; Expr.sym "x" ])));
  Alcotest.check feq "eval fmax(x, n) = x" 5.
    (Eval.eval env (Expr.Fun (Expr.Fmax, [ Expr.sym "x"; Expr.sym "n" ])));
  (* constant folder path *)
  Alcotest.check
    (Alcotest.testable Expr.pp Expr.equal)
    "fn folds fmin(nan, 2)" (Expr.num 2.)
    (Expr.fmin_ (Expr.num nan_) (Expr.num 2.));
  (* engine path *)
  let src = Fieldspec.scalar ~dim:2 "s" and dst = Fieldspec.scalar ~dim:2 "d" in
  let body =
    [ Field.Assignment.store (Fieldspec.center dst)
        (Expr.Fun (Expr.Fmin, [ Expr.field src; Expr.sym "q" ])) ]
  in
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 1; 1 |] [ src; dst ] in
  Vm.Buffer.set (Vm.Engine.buffer block src) [| 0; 0 |] nan_;
  Vm.Engine.run ~params:[ ("q", 4.) ]
    (Vm.Engine.bind (Ir.Kernel.make ~name:"m" ~dim:2 body) block);
  Alcotest.check feq "engine fmin(nan, 4) = 4" 4.
    (Vm.Buffer.get (Vm.Engine.buffer block dst) [| 0; 0 |])

(* ------------------------------------------------------------------ *)
(* Coverage pin                                                        *)
(* ------------------------------------------------------------------ *)

(* The oracle x family cells of the model-level battery, pinned: a leg
   dropped for a family, or a family dropped from an oracle, fails here,
   and every cell's test runs at least one sample at the @ci count. *)
let test_coverage_cells () =
  let expected =
    [
      ("1", [ "curvature"; "eutectic"; "pfc"; "gray-scott" ]);
      ("2", [ "curvature"; "P1"; "P2"; "eutectic"; "pfc"; "gray-scott" ]);
      ("3", [ "curvature"; "P1"; "P2"; "eutectic"; "pfc"; "gray-scott" ]);
      ("5", [ "curvature"; "P1"; "P2"; "eutectic"; "pfc"; "gray-scott" ]);
      ("5 adaptive", [ "curvature"; "gray-scott" ]);
      ("5 adaptive snapshot", [ "curvature"; "gray-scott" ]);
      ("5 adaptive crash", [ "curvature"; "gray-scott" ]);
      ("6 snapshot", [ "curvature"; "P1"; "P2"; "eutectic"; "pfc"; "gray-scott" ]);
      ("6 corrupted", [ "curvature"; "P1"; "P2"; "eutectic"; "pfc"; "gray-scott" ]);
      ("6 crash", [ "curvature"; "P1"; "P2"; "eutectic"; "pfc"; "gray-scott" ]);
      ("7", [ "curvature"; "P1"; "P2"; "eutectic"; "pfc"; "gray-scott" ]);
      ("8", [ "curvature"; "P1"; "P2"; "eutectic"; "pfc"; "gray-scott" ]);
      ("10", [ "P1"; "P2"; "eutectic" ]);
      ("11", [ "curvature"; "P1"; "P2"; "eutectic"; "pfc"; "gray-scott" ]);
      ("12", [ "curvature"; "eutectic"; "pfc"; "gray-scott" ]);
    ]
  in
  let cells = Check.Oracles.cells ~count:10 in
  Alcotest.(check (list (pair string string)))
    "oracle x family cells"
    (List.concat_map (fun (k, fams) -> List.map (fun f -> (k, f)) fams) expected)
    (List.map (fun (k, f, _) -> (k, Check.Gen.family_name f)) cells);
  let legs =
    List.filter_map
      (fun (QCheck2.Test.Test cell) ->
        let name = QCheck.Test.get_name cell in
        if String.ends_with ~suffix:"]" name then Some (name, QCheck.Test.get_count cell)
        else None)
      (Check.Harness.tests ~count:10 ())
  in
  Alcotest.(check int) "one test per cell" (List.length cells) (List.length legs);
  List.iter
    (fun (name, n) -> if n < 1 then Alcotest.failf "%s runs no sample at count 10" name)
    legs

let suite =
  oracle_tests
  @ [
      Alcotest.test_case "mutation: x^2 -> x^3 caught and shrunk" `Quick
        test_mutation_caught;
      Alcotest.test_case "mutation: fmin -> fmax caught" `Quick
        test_mutation_minmax_caught;
      Alcotest.test_case "eval edge: pow negative exponent at 0" `Quick
        test_pow_negative_at_zero;
      Alcotest.test_case "eval edge: select boundary Le vs Lt" `Quick
        test_select_boundary;
      Alcotest.test_case "eval edge: fmin/fmax NaN (C99 semantics)" `Quick
        test_minmax_nan;
      Alcotest.test_case "coverage: oracle x family cells" `Quick test_coverage_cells;
    ]
