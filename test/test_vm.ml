(* VM substrate: buffer indexing, periodic ghosts, kernel execution against
   hand-computed stencils, hoisting correctness, and Domains parallelism. *)

open Symbolic
open Expr

let f2 = Fieldspec.scalar ~dim:2 "f"
let g2 = Fieldspec.scalar ~dim:2 "g"

let test_buffer_indexing () =
  let buf = Vm.Buffer.create ~ghost:2 f2 [| 4; 3 |] in
  Vm.Buffer.set buf [| 1; 2 |] 7.;
  Alcotest.(check (float 0.)) "set/get roundtrip" 7. (Vm.Buffer.get buf [| 1; 2 |]);
  Alcotest.(check (float 0.)) "other cells untouched" 0. (Vm.Buffer.get buf [| 0; 0 |]);
  let delta = Vm.Buffer.access_delta buf (Fieldspec.access f2 [| 1; -1 |]) in
  let base = Vm.Buffer.base_index buf [| 1; 2 |] in
  Alcotest.(check (float 0.)) "relative access" 7.
    buf.Vm.Buffer.data.(base + Vm.Buffer.access_delta buf (Fieldspec.access f2 [| 0; 0 |]));
  ignore delta

let test_buffer_components () =
  let vf = Fieldspec.create ~dim:2 ~components:3 "v" in
  let buf = Vm.Buffer.create ~ghost:1 vf [| 4; 4 |] in
  Vm.Buffer.set buf ~component:2 [| 1; 1 |] 9.;
  Alcotest.(check (float 0.)) "component slabs disjoint" 0.
    (Vm.Buffer.get buf ~component:1 [| 1; 1 |]);
  Alcotest.(check (float 0.)) "component read" 9. (Vm.Buffer.get buf ~component:2 [| 1; 1 |])

let test_periodic_exchange () =
  let buf = Vm.Buffer.create ~ghost:2 f2 [| 4; 4 |] in
  Vm.Buffer.init buf (fun c _ -> float_of_int ((c.(0) * 10) + c.(1)));
  Vm.Buffer.periodic buf;
  (* low x ghost = high x interior *)
  Alcotest.(check (float 0.)) "x wrap" (Vm.Buffer.get buf [| 3; 1 |])
    buf.Vm.Buffer.data.(Vm.Buffer.base_index buf [| -1; 1 |]);
  (* corner ghost filled by the two-pass exchange *)
  Alcotest.(check (float 0.)) "corner wrap" (Vm.Buffer.get buf [| 3; 3 |])
    buf.Vm.Buffer.data.(Vm.Buffer.base_index buf [| -1; -1 |])

let test_swap () =
  let a = Vm.Buffer.create ~ghost:1 f2 [| 2; 2 |] in
  let b = Vm.Buffer.create ~ghost:1 f2 [| 2; 2 |] in
  Vm.Buffer.fill a 1.;
  Vm.Buffer.fill b 2.;
  Vm.Buffer.swap a b;
  Alcotest.(check (float 0.)) "swapped" 2. (Vm.Buffer.get a [| 0; 0 |])

(* A 5-point average kernel, executed by the engine and checked cell by
   cell against a direct computation. *)
let avg_kernel () =
  let acc d k = access (Fieldspec.shift (Fieldspec.center f2) d k) in
  let rhs =
    mul [ num 0.2; add [ field f2; acc 0 1; acc 0 (-1); acc 1 1; acc 1 (-1) ] ]
  in
  Ir.Kernel.make ~name:"avg" ~dim:2 [ Field.Assignment.store (Fieldspec.center g2) rhs ]

let run_avg ~num_domains =
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 8; 6 |] [ f2; g2 ] in
  let fbuf = Vm.Engine.buffer block f2 in
  Vm.Buffer.init fbuf (fun c _ -> float_of_int ((c.(0) * 3) + (c.(1) * 7)));
  Vm.Buffer.periodic fbuf;
  let bound = Vm.Engine.bind (avg_kernel ()) block in
  Vm.Engine.run ~num_domains ~params:[] bound;
  block

let test_engine_stencil () =
  let block = run_avg ~num_domains:1 in
  let fbuf = Vm.Engine.buffer block f2 and gbuf = Vm.Engine.buffer block g2 in
  let at c = fbuf.Vm.Buffer.data.(Vm.Buffer.base_index fbuf c) in
  for x = 0 to 7 do
    for y = 0 to 5 do
      let expect =
        0.2
        *. (at [| x; y |] +. at [| x + 1; y |] +. at [| x - 1; y |] +. at [| x; y + 1 |]
          +. at [| x; y - 1 |])
      in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "cell %d,%d" x y)
        expect
        (Vm.Buffer.get gbuf [| x; y |])
    done
  done

let test_engine_domains_equal_serial () =
  let b1 = run_avg ~num_domains:1 and b4 = run_avg ~num_domains:4 in
  let g1 = Vm.Engine.buffer b1 g2 and g4 = Vm.Engine.buffer b4 g2 in
  for x = 0 to 7 do
    for y = 0 to 5 do
      Alcotest.(check (float 0.)) "parallel == serial"
        (Vm.Buffer.get g1 [| x; y |])
        (Vm.Buffer.get g4 [| x; y |])
    done
  done

let test_engine_params_and_coords () =
  (* g = alpha * x_coordinate, with dx scaling *)
  let k =
    Ir.Kernel.make ~name:"coords" ~dim:2
      [ Field.Assignment.store (Fieldspec.center g2) (mul [ sym "alpha"; coord 0 ]) ]
  in
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 4; 2 |] [ g2 ] in
  let bound = Vm.Engine.bind k block in
  Vm.Engine.run ~params:[ ("alpha", 2.); ("dx", 0.5) ] bound;
  let gbuf = Vm.Engine.buffer block g2 in
  Alcotest.(check (float 1e-12)) "coord value" (2. *. ((3. +. 0.5) *. 0.5))
    (Vm.Buffer.get gbuf [| 3; 0 |])

let test_engine_rand_determinism () =
  let k =
    Ir.Kernel.make ~name:"noise" ~dim:2
      [ Field.Assignment.store (Fieldspec.center g2) (rand 0) ]
  in
  let run () =
    let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 4; 4 |] [ g2 ] in
    let bound = Vm.Engine.bind k block in
    Vm.Engine.run ~step:3 ~params:[] bound;
    Vm.Buffer.get (Vm.Engine.buffer block g2) [| 2; 1 |]
  in
  Alcotest.(check (float 0.)) "counter-based noise reproducible" (run ()) (run ());
  Alcotest.(check bool) "noise in range" true (abs_float (run ()) < 1.)

let test_engine_hoisting_matches_unhoisted () =
  (* an assignment depending only on the y coordinate is hoisted; the result
     must equal the direct evaluation *)
  let body =
    [
      Field.Assignment.assign_temp "row" (mul [ num 3.; coord 1 ]);
      Field.Assignment.store (Fieldspec.center g2) (add [ sym "row"; coord 0 ]);
    ]
  in
  let k = Ir.Kernel.make ~name:"hoist" ~dim:2 body in
  let lowered = Ir.Lower.run k in
  Alcotest.(check int) "one hoisted assignment" 1 (Ir.Lower.hoisted_count lowered);
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 3; 3 |] [ g2 ] in
  let bound = Vm.Engine.bind k block in
  Vm.Engine.run ~params:[ ("dx", 1.) ] bound;
  let gbuf = Vm.Engine.buffer block g2 in
  Alcotest.(check (float 1e-12)) "hoisted value" ((3. *. 2.5) +. 1.5)
    (Vm.Buffer.get gbuf [| 1; 2 |])

let test_staggered_sweep_extent () =
  let st = Fieldspec.create ~kind:Fieldspec.Staggered ~dim:2 ~components:1 "st" in
  let k =
    Ir.Kernel.make ~iteration:(Ir.Kernel.StaggeredSweep [ 0; 1 ]) ~name:"st" ~dim:2
      [
        Field.Assignment.store
          (Fieldspec.staggered_access st [| 0; 0 |] ~axis:0)
          (num 1.);
      ]
  in
  let block = Vm.Engine.make_block ~ghost:2 ~dims:[| 3; 3 |] [ st ] in
  let bound = Vm.Engine.bind k block in
  Vm.Engine.run ~params:[] bound;
  let buf = Vm.Engine.buffer block st in
  (* the sweep covers one extra layer: cell (3,1) was written *)
  Alcotest.(check (float 0.)) "extended layer written" 1.
    buf.Vm.Buffer.data.(Vm.Buffer.base_index buf [| 3; 1 |])

(* One program per kernel: two bindings of one kernel to different blocks
   share its lowering and its JIT memo key; a different kernel of the same
   body gets its own program. *)
let test_bindings_share_program () =
  let k = avg_kernel () in
  let block dims = Vm.Engine.make_block ~ghost:1 ~dims [ f2; g2 ] in
  let a = Vm.Engine.bind k (block [| 8; 6 |]) and b = Vm.Engine.bind k (block [| 3; 5 |]) in
  Alcotest.(check bool) "one lowering" true (a.Vm.Engine.lowered == b.Vm.Engine.lowered);
  Alcotest.(check bool) "one memo key" true (a.Vm.Engine.jit_key == b.Vm.Engine.jit_key);
  let c = Vm.Engine.bind (avg_kernel ()) (block [| 8; 6 |]) in
  Alcotest.(check bool) "another kernel, another program" false
    (a.Vm.Engine.lowered == c.Vm.Engine.lowered)

(* The ghost check stays per binding: a kernel whose program exists still
   refuses a block with too few ghost layers. *)
let test_programmed_kernel_checks_ghosts () =
  let k = avg_kernel () in
  ignore (Vm.Engine.bind k (Vm.Engine.make_block ~ghost:1 ~dims:[| 4; 4 |] [ f2; g2 ]));
  let thin = Vm.Engine.make_block ~ghost:0 ~dims:[| 4; 4 |] [ f2; g2 ] in
  Alcotest.(check bool) "too few ghosts raises" true
    (match Vm.Engine.bind k thin with _ -> false | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "buffer indexing" `Quick test_buffer_indexing;
    Alcotest.test_case "buffer components" `Quick test_buffer_components;
    Alcotest.test_case "periodic exchange fills corners" `Quick test_periodic_exchange;
    Alcotest.test_case "buffer swap" `Quick test_swap;
    Alcotest.test_case "engine 5-point stencil" `Quick test_engine_stencil;
    Alcotest.test_case "domains == serial" `Quick test_engine_domains_equal_serial;
    Alcotest.test_case "params and coordinates" `Quick test_engine_params_and_coords;
    Alcotest.test_case "philox kernel determinism" `Quick test_engine_rand_determinism;
    Alcotest.test_case "loop-invariant hoisting" `Quick test_engine_hoisting_matches_unhoisted;
    Alcotest.test_case "staggered sweep extent" `Quick test_staggered_sweep_extent;
    Alcotest.test_case "bindings of one kernel share its program" `Quick
      test_bindings_share_program;
    Alcotest.test_case "a programmed kernel still checks ghosts" `Quick
      test_programmed_kernel_checks_ghosts;
  ]

(* --------------- typing pass --------------------------------------- *)

let test_typing_classifies () =
  let k =
    Ir.Kernel.make ~name:"typed" ~dim:2
      [
        Field.Assignment.assign_temp "a" (mul [ sym "alpha"; coord 0 ]);
        Field.Assignment.store (Fieldspec.center g2) (add [ sym "a"; field f2 ]);
      ]
  in
  let types = Ir.Typing.parameter_types k in
  Alcotest.(check (list (pair string string)))
    "parameters are doubles"
    [ ("alpha", "double") ]
    (List.map (fun (s, t) -> (s, Ir.Typing.to_string t)) types);
  let env = Ir.Typing.check k in
  Alcotest.(check bool) "coordinate requires an int->double cast" true (env.Ir.Typing.casts > 0)

let test_typing_rejects_diff () =
  let body = [ Field.Assignment.store (Fieldspec.center g2) (Expr.Diff (field f2, 0)) ] in
  (* Kernel.make accepts it (ghost analysis only); typing must reject *)
  let k = Ir.Kernel.make ~name:"bad" ~dim:2 body in
  Alcotest.(check bool) "Diff rejected" true
    (try
       ignore (Ir.Typing.check k);
       false
     with Ir.Typing.Type_error _ -> true)

let suite =
  suite
  @ [
      Alcotest.test_case "typing classifies symbols" `Quick test_typing_classifies;
      Alcotest.test_case "typing rejects Diff" `Quick test_typing_rejects_diff;
    ]
