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

(* --------------- resolved JIT sweeps -------------------------------- *)

(* The JIT programs a time step sweeps are native: a step that fell back
   to the interpreter fails here rather than passing slowly. *)
let native_step (sim : Pfcore.Timestep.t) =
  List.iter
    (fun (b : Vm.Engine.bound) ->
      let c =
        Vm.Jit.get ~target:b.Vm.Engine.jit_target (Lazy.force b.Vm.Engine.jit_key)
          b.Vm.Engine.kernel b.Vm.Engine.lowered
      in
      Alcotest.(check bool)
        (b.Vm.Engine.kernel.Ir.Kernel.name ^ " is native: " ^ c.Vm.Jit.tier)
        true (c.Vm.Jit.entry <> None))
    (sim.Pfcore.Timestep.phi @ Option.to_list sim.Pfcore.Timestep.projection
   @ sim.Pfcore.Timestep.mu)

let data_bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* g = alpha * (5-point sum of f) + t: two parameters, from a list built
   anew every step. *)
let param_kernel () =
  let acc d k = access (Fieldspec.shift (Fieldspec.center f2) d k) in
  Ir.Kernel.make ~name:"resolved" ~dim:2
    [
      Field.Assignment.store (Fieldspec.center g2)
        (add
           [ mul [ sym "alpha"; add [ field f2; acc 0 1; acc 0 (-1); acc 1 1; acc 1 (-1) ] ];
             sym "t" ]);
    ]

(* One binding swept on the JIT step after step, its twin on the
   interpreter, with a src/dst swap between steps: the resolved sweep must
   follow the swapped storage, re-resolve when the region, the tile shape
   or the pool width changes, take the recompiled program after
   [Jit.clear_cache], and read a parameter list in any order. *)
let test_resolved_sweep_bitwise () =
  let k = param_kernel () in
  let block () =
    let b = Vm.Engine.make_block ~ghost:1 ~dims:[| 9; 7 |] [ f2; g2 ] in
    let f = Vm.Engine.buffer b f2 in
    Vm.Buffer.init f (fun c _ -> sin (float_of_int ((c.(0) * 5) + (c.(1) * 3))));
    Vm.Buffer.periodic f;
    b
  in
  let jb = block () and ib = block () in
  let jit = Vm.Engine.bind k jb and interp = Vm.Engine.bind k ib in
  let whole = [ Vm.Engine.Whole ] and split = [ Vm.Engine.Interior 1; Vm.Engine.Shell 1 ] in
  (* tile, pool width, regions, clear the memo first, parameter order *)
  let steps =
    [
      (None, 1, whole, false, false);
      (None, 1, whole, false, false);
      (None, 1, split, false, false);
      (Some [| 2; 2 |], 1, whole, false, true);
      (Some [| 2; 2 |], 3, whole, false, false);
      (Some [| 2; 2 |], 3, whole, true, false);
      (Some [| 3; 0 |], 2, split, false, false);
      (None, 1, whole, false, false);
    ]
  in
  List.iteri
    (fun s (tile, num_domains, regions, clear, reversed) ->
      if clear then Vm.Jit.clear_cache ();
      let params = [ ("alpha", 0.2 +. (0.01 *. float_of_int s)); ("t", float_of_int s) ] in
      let params = if reversed then List.rev params else params in
      List.iter
        (fun region ->
          Vm.Engine.run ~num_domains ?tile ~step:s ~backend:Vm.Engine.Jit ~region ~params jit;
          Vm.Engine.run ~num_domains:1 ~step:s ~backend:Vm.Engine.Interp ~region ~params interp)
        regions;
      let c =
        Vm.Jit.get ~target:jit.Vm.Engine.jit_target (Lazy.force jit.Vm.Engine.jit_key) k
          jit.Vm.Engine.lowered
      in
      Alcotest.(check bool) (Printf.sprintf "step %d: native" s) true (c.Vm.Jit.entry <> None);
      Alcotest.(check bool)
        (Printf.sprintf "step %d: every resolved sweep runs the memo's program" s)
        true
        (jit.Vm.Engine.sweeps <> []
        && List.for_all (fun r -> r.Vm.Engine.compiled == c) jit.Vm.Engine.sweeps);
      Alcotest.(check bool)
        (Printf.sprintf "step %d: JIT = interpreter (bitwise)" s)
        true
        (data_bits_equal (Vm.Engine.buffer jb g2).Vm.Buffer.data
           (Vm.Engine.buffer ib g2).Vm.Buffer.data);
      List.iter
        (fun b ->
          Vm.Buffer.swap (Vm.Engine.buffer b f2) (Vm.Engine.buffer b g2);
          Vm.Buffer.periodic (Vm.Engine.buffer b f2))
        [ jb; ib ])
    steps;
  Alcotest.(check bool) "a binding keeps a bounded set of resolved sweeps" true
    (List.length jit.Vm.Engine.sweeps <= Vm.Engine.max_resolved)

(* A warm P1 24^3 step on the JIT: its three sweeps and the periodic ghost
   fill allocate almost nothing. *)
let test_p1_step_allocation () =
  Obs.Sink.disable ();
  let gen = Pfcore.Genkernels.generate (Pfcore.Params.p1 ()) in
  let sim =
    Pfcore.Timestep.create ~num_domains:1 ~backend:Vm.Engine.Jit ~dims:[| 24; 24; 24 |] gen
  in
  Pfcore.Simulation.init_model sim;
  Pfcore.Timestep.prime sim;
  Pfcore.Timestep.run sim ~steps:2;
  native_step sim;
  let steps = 5 in
  let w0 = Gc.minor_words () in
  Pfcore.Timestep.run sim ~steps;
  let per_cell =
    (Gc.minor_words () -. w0) /. float_of_int (steps * Pfcore.Timestep.lups_per_step sim)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per cell < 0.1" per_cell)
    true (per_cell < 0.1)

let suite =
  suite
  @ [
      Alcotest.test_case "resolved JIT sweep = interpreter across swap, cache clear, region, \
                          tile and pool width" `Quick test_resolved_sweep_bitwise;
      Alcotest.test_case "a warm P1 step allocates < 0.1 words per cell" `Quick
        test_p1_step_allocation;
    ]
