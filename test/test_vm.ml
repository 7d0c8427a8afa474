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

(* The periodic fill against a per-cell wrap-around: along each axis in
   turn, every low ghost cell (in storage order) takes the cell [n] above
   it and then every high ghost cell the cell [n] below it.  For blocks
   thinner than the ghost layer that order reads ghosts it filled itself;
   for the others every ghost ends up holding the interior cell its
   coordinates wrap to. *)
let test_periodic_fill_reference () =
  let v = Fieldspec.create ~dim:3 ~components:2 "v" in
  List.iter
    (fun (dims, ghost) ->
      let fresh () =
        let b = Vm.Buffer.create ~ghost v dims in
        Array.iteri (fun i _ -> b.Vm.Buffer.data.(i) <- float_of_int i +. 0.5) b.Vm.Buffer.data;
        b
      in
      let buf = fresh () and reference = fresh () in
      Vm.Buffer.periodic buf;
      let d = reference.Vm.Buffer.data and stride = reference.Vm.Buffer.stride in
      let coord i axis =
        (i mod reference.Vm.Buffer.comp_stride / stride.(axis) mod (dims.(axis) + (2 * ghost)))
        - ghost
      in
      for axis = 0 to 2 do
        let shift = dims.(axis) * stride.(axis) in
        for i = 0 to Array.length d - 1 do
          if coord i axis < 0 then d.(i) <- d.(i + shift)
        done;
        for i = 0 to Array.length d - 1 do
          if coord i axis >= dims.(axis) then d.(i) <- d.(i - shift)
        done
      done;
      let label = Printf.sprintf "%dx%dx%d, ghost %d" dims.(0) dims.(1) dims.(2) ghost in
      Alcotest.(check bool) (label ^ ": = per-cell fill (bitwise)") true
        (Array.for_all2
           (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           buf.Vm.Buffer.data d);
      if Array.for_all (fun n -> n >= ghost) dims then
        Alcotest.(check bool) (label ^ ": every ghost holds the cell it wraps to") true
          (Array.for_all Fun.id
             (Array.mapi
                (fun i x ->
                  let wrapped =
                    List.fold_left
                      (fun at axis ->
                        let n = dims.(axis) in
                        at + ((((coord i axis mod n) + n) mod n - coord i axis) * stride.(axis)))
                      i [ 0; 1; 2 ]
                  in
                  x = float_of_int wrapped +. 0.5)
                buf.Vm.Buffer.data)))
    [
      ([| 1; 1; 1 |], 2);
      ([| 1; 3; 2 |], 3);
      ([| 2; 2; 2 |], 2);
      ([| 24; 24; 24 |], 2);
      ([| 24; 1; 2 |], 2);
      ([| 5; 24; 3 |], 3);
    ]

let suite =
  [
    Alcotest.test_case "buffer indexing" `Quick test_buffer_indexing;
    Alcotest.test_case "periodic fill = per-cell wrap-around (n < g, n = g, n = 24)" `Quick
      test_periodic_fill_reference;
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

(* --------------- batched interpretation ----------------------------- *)

(* The per-cell reference: [Eval] over every sweep cell, one cell at a
   time, with stores canonical and integer powers spelled as the multiply
   chain both executors use ([Eval]'s [**] is libm's pow, which rounds
   differently). *)
let rec chain (e : Expr.t) : Expr.t =
  match e with
  | Pow (x, n) ->
    let x = chain x and m = abs n in
    let p = match m with 0 -> Num 1. | 1 -> x | _ -> Mul (List.init m (fun _ -> x)) in
    if n < 0 then Pow (p, -1) else p
  | Add xs -> Add (List.map chain xs)
  | Mul xs -> Mul (List.map chain xs)
  | Fun (f, xs) -> Fun (f, List.map chain xs)
  | Select (Lt (a, b), x, y) -> Select (Lt (chain a, chain b), chain x, chain y)
  | Select (Le (a, b), x, y) -> Select (Le (chain a, chain b), chain x, chain y)
  | e -> e

let reference_sweep (k : Ir.Kernel.t) (block : Vm.Engine.block) ~params ~step =
  let dim = k.Ir.Kernel.dim in
  let coords = Array.make dim 0 and temps = Hashtbl.create 64 in
  let global d = coords.(d) + block.Vm.Engine.offset.(d) in
  let gd = block.Vm.Engine.global_dims in
  let elt (a : Fieldspec.access) =
    let buf = Vm.Engine.buffer block a.Fieldspec.field in
    (buf, Vm.Buffer.base_index buf coords + Vm.Buffer.access_delta buf a)
  in
  let dx = Option.value (List.assoc_opt "dx" params) ~default:1. in
  let env =
    Eval.env
      ~sym:(fun s ->
        match Hashtbl.find_opt temps s with Some v -> v | None -> List.assoc s params)
      ~access:(fun a ->
        let buf, i = elt a in
        buf.Vm.Buffer.data.(i))
      ~coord:(fun d -> (float_of_int (global d) +. 0.5) *. dx)
      ~rand:(fun slot ->
        let cell =
          match dim with
          | 3 -> (((global 2 * gd.(1)) + global 1) * gd.(0)) + global 0
          | 2 -> (global 1 * gd.(0)) + global 0
          | _ -> global 0
        in
        Philox.symmetric ~cell ~step ~slot)
      ()
  in
  let body =
    List.map
      (fun (a : Field.Assignment.t) -> { a with Field.Assignment.rhs = chain a.Field.Assignment.rhs })
      k.Ir.Kernel.body
  in
  let last ax =
    match k.Ir.Kernel.iteration with
    | Ir.Kernel.StaggeredSweep axes when List.mem ax axes -> block.Vm.Engine.dims.(ax)
    | _ -> block.Vm.Engine.dims.(ax) - 1
  in
  let rec loop d =
    if d = dim then begin
      Hashtbl.reset temps;
      List.iter
        (fun (a : Field.Assignment.t) ->
          let v = Eval.eval env a.Field.Assignment.rhs in
          match a.Field.Assignment.lhs with
          | Field.Assignment.Temp t -> Hashtbl.replace temps t v
          | Field.Assignment.Store acc ->
            let buf, i = elt acc in
            buf.Vm.Buffer.data.(i) <- Expr.canonical v)
        body
    end
    else
      for i = 0 to last d do
        coords.(d) <- i;
        loop (d + 1)
      done
  in
  loop 0

(* Fill every buffer of a block, ghosts included, with values in
   [0.05, 0.95] drawn from [seed]. *)
let fill_block (block : Vm.Engine.block) ~seed =
  let st = Random.State.make [| seed |] in
  List.iter
    (fun (_, (buf : Vm.Buffer.t)) ->
      Array.iteri
        (fun i _ -> buf.Vm.Buffer.data.(i) <- 0.05 +. Random.State.float st 0.9)
        buf.Vm.Buffer.data)
    block.Vm.Engine.buffers

let blocks_bits_equal (a : Vm.Engine.block) (b : Vm.Engine.block) =
  List.for_all2
    (fun (_, (x : Vm.Buffer.t)) (_, (y : Vm.Buffer.t)) -> data_bits_equal x.Vm.Buffer.data y.Vm.Buffer.data)
    a.Vm.Engine.buffers b.Vm.Engine.buffers

(* Sweep [k] on the interpreter — whole, or as interior then shell, or in
   2-cell tiles — and by the reference, from the same data: every buffer
   must hold the same bits. *)
let check_batched ~name ?(step = 5) ~make_block ~params k =
  let regions = [ [ Vm.Engine.Whole ]; [ Vm.Engine.Interior 1; Vm.Engine.Shell 1 ] ] in
  let tiles = [ None; Some (Array.make k.Ir.Kernel.dim 2) ] in
  let reference = make_block () in
  fill_block reference ~seed:step;
  reference_sweep k reference ~params ~step;
  List.iter
    (fun tile ->
      List.iter
        (fun region ->
          let block = make_block () in
          fill_block block ~seed:step;
          let bound = Vm.Engine.bind k block in
          List.iter
            (fun region ->
              Vm.Engine.run ~num_domains:1 ?tile ~step ~backend:Vm.Engine.Interp ~region ~params
                bound)
            region;
          Alcotest.(check bool)
            (Printf.sprintf "%s, %d region(s)%s: = Eval cell by cell (bitwise)" name
               (List.length region)
               (if tile = None then "" else ", 2-cell tiles"))
            true (blocks_bits_equal block reference))
        regions)
    tiles

let f3 = Fieldspec.scalar ~dim:3 "f3"
let g3 = Fieldspec.scalar ~dim:3 "g3"

(* A 3D kernel with temporaries that depend on z only, on y only and on
   nothing, as [axes] asks: with a y and a z temporary the lowering loops
   y, z, x and batches rows; with z alone it batches planes; with none,
   the whole tile. *)
let hoisting_kernel axes =
  let acc d o = access (Fieldspec.shift (Fieldspec.center f3) d o) in
  let temp name axis = Field.Assignment.assign_temp name (add [ mul [ num 1.5; coord axis ]; sym "a" ]) in
  let temps =
    Field.Assignment.assign_temp "k" (mul [ sym "a"; num 0.25 ])
    :: List.map (fun axis -> temp (Printf.sprintf "t%d" axis) axis) axes
  in
  let uses = List.map (fun axis -> sym (Printf.sprintf "t%d" axis)) axes in
  Ir.Kernel.make ~name:"hoisting" ~dim:3
    (temps
    @ [
        Field.Assignment.store (Fieldspec.center g3)
          (add
             ([ mul [ sym "k"; field f3 ]; acc 0 1; acc 1 (-1); pow (acc 2 1) 3; coord 0 ] @ uses));
      ])

let test_batch_shapes () =
  let params = [ ("a", 0.7); ("dx", 0.5) ] in
  List.iter
    (fun (axes, batch_from, label) ->
      let k = hoisting_kernel axes in
      List.iter
        (fun dims ->
          let make_block () =
            Vm.Engine.make_block ~ghost:1 ~offset:[| 2; 1; 3 |] ~global_dims:[| 20; 20; 20 |]
              ~dims [ f3; g3 ]
          in
          check_batched ~params ~make_block k
            ~name:(Printf.sprintf "%s on %dx%dx%d" label dims.(0) dims.(1) dims.(2)))
        [ [| 5; 4; 3 |]; [| 9; 7; 6 |]; [| 70; 2; 1 |]; [| 1; 4; 3 |]; [| 1; 1; 1 |] ];
      Alcotest.(check int) (label ^ ": batches start at loop depth") batch_from
        (Lazy.force (Vm.Engine.program k).Vm.Engine.tree).Vm.Engine.batch_from)
    [ ([ 1; 2 ], 2, "rows"); ([ 2 ], 1, "planes"); ([], 0, "whole tiles") ]

let p1_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p1 ()))
let p2_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p2 ()))

(* P1's and P2's φ and μ kernels, full and split (the staggered pass
   sweeps rows of 7), and the projection, on 6^3 blocks. *)
let test_batched_models () =
  List.iter
    (fun (model, gen) ->
      let gen = Lazy.force gen in
      let make_block () = Pfcore.Timestep.probe_block gen ~dims:[| 6; 6; 6 |] in
      let params = Pfcore.Timestep.probe_params gen in
      let variants =
        Pfcore.Timestep.phi_candidates gen
        @ Option.value ~default:[] (Pfcore.Timestep.mu_candidates gen)
      in
      List.iter
        (fun (label, kernels) ->
          List.iter
            (fun (k : Ir.Kernel.t) ->
              check_batched ~params ~make_block k
                ~name:(Printf.sprintf "%s %s %s" model label k.Ir.Kernel.name))
            kernels)
        (variants @ [ ("", Option.to_list gen.Pfcore.Genkernels.projection) ]))
    [ ("P1", p1_gen); ("P2", p2_gen) ]

(* The float rules hold where the lanes of one batch differ: a sum of
   four -0 terms, Select on NaN, fmin/fmax on NaN and on zeros of either
   sign, and a NaN store, against [Eval] cell by cell. *)
let test_batched_float_rules () =
  let a = Fieldspec.scalar ~dim:2 "a" and b = Fieldspec.scalar ~dim:2 "b" in
  let outs = List.init 5 (fun i -> Fieldspec.scalar ~dim:2 (Printf.sprintf "o%d" i)) in
  let store i e = Field.Assignment.store (Fieldspec.center (List.nth outs i)) e in
  let k =
    Ir.Kernel.make ~name:"float_rules" ~dim:2
      [
        store 0 (Add [ field a; field b; field a; field b ]);
        store 1 (Select (Lt (field a, field b), field a, field b));
        store 2 (fmin_ (field a) (field b));
        store 3 (fmax_ (field a) (field b));
        store 4 (Mul [ field a; field b ]);
      ]
  in
  let specials =
    [| -0.; 0.; Float.nan; Int64.float_of_bits 0x7FF0000000000123L; -1.5; 2.; -.Float.nan |]
  in
  let make_block () = Vm.Engine.make_block ~ghost:1 ~dims:[| 13; 5 |] (a :: b :: outs) in
  (* every pair of specials, within one or two batches *)
  let fill block =
    let at c = (c.(1) * 13) + c.(0) in
    Vm.Buffer.init (Vm.Engine.buffer block a) (fun c _ -> specials.(at c mod 7));
    Vm.Buffer.init (Vm.Engine.buffer block b) (fun c _ -> specials.(at c / 7 mod 7))
  in
  let reference = make_block () and block = make_block () in
  fill reference;
  fill block;
  reference_sweep k reference ~params:[] ~step:0;
  Vm.Engine.run ~num_domains:1 ~backend:Vm.Engine.Interp ~params:[] (Vm.Engine.bind k block);
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (o.Fieldspec.name ^ ": = Eval cell by cell (bitwise)")
        true
        (data_bits_equal (Vm.Engine.buffer block o).Vm.Buffer.data
           (Vm.Engine.buffer reference o).Vm.Buffer.data))
    outs

(* Lane scratch carries nothing between sweeps: a 2D kernel with Rand and
   Coord, swept right after a 3D kernel with a large z coordinate, writes
   the bits of the same sweep on a fresh domain. *)
let test_lane_scratch_fresh () =
  let noise =
    Ir.Kernel.make ~name:"noise2" ~dim:2
      [
        Field.Assignment.store (Fieldspec.center g2)
          (add [ rand 0; mul [ coord 1; rand 1 ]; coord 0 ]);
      ]
  in
  let sweep2 () =
    let block =
      Vm.Engine.make_block ~ghost:1 ~offset:[| 3; 4 |] ~global_dims:[| 16; 16 |] ~dims:[| 7; 5 |]
        [ g2 ]
    in
    Vm.Engine.run ~num_domains:1 ~step:9 ~backend:Vm.Engine.Interp ~params:[ ("dx", 0.25) ]
      (Vm.Engine.bind noise block);
    Array.copy (Vm.Engine.buffer block g2).Vm.Buffer.data
  in
  let fresh = Domain.join (Domain.spawn sweep2) in
  let deep =
    Ir.Kernel.make ~name:"deep3" ~dim:3
      [ Field.Assignment.store (Fieldspec.center g3) (add [ coord 2; coord 1; rand 2 ]) ]
  in
  let block3 =
    Vm.Engine.make_block ~ghost:1 ~offset:[| 0; 0; 900 |] ~global_dims:[| 8; 8; 1000 |]
      ~dims:[| 8; 8; 8 |] [ g3 ]
  in
  Vm.Engine.run ~num_domains:1 ~step:9 ~backend:Vm.Engine.Interp ~params:[ ("dx", 1.) ]
    (Vm.Engine.bind deep block3);
  Alcotest.(check bool) "2D sweep after a 3D one = the same sweep on a fresh lane (bitwise)" true
    (data_bits_equal fresh (sweep2 ()))

(* Batches need independent cells: a kernel that reads a field it stores
   at another cell is refused when its program is built, and an in-place
   read at the cell itself (the projection's) still runs. *)
let test_batched_independence () =
  let k =
    Ir.Kernel.make ~name:"smear" ~dim:2
      [ Field.Assignment.store (Fieldspec.center f2) (access (Fieldspec.shift (Fieldspec.center f2) 0 1)) ]
  in
  (match Vm.Engine.program k with
  | _ -> Alcotest.fail "a read of a stored field off its cell was accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) ("the refusal names the field: " ^ msg) true
      (Astring.String.is_infix ~affix:"field f," msg));
  let in_place =
    Ir.Kernel.make ~name:"in_place" ~dim:2
      [
        Field.Assignment.assign_temp "c" (fmax_ (field f2) (num 0.5));
        Field.Assignment.store (Fieldspec.center f2) (mul [ sym "c"; num 2. ]);
        Field.Assignment.store (Fieldspec.center g2) (add [ field f2; sym "c" ]);
      ]
  in
  check_batched ~params:[] ~make_block:(fun () -> Vm.Engine.make_block ~ghost:1 ~dims:[| 9; 4 |] [ f2; g2 ]) in_place
    ~name:"in-place read at the cell"

(* An interpreted P1 step on an 8^3 block allocates at most 16 minor
   words per cell: no boxed float per node and cell. *)
let test_interp_step_allocation () =
  Obs.Sink.disable ();
  let sim =
    Pfcore.Timestep.create ~num_domains:1 ~backend:Vm.Engine.Interp ~dims:[| 8; 8; 8 |]
      (Lazy.force p1_gen)
  in
  Pfcore.Simulation.init_model sim;
  Pfcore.Timestep.prime sim;
  Pfcore.Timestep.run sim ~steps:2;
  let steps = 3 in
  let w0 = Gc.minor_words () in
  Pfcore.Timestep.run sim ~steps;
  let per_cell =
    (Gc.minor_words () -. w0) /. float_of_int (steps * Pfcore.Timestep.lups_per_step sim)
  in
  Alcotest.(check bool) (Printf.sprintf "%.2f minor words per cell <= 16" per_cell) true
    (per_cell <= 16.)

(* An interpreted P2 φ-full sweep on a 6^3 block allocates at most 2
   minor words per cell: its Philox fluctuation term draws without a
   record, tuple or array per round (the record-based rounds cost ~486
   words per cell). *)
let test_interp_philox_allocation () =
  Obs.Sink.disable ();
  let gen = Lazy.force p2_gen in
  let sim =
    Pfcore.Timestep.create ~num_domains:1 ~backend:Vm.Engine.Interp ~dims:[| 6; 6; 6 |] gen
  in
  Pfcore.Simulation.init_model sim;
  Pfcore.Timestep.prime sim;
  let phi = List.hd sim.Pfcore.Timestep.phi (* the full variant: one kernel *) in
  let sweep step =
    Vm.Engine.sweep ~num_domains:1 ~tile:None ~backend:Vm.Engine.Interp ~region:Vm.Engine.Whole
      ~step ~params:(Pfcore.Timestep.runtime_params sim) phi
  in
  sweep 0;
  let sweeps = 3 in
  let w0 = Gc.minor_words () in
  for step = 1 to sweeps do
    sweep step
  done;
  let per_cell =
    (Gc.minor_words () -. w0) /. float_of_int (sweeps * Pfcore.Timestep.lups_per_step sim)
  in
  Alcotest.(check bool) (Printf.sprintf "%.2f minor words per cell <= 2" per_cell) true
    (per_cell <= 2.)

let suite =
  suite
  @ [
      Alcotest.test_case "batches: an interpreted P2 phi-full sweep allocates <= 2 words per \
                          cell" `Quick test_interp_philox_allocation;
      Alcotest.test_case "batches: rows, planes, whole tiles = Eval (bitwise)" `Quick
        test_batch_shapes;
      Alcotest.test_case "batches: P1/P2 phi and mu, full and split = Eval (bitwise)" `Quick
        test_batched_models;
      Alcotest.test_case "batches: float rules across differing lanes = Eval" `Quick
        test_batched_float_rules;
      Alcotest.test_case "batches: lane scratch carries nothing between sweeps" `Quick
        test_lane_scratch_fresh;
      Alcotest.test_case "batches: off-cell read of a stored field refused" `Quick
        test_batched_independence;
      Alcotest.test_case "batches: an interpreted P1 step allocates <= 16 words per cell" `Quick
        test_interp_step_allocation;
    ]
