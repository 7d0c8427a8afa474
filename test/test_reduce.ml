(* Reduction battery: canonical-tree edge cases (empty interiors, tiles
   larger than the sweep, all-NaN extrema, signed-zero sums, uncovered
   cells), threshold-trigger exactness, exception safety inside pooled
   reduction tiles, and the adaptive forest actually freezing bulk blocks
   while staying bitwise equal to the uniform fine-grid run. *)

open Symbolic

let with_obs f =
  Obs.Metrics.reset ();
  Obs.Sink.clear ();
  Obs.Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.disable ();
      Obs.Sink.clear ();
      Obs.Metrics.reset ())
    f

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let f2 = Fieldspec.create ~dim:2 ~components:2 "f"

let make_block dims = Vm.Engine.make_block ~ghost:2 ~dims [ f2 ]

let fill_philox (buf : Vm.Buffer.t) ~seed =
  Array.iteri
    (fun i _ ->
      buf.Vm.Buffer.data.(i) <- 0.5 +. (0.45 *. Philox.symmetric ~cell:i ~step:seed ~slot:9))
    buf.Vm.Buffer.data

(* ---- empty interiors ---- *)

(* A reduction over zero cells is the operator identity: 0 for sums, NaN
   for the C99 min/max — never a crash, never a stale partial. *)
let test_empty_interior () =
  let block = make_block [| 0; 4 |] in
  Alcotest.(check (float 0.))
    "empty sum = 0" 0.
    (Vm.Reduce.scalar ~num_domains:4 block f2 (Vm.Reduce.Component 0) Vm.Reduce.Sum);
  Alcotest.(check bool)
    "empty min = NaN" true
    (Float.is_nan
       (Vm.Reduce.scalar block f2 (Vm.Reduce.Component 0) Vm.Reduce.Min));
  Alcotest.(check bool)
    "empty max = NaN" true
    (Float.is_nan
       (Vm.Reduce.scalar block f2 (Vm.Reduce.Interface) Vm.Reduce.Max))

(* ---- tiles larger than the sweep ---- *)

let test_tile_larger_than_sweep () =
  let serial = make_block [| 5; 4 |] in
  fill_philox (Vm.Engine.buffer serial f2) ~seed:3;
  let reference =
    Vm.Reduce.scalar ~num_domains:1 serial f2 (Vm.Reduce.Component 1) Vm.Reduce.Sum
  in
  List.iter
    (fun tile ->
      let v =
        Vm.Reduce.scalar ~num_domains:4 ~tile serial f2 (Vm.Reduce.Component 1)
          Vm.Reduce.Sum
      in
      Alcotest.(check bool)
        (Printf.sprintf "tile %dx%d = serial (bitwise)" tile.(0) tile.(1))
        true (bits_equal reference v))
    [ [| 50; 50 |]; [| 1; 1 |]; [| 7; 1 |]; [| 1; 50 |] ]

(* ---- NaN extrema ---- *)

let test_all_nan_extrema () =
  let block = make_block [| 4; 3 |] in
  let buf = Vm.Engine.buffer block f2 in
  Array.iteri (fun i _ -> buf.Vm.Buffer.data.(i) <- Float.nan) buf.Vm.Buffer.data;
  Alcotest.(check bool)
    "all-NaN min = NaN" true
    (Float.is_nan
       (Vm.Reduce.scalar ~num_domains:2 block f2 (Vm.Reduce.Component 0) Vm.Reduce.Min));
  Alcotest.(check bool)
    "all-NaN max = NaN" true
    (Float.is_nan
       (Vm.Reduce.scalar block f2 (Vm.Reduce.Component 0) Vm.Reduce.Max));
  (* one finite cell: the C99 semantics ignore every NaN *)
  Vm.Buffer.set buf ~component:0 [| 2; 1 |] 3.5;
  Alcotest.(check (float 0.))
    "mixed min ignores NaNs" 3.5
    (Vm.Reduce.scalar ~num_domains:4 ~tile:[| 2; 2 |] block f2
       (Vm.Reduce.Component 0) Vm.Reduce.Min);
  Alcotest.(check (float 0.))
    "mixed max ignores NaNs" 3.5
    (Vm.Reduce.scalar block f2 (Vm.Reduce.Component 0) Vm.Reduce.Max)

(* ---- signed zero ---- *)

(* IEEE: (-0) + (-0) = -0, so a field of negative zeros must sum to a
   bitwise negative zero through every decomposition — a sign flip would
   betray an accumulator seeded with +0 somewhere in the tree. *)
let test_signed_zero_sum () =
  let block = make_block [| 6; 5 |] in
  let buf = Vm.Engine.buffer block f2 in
  Array.iteri (fun i _ -> buf.Vm.Buffer.data.(i) <- -0.) buf.Vm.Buffer.data;
  let serial =
    Vm.Reduce.scalar ~num_domains:1 block f2 (Vm.Reduce.Component 0) Vm.Reduce.Sum
  in
  Alcotest.(check bool)
    "sum of -0 cells is -0 (bitwise)" true
    (bits_equal serial (-0.));
  let pooled =
    Vm.Reduce.scalar ~num_domains:4 ~tile:[| 2; 3 |] block f2
      (Vm.Reduce.Component 0) Vm.Reduce.Sum
  in
  Alcotest.(check bool) "pooled sum keeps the sign bit" true (bits_equal serial pooled)

(* ---- coverage violations ---- *)

let test_uncovered_cell_rejected () =
  let f _ = 1. in
  let partial = Vm.Reduce.segment ~n:4 f Vm.Reduce.Sum 0 2 in
  Alcotest.check_raises "missing leaf raises"
    (Invalid_argument "Reduce.assemble: cell 2 not covered by any partial") (fun () ->
      ignore (Vm.Reduce.assemble ~n:4 Vm.Reduce.Sum [ partial ]))

(* ---- threshold triggers ---- *)

let curvature_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()))

(* A trigger must fire on the step where its value lands exactly on the
   threshold (>=, not >), record that step once, and stay fired. *)
let test_trigger_exact_threshold () =
  let gen = Lazy.force curvature_gen in
  let sim = Pfcore.Timestep.create ~dims:[| 6; 6 |] gen in
  Pfcore.Timestep.prime sim;
  let tr =
    Pfcore.Diag.trigger ~name:"steps" ~threshold:2.
      (fun t -> float_of_int t.Pfcore.Timestep.step_count)
  in
  let seen = ref [] in
  Pfcore.Timestep.run sim ~steps:4 ~on_step:(fun t ->
      seen := Pfcore.Diag.observe tr t :: !seen);
  Alcotest.(check (list bool))
    "fires exactly when value reaches threshold" [ false; true; true; true ]
    (List.rev !seen);
  Alcotest.(check (option int)) "firing step recorded once" (Some 2)
    tr.Pfcore.Diag.fired_at;
  Alcotest.(check (float 0.)) "last value tracked" 4. tr.Pfcore.Diag.last

(* ---- exception safety ---- *)

exception Poison

(* A poisoned cell function aborts the reduction at the coordinator, but
   the pool survives (the next reduction runs every tile) and every span
   stream stays balanced. *)
let test_exception_in_reduction () =
  with_obs (fun () ->
      let block = make_block [| 6; 5 |] in
      fill_philox (Vm.Engine.buffer block f2) ~seed:11;
      let poisoned =
        Vm.Reduce.Custom (fun g -> if g.(0) = 3 && g.(1) = 2 then raise Poison else 1.)
      in
      let raised =
        try
          ignore
            (Vm.Reduce.scalar ~num_domains:4 ~tile:[| 2; 2 |] block f2 poisoned
               Vm.Reduce.Sum);
          false
        with Poison -> true
      in
      Alcotest.(check bool) "poisoned cell re-raised at coordinator" true raised;
      Alcotest.(check bool)
        "span stream balanced after reduction exception" true
        (Check.Obs_props.stream_well_formed (Obs.Sink.events ()));
      let total =
        Vm.Reduce.scalar ~num_domains:4 ~tile:[| 2; 2 |] block f2
          (Vm.Reduce.Custom (fun _ -> 1.))
          Vm.Reduce.Sum
      in
      Alcotest.(check (float 0.)) "pool usable: count of all cells" 30. total)

(* ---- adaptive forest: freezing engages and is invisible ---- *)

(* Sharp 0/1 disc confined to block (0,0) of a 6x2 forest of 6x6 blocks:
   the block column farthest from the disc keeps a bulk Chebyshev-1
   neighborhood for the whole run (the interface spreads at most 2 cells
   per step, both ways around the periodic seam), so a correct adaptive
   run freezes it and keeps it frozen — and the frozen run must still be
   bitwise the uniform 36x12 run, reductions included. *)
let init_disc (sim : Pfcore.Timestep.t) =
  let fields = sim.Pfcore.Timestep.gen.Pfcore.Genkernels.fields in
  let buf = Vm.Engine.buffer sim.Pfcore.Timestep.block fields.Pfcore.Model.phi_src in
  let off = sim.Pfcore.Timestep.block.Vm.Engine.offset in
  Vm.Buffer.init buf (fun coords comp ->
      let x = float_of_int (coords.(0) + off.(0)) +. 0.5 -. 3. in
      let y = float_of_int (coords.(1) + off.(1)) +. 0.5 -. 3. in
      let v = if (x *. x) +. (y *. y) < 4. then 1. else 0. in
      if comp = 0 then v else 1. -. v)

(* One adaptive run against the uniform fine-grid run over the same
   [gd] domain, both started by [init]: bulk blocks must freeze, the frozen
   run must stay bitwise the uniform one (reductions included) and, where
   [min_savings] is given, skip at least that factor of cell updates. *)
let adaptive_case ?ranks ?min_savings ~gd ~bgrid ~steps init =
  let gen = Lazy.force curvature_gen in
  let uniform = Pfcore.Timestep.create ~dims:gd gen in
  init uniform;
  Pfcore.Timestep.prime uniform;
  Pfcore.Timestep.run uniform ~steps;
  let af = Blocks.Adaptive.create ?ranks ~bgrid ~block_dims:[| 6; 6 |] gen in
  List.iter init (Blocks.Adaptive.active_sims af);
  Blocks.Adaptive.prime af;
  Blocks.Adaptive.run af ~steps;
  Alcotest.(check bool)
    (Printf.sprintf "bulk blocks froze (%d)" (Blocks.Adaptive.frozen_blocks af))
    true
    (Blocks.Adaptive.frozen_blocks af > 0);
  let savings = Blocks.Adaptive.savings af in
  Alcotest.(check bool) "cells-touched savings > 1" true (savings > 1.);
  Option.iter
    (fun min ->
      Alcotest.(check bool)
        (Printf.sprintf "cells-touched savings %.2fx >= %.1fx" savings min)
        true (savings >= min))
    min_savings;
  let phi = gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_src in
  let ubuf = Vm.Engine.buffer uniform.Pfcore.Timestep.block phi in
  let ok = ref true in
  for gy = 0 to gd.(1) - 1 do
    for gx = 0 to gd.(0) - 1 do
      for c = 0 to phi.Fieldspec.components - 1 do
        let a = Vm.Buffer.get ubuf ~component:c [| gx; gy |] in
        let b = Blocks.Adaptive.get af phi ~component:c [| gx; gy |] in
        if not (bits_equal a b) then ok := false
      done
    done
  done;
  Alcotest.(check bool) "adaptive = uniform (bitwise)" true !ok;
  let usum =
    Vm.Reduce.scalar ~num_domains:1 uniform.Pfcore.Timestep.block phi
      Vm.Reduce.Interface Vm.Reduce.Sum
  in
  Alcotest.(check bool)
    "canonical interface count agrees over frozen nodes" true
    (bits_equal usum (Blocks.Adaptive.interface_cells af))

(* Second input: the interface-localized shrinking disc (radius 0.2 L on
   72^2, 12x12 blocks of 6^2 cells, 10 steps), whose frozen bulk must buy
   at least 2x in cells touched. *)
let test_adaptive_freezes_bitwise () =
  adaptive_case ~ranks:2 ~gd:[| 36; 12 |] ~bgrid:[| 6; 2 |] ~steps:3 init_disc;
  adaptive_case ~min_savings:2.0 ~gd:[| 72; 72 |] ~bgrid:[| 12; 12 |] ~steps:10
    (Pfcore.Simulation.init_sphere ~radius_frac:0.2)

let suite =
  [
    Alcotest.test_case "reduce: empty interior is the identity" `Quick
      test_empty_interior;
    Alcotest.test_case "reduce: tile larger than sweep = serial (bitwise)" `Quick
      test_tile_larger_than_sweep;
    Alcotest.test_case "reduce: all-NaN and mixed-NaN extrema (C99)" `Quick
      test_all_nan_extrema;
    Alcotest.test_case "reduce: signed-zero sums keep the sign bit" `Quick
      test_signed_zero_sum;
    Alcotest.test_case "reduce: uncovered cell rejected by assemble" `Quick
      test_uncovered_cell_rejected;
    Alcotest.test_case "diag: trigger fires on the exact threshold step" `Quick
      test_trigger_exact_threshold;
    Alcotest.test_case "reduce: exception in a reduction tile (usable, balanced spans)"
      `Quick test_exception_in_reduction;
    Alcotest.test_case "adaptive: bulk blocks freeze, run stays bitwise uniform" `Quick
      test_adaptive_freezes_bitwise;
  ]
