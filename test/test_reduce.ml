(* Reduction battery: the exact accumulator against an independent
   Shewchuk/fsum reference (permuted, re-split and encoded partials),
   crafted cancellations, overflow and half-even ties, signed zeros and
   non-finite cells, the total order of the extrema, the coverage check
   of [finish]; block-level edge cases (empty interiors, tiles larger
   than the sweep, all-NaN extrema); threshold-trigger exactness,
   exception safety inside pooled reduction tiles, and the adaptive
   forest actually freezing bulk blocks while staying bitwise equal to
   the uniform fine-grid run. *)

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
   for min/max — never a crash, never a stale partial. *)
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
  (* one finite cell: the extrema skip every NaN *)
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
   betray a partial that lost track of its zeros' signs. *)
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

(* ---- the exact accumulator ---- *)

let sum_of xs =
  let p = Vm.Reduce.empty Vm.Reduce.Sum in
  Array.iter (Vm.Reduce.add p) xs;
  Vm.Reduce.finish ~n:(Array.length xs) p

let check_bits name expected got =
  Alcotest.(check int64) name (Int64.bits_of_float expected) (Int64.bits_of_float got)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Up to 64 cells whose exponents cluster around a random centre in
   [2^-1074, 2^1000], so they overlap, carry and round; one in eight is
   subnormal, and some cancel an earlier cell exactly. *)
let random_cells rng =
  let centre = Random.State.int rng 2075 - 1074 in
  let cell () =
    let sign = if Random.State.bool rng then 1. else -1. in
    if Random.State.int rng 8 = 0 then
      sign *. Float.ldexp (float_of_int (Random.State.bits rng)) (-1074)
    else
      let e = max (-1074) (min 1000 (centre + Random.State.int rng 121 - 60)) in
      sign *. Float.ldexp (1. +. Random.State.float rng 1.) e
  in
  let xs = Array.init (1 + Random.State.int rng 64) (fun _ -> cell ()) in
  Array.append xs
    (Array.init (Random.State.int rng 8) (fun _ ->
         -.xs.(Random.State.int rng (Array.length xs))))

(* Permute the cells, deal them to 1-7 partials, send every partial
   through the wire codec and merge them in a random order. *)
let split_sum rng xs =
  let xs = Array.copy xs in
  shuffle rng xs;
  let parts = Array.init (1 + Random.State.int rng 7) (fun _ -> Vm.Reduce.empty Vm.Reduce.Sum) in
  Array.iter (fun x -> Vm.Reduce.add parts.(Random.State.int rng (Array.length parts)) x) xs;
  let parts = Array.map (fun p -> Vm.Reduce.decode (Vm.Reduce.encode p)) parts in
  shuffle rng parts;
  Vm.Reduce.finish ~n:(Array.length xs)
    (Array.fold_left Vm.Reduce.merge (Vm.Reduce.empty Vm.Reduce.Sum) parts)

let test_random_multisets () =
  let rng = Random.State.make [| 25 |] in
  for i = 1 to 400 do
    let xs = random_cells rng in
    let reference = Check.Fsum.sum xs in
    check_bits (Printf.sprintf "multiset %d, first split = fsum" i) reference (split_sum rng xs);
    check_bits (Printf.sprintf "multiset %d, second split = fsum" i) reference (split_sum rng xs)
  done

let test_crafted_sums () =
  let max = Float.max_float and tiny = Float.ldexp 1. (-1074) in
  check_bits "1e308 + 1e308 - 1e308 - 1e308 + 1 = 1" 1.
    (sum_of [| 1e308; 1e308; -1e308; -1e308; 1. |]);
  check_bits "max + max - max = max" max (sum_of [| max; max; -.max |]);
  check_bits "max + max = inf" Float.infinity (sum_of [| max; max |]);
  check_bits "1 + 2^-53 = 1 (tie to even)" 1. (sum_of [| 1.; Float.ldexp 1. (-53) |]);
  check_bits "1 + 2^-53 + 2^-1074 = 1 + 2^-52" (1. +. Float.epsilon)
    (sum_of [| 1.; Float.ldexp 1. (-53); tiny |]);
  check_bits "2^-1074 + 2^-1074 = 2^-1073" (Float.ldexp 1. (-1073)) (sum_of [| tiny; tiny |]);
  Alcotest.(check bool) "inf + (-inf) is NaN" true
    (Float.is_nan (sum_of [| Float.infinity; 1.; Float.neg_infinity |]));
  check_bits "only -0 cells sum to -0" (-0.) (sum_of [| -0.; -0.; -0. |]);
  check_bits "-0 and +0 sum to +0" 0. (sum_of [| -0.; 0.; -0. |]);
  check_bits "1 + (-1) = +0" 0. (sum_of [| 1.; -1. |]);
  check_bits "the empty sum is +0" 0. (sum_of [||])

(* Integer-valued cells below 2^53 sum exactly, and a frozen block's
   O(1) constant equals adding its cells one by one. *)
let test_exact_counts () =
  let rng = Random.State.make [| 9216 |] in
  let cells = Array.init 9216 (fun _ -> float_of_int (Random.State.int rng 2)) in
  let ones = Array.fold_left (fun n x -> if x = 1. then n + 1 else n) 0 cells in
  check_bits "0/1 cells sum to their count" (float_of_int ones) (sum_of cells);
  let p = Vm.Reduce.empty Vm.Reduce.Sum in
  Vm.Reduce.add_const p 0.1 ~count:9216;
  check_bits "add_const 0.1 ~count:9216 = 9216 adds" (sum_of (Array.make 9216 0.1))
    (Vm.Reduce.finish ~n:9216 p)

let test_extrema_total_order () =
  let extremum op xs =
    let p = Vm.Reduce.empty op in
    Array.iter (Vm.Reduce.add p) xs;
    Vm.Reduce.finish ~n:(Array.length xs) p
  in
  List.iter
    (fun xs ->
      check_bits "min {-0, +0} = -0" (-0.) (extremum Vm.Reduce.Min xs);
      check_bits "max {-0, +0} = +0" 0. (extremum Vm.Reduce.Max xs))
    [ [| -0.; 0. |]; [| 0.; -0. |]; [| Float.nan; 0.; -0.; Float.nan |] ]

(* ---- coverage violations ---- *)

let test_cover_checked () =
  let cover cells =
    let p = Vm.Reduce.empty Vm.Reduce.Sum in
    Vm.Reduce.add_const p 1. ~count:cells;
    p
  in
  Alcotest.check_raises "2 of 4 cells raises"
    (Invalid_argument "Reduce.finish: partials cover 2 cells of 4") (fun () ->
      ignore (Vm.Reduce.finish ~n:4 (cover 2)));
  Alcotest.check_raises "a double cover raises"
    (Invalid_argument "Reduce.finish: partials cover 8 cells of 4") (fun () ->
      ignore (Vm.Reduce.finish ~n:4 (Vm.Reduce.merge (cover 4) (cover 4))));
  Alcotest.(check (float 0.)) "an exact cover sums" 4. (Vm.Reduce.finish ~n:4 (cover 4))

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
    "interface count agrees over frozen blocks" true
    (bits_equal usum (Blocks.Run.interface_cells (Blocks.Run.Adaptive af)))

(* Second input: the interface-localized shrinking disc (radius 0.2 L on
   72^2, 12x12 blocks of 6^2 cells, 10 steps), whose frozen bulk must buy
   at least 2x in cells touched. *)
let test_adaptive_freezes_bitwise () =
  adaptive_case ~ranks:2 ~gd:[| 36; 12 |] ~bgrid:[| 6; 2 |] ~steps:3 init_disc;
  adaptive_case ~min_savings:2.0 ~gd:[| 72; 72 |] ~bgrid:[| 12; 12 |] ~steps:10
    (Pfcore.Simulation.init_sphere ~radius_frac:0.2)

(* One interface-fraction reduction over the 96^2 eutectic forest of 8x8
   blocks of 12^2 reads each cell by flat index from storage.  When every
   cell came back boxed from a reader closure and every block formatted
   its span name with the sink off, this call allocated 4,062,049 bytes
   (11% interface cells) and the benchmark's forest 1,027,730; the bound
   is 1/8 of the smaller. *)
let test_interface_fraction_allocation () =
  Obs.Sink.disable ();
  let forest =
    Blocks.Forest.create ~num_domains:1 ~grid:[| 8; 8 |] ~block_dims:[| 12; 12 |]
      (Pfcore.Genkernels.generate (Pfcore.Params.eutectic ()))
  in
  Array.iter Pfcore.Simulation.init_model forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  Blocks.Forest.run forest ~steps:2;
  let fraction () = Blocks.Reduce.interface_fraction ~num_domains:1 forest in
  let first = fraction () in
  (* a minor collection inside the window adds about a minor heap's worth
     to the minor-word counter (1.9 MB read for 60 KB allocated), so the
     window starts on an empty minor heap *)
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  let again = fraction () in
  let bytes = Gc.allocated_bytes () -. b0 in
  Alcotest.(check bool) (Printf.sprintf "interface cells present (fraction %g)" first) true
    (first > 0.);
  Alcotest.(check bool) "a repeat reads the same bits" true (bits_equal first again);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes <= 1/8 of 1,027,730" bytes)
    true
    (bytes <= 1_027_730. /. 8.)

let suite =
  [
    Alcotest.test_case "reduce: an interface fraction allocates <= 1/8 of the boxed reads" `Quick
      test_interface_fraction_allocation;
    Alcotest.test_case "reduce: empty interior is the identity" `Quick
      test_empty_interior;
    Alcotest.test_case "reduce: tile larger than sweep = serial (bitwise)" `Quick
      test_tile_larger_than_sweep;
    Alcotest.test_case "reduce: all-NaN and mixed-NaN extrema skip NaNs" `Quick
      test_all_nan_extrema;
    Alcotest.test_case "reduce: signed-zero sums keep the sign bit" `Quick
      test_signed_zero_sum;
    Alcotest.test_case "reduce: split partials = fsum reference (bitwise)" `Quick
      test_random_multisets;
    Alcotest.test_case "reduce: crafted sums round once, to nearest-even" `Quick
      test_crafted_sums;
    Alcotest.test_case "reduce: exact counts and O(1) constant blocks" `Quick
      test_exact_counts;
    Alcotest.test_case "reduce: min/max put -0 before +0 in any order" `Quick
      test_extrema_total_order;
    Alcotest.test_case "reduce: finish rejects a partial or double cover" `Quick
      test_cover_checked;
    Alcotest.test_case "diag: trigger fires on the exact threshold step" `Quick
      test_trigger_exact_threshold;
    Alcotest.test_case "reduce: exception in a reduction tile (usable, balanced spans)"
      `Quick test_exception_in_reduction;
    Alcotest.test_case "adaptive: bulk blocks freeze, run stays bitwise uniform" `Quick
      test_adaptive_freezes_bitwise;
  ]
