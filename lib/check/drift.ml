(** ECM drift oracle: measured kernel cost vs. the analytic model.

    The paper's pipeline selects kernel variants from ECM predictions
    (Kerncraft workflow, §6); this module closes that loop mechanically.
    Every P1/P2 kernel variant — φ full, φ split, μ full, μ split, eight in
    total — is swept on the shared probe block and timed by the autotuner's
    sweep probe ([Vm.Tune.probe], median trial), and the measured per-cell
    costs are compared against [Perfmodel.Ecm] single-core predictions.

    Absolute VM numbers are meaningless (the interpreter runs one closure
    per expression node over a batch of cells, not SIMD machine code), so
    the oracle compares {e ratios}: split/full per kernel family and φ/μ
    per model.  Both sides of a ratio run in the same interpreter with the
    same per-operation overhead, so if the generated operation structure
    matches what the model was fed, the ratios must agree up to
    interpreter noise.  The drift of a pair is

      deviation = |ln (measured_ratio / predicted_ratio)|

    and the oracle's verdict requires every deviation ≤ {!threshold} plus
    the paper's headline ordering: split costs at most as much as full for
    the μ kernels (Table 1 / Fig. 2), both measured and predicted.
    `pfgen drift --check` and the [obs] test suite enforce the verdict. *)

type row = {
  model : string;          (** "P1" or "P2" *)
  variant : string;        (** "phi-full", "phi-split", "mu-full", "mu-split" *)
  measured_ns_per_lup : float;
  predicted_cy_per_lup : float;
}

type pair = {
  label : string;
  measured_ratio : float;
  predicted_ratio : float;
  deviation : float;       (** |ln (measured / predicted)| *)
}

type report = { block_n : int; sweeps : int; rows : row list; pairs : pair list }

(** Documented drift tolerance: a pair is in agreement when its measured
    ratio is within a factor of e^1.2 ≈ 3.3 of the model's.  The
    interpreter pays about the same per node and cell whatever the node
    computes, while the ECM weighs adds, mults, divisions and memory
    traffic differently, so ratios track but do not coincide; observed
    deviations are ≈0.3–0.6 (see EXPERIMENTS.md). *)
let threshold = 1.2

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* One trial of [sweeps] sweeps of all [kernels] (a split variant passes
   both its sweeps so the measured quantity is cost per full update) on
   the shared probe block, through the autotuner's sweep probe on the
   process's default pool width and backend. *)
let measure_ns_per_lup gen kernels ~dims ~sweeps =
  (Vm.Tune.probe ~backend:(Vm.Engine.default_backend ())
     ~domains:(Vm.Pool.default_domains ()) ~tile:None ~sweeps ~trials:1
     ~params:(Pfcore.Timestep.probe_params gen)
     (Pfcore.Timestep.probe_block gen ~dims)
     kernels).(0)

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let find rows model variant =
  List.find (fun r -> r.model = model && r.variant = variant) rows

let make_pair rows ~label (ma, va) (mb, vb) =
  let a = find rows ma va and b = find rows mb vb in
  let measured_ratio = a.measured_ns_per_lup /. b.measured_ns_per_lup in
  let predicted_ratio = a.predicted_cy_per_lup /. b.predicted_cy_per_lup in
  { label; measured_ratio; predicted_ratio;
    deviation = Float.abs (Float.log (measured_ratio /. predicted_ratio)) }

(** Run the oracle: measure all eight kernel variants and build the ratio
    pairs.  [n] is the cubic block edge (default 12 — big enough that loop
    overhead is amortized, small enough for the test suite).  Each variant
    is timed [reps] times, one trial of every variant per round, so a
    burst of host noise lands on all of them alike, and its median trial
    counts: one lucky or unlucky trial cannot decide an ordering. *)
let run ?(n = 12) ?(sweeps = 2) ?(reps = 9) ?(machine = Perfmodel.Machine.skylake_8174) () =
  let variants =
    List.concat_map
      (fun (model, params) ->
        let g = Pfcore.Genkernels.generate params in
        let dims = Array.make params.Pfcore.Params.dim n in
        List.concat_map
          (fun (family, candidates) ->
            List.map (fun (label, kernels) -> (model, family ^ "-" ^ label, g, kernels, dims)) candidates)
          [
            ("phi", Pfcore.Timestep.phi_candidates g);
            ("mu", Option.get (Pfcore.Timestep.mu_candidates g));
          ])
      [ ("P1", Pfcore.Params.p1 ()); ("P2", Pfcore.Params.p2 ()) ]
  in
  let trials = List.map (fun _ -> Array.make reps 0.) variants in
  for r = 0 to reps - 1 do
    List.iter2
      (fun (_, _, g, kernels, dims) ts -> ts.(r) <- measure_ns_per_lup g kernels ~dims ~sweeps)
      variants trials
  done;
  let rows =
    List.map2
      (fun (model, variant, _, kernels, _) ts ->
        Array.sort Float.compare ts;
        {
          model;
          variant;
          measured_ns_per_lup = Obs.Clock.quantile ts 0.5;
          predicted_cy_per_lup = Vm.Tune.predicted_cy_per_lup machine kernels ~block_n:n;
        })
      variants trials
  in
  let pairs =
    List.concat_map
      (fun m ->
        [
          make_pair rows ~label:(m ^ " mu split/full") (m, "mu-split") (m, "mu-full");
          make_pair rows ~label:(m ^ " phi split/full") (m, "phi-split") (m, "phi-full");
          make_pair rows ~label:(m ^ " phi/mu (full)") (m, "phi-full") (m, "mu-full");
        ])
      [ "P1"; "P2" ]
  in
  { block_n = n; sweeps; rows; pairs }

let max_deviation r = List.fold_left (fun acc p -> Float.max acc p.deviation) 0. r.pairs

(** The paper's variant-selection ordering for μ, on both sides: measured
    split ≤ full and predicted split ≤ full, for P1 and P2. *)
let mu_ordering_ok r =
  List.for_all
    (fun m ->
      let s = find r.rows m "mu-split" and f = find r.rows m "mu-full" in
      s.measured_ns_per_lup <= f.measured_ns_per_lup
      && s.predicted_cy_per_lup <= f.predicted_cy_per_lup)
    [ "P1"; "P2" ]

(** [Ok ()] when every ratio is within {!threshold} and the μ ordering
    holds; [Error msg] names the first violation. *)
let verdict r =
  if not (mu_ordering_ok r) then
    Error "mu split/full ordering disagrees with the ECM model"
  else
    match List.find_opt (fun p -> p.deviation > threshold) r.pairs with
    | Some p ->
      Error
        (Printf.sprintf "%s drifted: measured ratio %.3f vs model %.3f (deviation %.2f > %.2f)"
           p.label p.measured_ratio p.predicted_ratio p.deviation threshold)
    | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp ppf r =
  Fmt.pf ppf "ECM drift oracle: %d^3 block, %d sweep(s), VM measured vs. model@."
    r.block_n r.sweeps;
  Fmt.pf ppf "%-4s %-10s %16s %16s@." "" "variant" "measured ns/LUP" "model cy/LUP";
  List.iter
    (fun row ->
      Fmt.pf ppf "%-4s %-10s %16.1f %16.1f@." row.model row.variant
        row.measured_ns_per_lup row.predicted_cy_per_lup)
    r.rows;
  Fmt.pf ppf "@.%-20s %14s %14s %10s@." "ratio pair" "measured" "model" "deviation";
  List.iter
    (fun p ->
      Fmt.pf ppf "%-20s %14.3f %14.3f %10.2f@." p.label p.measured_ratio
        p.predicted_ratio p.deviation)
    r.pairs;
  Fmt.pf ppf "max deviation %.2f (threshold %.2f), mu ordering %s@." (max_deviation r)
    threshold
    (if mu_ordering_ok r then "agrees with model" else "DISAGREES with model")

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let to_json r =
  let row_json row =
    Printf.sprintf
      "{\"model\":%S,\"variant\":%S,\"measured_ns_per_lup\":%s,\"predicted_cy_per_lup\":%s}"
      row.model row.variant (json_num row.measured_ns_per_lup)
      (json_num row.predicted_cy_per_lup)
  in
  let pair_json p =
    Printf.sprintf
      "{\"label\":%S,\"measured_ratio\":%s,\"predicted_ratio\":%s,\"deviation\":%s}"
      p.label (json_num p.measured_ratio) (json_num p.predicted_ratio)
      (json_num p.deviation)
  in
  Printf.sprintf
    "{\"block_n\":%d,\"sweeps\":%d,\"threshold\":%s,\"max_deviation\":%s,\"mu_ordering_ok\":%b,\"rows\":[%s],\"pairs\":[%s]}\n"
    r.block_n r.sweeps (json_num threshold)
    (json_num (max_deviation r))
    (mu_ordering_ok r)
    (String.concat "," (List.map row_json r.rows))
    (String.concat "," (List.map pair_json r.pairs))
