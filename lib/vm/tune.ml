(** ECM-guided kernel autotuner.

    The paper's pipeline picks the kernel variant (full vs. split) and the
    spatial blocking from the ECM model plus short benchmark runs (§6, the
    Kerncraft workflow).  This module reproduces that decision for the VM:

    + every candidate variant is scored analytically
      ([Perfmodel.Ecm.predict]) {e and} probed with a short measured sweep
      on a small block — the probe decides, the model explains and prunes;
    + tile shapes for the winning variant are ranked by the ECM's
      layer-condition traffic at the blocked extent, and the top shapes are
      probed; the cache simulator ([Perfmodel.Cachesim]) replays the chosen
      configuration as an independent traffic cross-check;
    + decisions are cached per model {e fingerprint} (kernel structure,
      block dims, domain count), so [Core.Timestep], [pfgen simulate] and
      the bench harness pay for each tuning decision once per process.

    Probes run through the same [Engine.run_plain]/[Pool] path as
    production sweeps, so a decision measures exactly what will execute. *)

type choice = {
  fingerprint : int;
  domains : int;
  variant : int;  (** index into the candidate list handed to [decide] *)
  variant_label : string;
  tile : int array option;  (** loop-depth tile shape; [None] = default schedule *)
  predicted_cy : (string * float) list;  (** ECM cy/LUP per candidate *)
  measured_ns : (string * float) list;  (** probe ns/LUP per candidate *)
  tile_trials : (int array * float) list;  (** probed shapes, ns/LUP *)
  cachesim_bytes_per_lup : float;  (** LRU-simulated traffic of the winner *)
  backend : Engine.backend;  (** faster of interpreter/JIT on the winner *)
  backend_ns : (string * float) list;  (** probe ns/LUP per backend *)
  overlap : bool;  (** run the inner/outer split so exchanges can overlap *)
  overlap_ns : (string * float) list;  (** probe ns/LUP: whole vs. split sweep *)
}

(* ------------------------------------------------------------------ *)
(* Fingerprint and cache                                               *)
(* ------------------------------------------------------------------ *)

(* Structural fingerprint of a tuning problem.  Kernel bodies are digested
   in full via [Marshal] so a changed coefficient or stencil actually
   changes the hash even deep inside a large expression tree — a
   [Hashtbl.hash_param] prefix hash collides on e.g. the zoo's
   coefficient variants (the cache-miss-on-changed-model test relies on
   distinctness, and Serve shares this cache across jobs). *)
let fingerprint ?(domains = Pool.default_domains ()) ~dims candidates =
  let kernel_hash (k : Ir.Kernel.t) =
    Digest.string
      (Marshal.to_string
         (k.Ir.Kernel.name, k.Ir.Kernel.dim, k.Ir.Kernel.ghost, k.Ir.Kernel.body)
         [])
  in
  Hashtbl.hash
    ( domains,
      Array.to_list dims,
      List.map (fun (label, ks) -> (label, List.map kernel_hash ks)) candidates )

let cache : (int, choice) Hashtbl.t = Hashtbl.create 16
let hits = ref 0
let misses = ref 0

let cache_stats () = (!hits, !misses)

let clear_cache () =
  Hashtbl.reset cache;
  hits := 0;
  misses := 0

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

(** The sweep probe: {!Obs.Clock.trials} over [sweeps] sweeps of every
    kernel of one candidate on [block], in ns per interior cell, sorted
    ascending.  [split] times the inner/outer shape of the overlapped
    exchange (paper §7) instead of whole sweeps: each kernel sweeps its deep
    interior at the chain's cumulative stencil halo, then the matching halo
    shells run — the exact work a forest block does around an in-flight
    ghost exchange.  Sweeps go through [Engine.run_plain], the path
    production sweeps take with the sink off. *)
let probe ?(backend = Engine.Interp) ?(split = false) ~domains ~tile ~sweeps ~trials ~params
    (block : Engine.block) kernels =
  let halo = ref 0 in
  let chain =
    List.map
      (fun k ->
        let b = Engine.bind k block in
        halo := !halo + Engine.stencil_halo b;
        (b, !halo))
      kernels
  in
  let passes =
    if split then [ (fun h -> Engine.Interior h); (fun h -> Engine.Shell h) ]
    else [ (fun _ -> Engine.Whole) ]
  in
  let step = ref 0 in
  let sweep () =
    incr step;
    List.iter
      (fun region ->
        List.iter
          (fun (b, h) ->
            Engine.run_plain ~num_domains:domains ?tile ~step:!step ~backend
              ~region:(region h) ~params b)
          chain)
      passes
  in
  let cells = float_of_int (Array.fold_left ( * ) 1 block.Engine.dims) in
  Array.map
    (fun ns -> ns /. float_of_int sweeps /. cells)
    (Obs.Clock.trials ~n:trials (fun () ->
         for _ = 1 to sweeps do
           sweep ()
         done))

(* [machine] running the code the fast tier prints for [k]: [Rsqrt] is
   printed as a division by a square root, not as an approximate
   reciprocal square root; and a kernel the SIMD printer leaves scalar
   (Philox) runs at SIMD width 1, its divides and square roots issuing at
   the rate of a two-lane instruction (a scalar divide issues every 4
   cycles on Skylake-SP, like a 128-bit one, against 16 for eight
   lanes). *)
let printed (machine : Perfmodel.Machine.t) k =
  let m = { machine with rsqrt_cycles = machine.div_cycles +. machine.sqrt_cycles } in
  if Backend.Simd.vectorizes (Engine.program k).Engine.lowered then m
  else
    let two_lanes c = c *. 2. /. float_of_int m.simd_width in
    {
      (Perfmodel.Machine.with_simd_width 1 m) with
      div_cycles = two_lanes m.div_cycles;
      sqrt_cycles = two_lanes m.sqrt_cycles;
      rsqrt_cycles = two_lanes m.rsqrt_cycles;
    }

(** ECM cycles per lattice update of [kernels] on [machine], each priced
    as the fast tier prints it ({!printed}). *)
let predicted_cy_per_lup machine kernels ~block_n =
  List.fold_left
    (fun acc k ->
      acc
      +. Perfmodel.Ecm.single_core_cycles (Perfmodel.Ecm.predict (printed machine k) k ~block_n)
         /. float_of_int Perfmodel.Ecm.cacheline_lups)
    0. kernels

(* Candidate tile shapes (loop-depth space) for a block of [dims]: the
   default schedule plus outer-loop blocks, keeping the innermost depth at
   full extent.  [block_n] is the extent that governs the layer condition
   for analytic ranking. *)
let tile_candidates ~dim ~n0 =
  let blocks = List.filter (fun b -> b < n0) [ 4; 8; 16 ] in
  let outer b = Array.init dim (fun d -> if d = 0 then b else 0) in
  let square b = Array.init dim (fun d -> if d < dim - 1 then b else 0) in
  (None :: List.map (fun b -> Some (outer b)) blocks)
  @ (if dim >= 3 then List.map (fun b -> Some (square b)) blocks else [])

let block_n_of_shape ~n0 = function
  | None -> n0
  | Some s -> ( match Array.find_opt (fun x -> x > 0) s with Some b -> b | None -> n0)

(* ------------------------------------------------------------------ *)
(* The decision                                                        *)
(* ------------------------------------------------------------------ *)

(** Pick the variant and tile shape for [candidates] (label, kernel list —
    e.g. [("full", [phi_full]); ("split", [stag; main])]) executing on
    [domains] lanes over a probe block built by [make_block].  Cached per
    fingerprint; [dims] must match the blocks the decision will be applied
    to (it is part of the fingerprint). *)
let decide ?(machine = Perfmodel.Machine.skylake_8174) ?(domains = Pool.default_domains ())
    ?(sweeps = 2) ?(reps = 2) ~dims ~make_block ~params candidates =
  let fp = fingerprint ~domains ~dims candidates in
  match Hashtbl.find_opt cache fp with
  | Some c ->
    incr hits;
    Obs.Metrics.count "tune.hit" 1;
    c
  | None ->
    incr misses;
    Obs.Metrics.count "tune.miss" 1;
    let block : Engine.block = make_block () in
    let n0 = block.Engine.dims.(0) in
    let dim = Array.length block.Engine.dims in
    (* every probe below scores a configuration by its best trial *)
    let probe_ns ?backend ?split ~tile ks =
      (probe ?backend ?split ~domains ~tile ~sweeps ~trials:reps ~params block ks).(0)
    in
    let predicted_cy =
      List.map
        (fun (label, ks) -> (label, predicted_cy_per_lup machine ks ~block_n:n0))
        candidates
    in
    (* variant probes run with the default schedule *)
    let measured_ns =
      List.map
        (fun (label, ks) ->
          (label, probe_ns ~tile:None ks))
        candidates
    in
    let variant, (variant_label, _) =
      List.fold_left
        (fun (bi, (bl, bv)) (i, (l, v)) -> if v < bv then (i, (l, v)) else (bi, (bl, bv)))
        (0, List.nth measured_ns 0)
        (List.mapi (fun i m -> (i, m)) measured_ns)
    in
    let _, winner_kernels = List.nth candidates variant in
    (* rank tile shapes analytically, probe the best-ranked few *)
    let ranked =
      List.sort
        (fun (_, a) (_, b) -> compare a b)
        (List.map
           (fun shape ->
             ( shape,
               predicted_cy_per_lup machine winner_kernels
                 ~block_n:(block_n_of_shape ~n0 shape) ))
           (tile_candidates ~dim ~n0))
    in
    let to_probe =
      List.filteri (fun i _ -> i < 3) (List.map fst ranked)
      |> fun l -> if List.mem None l then l else None :: l
    in
    let tile_trials =
      List.map
        (fun shape ->
          (shape, probe_ns ~tile:shape winner_kernels))
        to_probe
    in
    let tile, _ =
      List.fold_left
        (fun (bs, bv) (s, v) -> if v < bv then (s, v) else (bs, bv))
        (List.hd tile_trials) (List.tl tile_trials)
    in
    (* the execution backend is one more tunable axis: probe the winning
       variant at the chosen tile under both backends and keep the faster
       one (the JIT warms its compile cache during the probe's warmup
       sweep, so steady-state cost is what is measured) *)
    let backend_ns =
      List.map
        (fun (label, be) ->
          (label, probe_ns ~backend:be ~tile winner_kernels))
        [ (Engine.backend_label Engine.Interp, Engine.Interp);
          (Engine.backend_label Engine.Jit, Engine.Jit) ]
    in
    let backend =
      match backend_ns with
      | [ (_, interp_ns); (_, jit_ns) ] when jit_ns < interp_ns -> Engine.Jit
      | _ -> Engine.Interp
    in
    (* overlap axis: the inner/outer split pays a scheduling overhead
       (extra passes, shell tiles with short inner runs).  Probe the
       monolithic sweep against the split shape at the chosen tile and
       backend; accept the split while its overhead stays within 15 % —
       the exchange it hides is worth far more at scale, but a tiny block
       whose shell dominates should stay sequential. *)
    let overlap_ns =
      [
        ("whole", probe_ns ~backend ~tile winner_kernels);
        ("split", probe_ns ~backend ~split:true ~tile winner_kernels);
      ]
    in
    let overlap =
      match overlap_ns with
      | [ (_, whole); (_, split) ] -> split <= 1.15 *. whole
      | _ -> false
    in
    let cachesim_bytes_per_lup =
      match winner_kernels with
      | [] -> 0.
      | k :: _ ->
        let cache_sim =
          Perfmodel.Cachesim.create ~size_bytes:machine.Perfmodel.Machine.l2_bytes ~ways:16
            ~line_bytes:machine.Perfmodel.Machine.cacheline_bytes
        in
        Perfmodel.Cachesim.sweep_traffic k ~cache:cache_sim ~n:(min n0 12)
    in
    let c =
      {
        fingerprint = fp;
        domains;
        variant;
        variant_label;
        tile;
        predicted_cy;
        measured_ns;
        tile_trials = List.map (fun (s, v) -> (Option.value s ~default:[||], v)) tile_trials;
        cachesim_bytes_per_lup;
        backend;
        backend_ns;
        overlap;
        overlap_ns;
      }
    in
    Hashtbl.replace cache fp c;
    c

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_tile ppf = function
  | None -> Fmt.string ppf "default"
  | Some s -> Schedule.pp_shape ppf s

let pp_choice ppf c =
  Fmt.pf ppf "tuned for %d domain(s), fingerprint %08x@." c.domains
    (c.fingerprint land 0xffffffff);
  Fmt.pf ppf "%-10s %14s %14s@." "variant" "model cy/LUP" "probe ns/LUP";
  List.iter2
    (fun (label, cy) (_, ns) ->
      Fmt.pf ppf "%-10s %14.1f %14.1f%s@." label cy ns
        (if label = c.variant_label then "  <- selected" else ""))
    c.predicted_cy c.measured_ns;
  Fmt.pf ppf "tile shapes probed:";
  List.iter
    (fun (s, ns) ->
      Fmt.pf ppf " %a=%.1f" pp_tile (if Array.length s = 0 then None else Some s) ns)
    c.tile_trials;
  Fmt.pf ppf "@.selected tile %a; cachesim traffic %.0f B/LUP@." pp_tile c.tile
    c.cachesim_bytes_per_lup;
  Fmt.pf ppf "backends:";
  List.iter (fun (label, ns) -> Fmt.pf ppf " %s=%.1f" label ns) c.backend_ns;
  Fmt.pf ppf " -> %s@." (Engine.backend_label c.backend);
  Fmt.pf ppf "overlap sweep:";
  List.iter (fun (label, ns) -> Fmt.pf ppf " %s=%.1f" label ns) c.overlap_ns;
  Fmt.pf ppf " -> %s@." (if c.overlap then "split (overlap exchanges)" else "whole")
