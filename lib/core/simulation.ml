(** Simulation setup and analysis: initial conditions for the paper's two
    physical scenarios (ternary eutectic lamellae, dendritic seeds), a
    curvature-flow correctness anchor, and observables used by the examples
    and tests (front position, dendrite tip, range check).  Phase fractions
    and interface extent are [Diag]'s exact reductions. *)

let phi_buffer (t : Timestep.t) = Vm.Engine.buffer t.block t.gen.Genkernels.fields.phi_src
let mu_buffer (t : Timestep.t) = Vm.Engine.buffer t.block t.gen.Genkernels.fields.mu_src
let phi_dst_buffer (t : Timestep.t) = Vm.Engine.buffer t.block t.gen.Genkernels.fields.phi_dst

let fill_mu (t : Timestep.t) value =
  if Params.n_mu t.gen.Genkernels.params > 0 then begin
    Vm.Buffer.init (mu_buffer t) (fun _ _ -> value);
    (* dst starts as a copy so that φ-kernel reads of μ ghosts are sane *)
    Vm.Buffer.init (Vm.Engine.buffer t.block t.gen.Genkernels.fields.mu_dst) (fun _ _ -> value)
  end

(* Initial conditions are functions of *global* coordinates so that a
   multi-block decomposition reproduces the single-block state bit for
   bit. *)
let set_phase_field (t : Timestep.t) choose =
  let n = t.gen.Genkernels.params.Params.n_phases in
  let offset = t.block.Vm.Engine.offset in
  let assign buf =
    Vm.Buffer.init buf (fun coords c ->
        let global = Array.mapi (fun d x -> x + offset.(d)) coords in
        if c = choose global && c < n then 1. else 0.)
  in
  assign (phi_buffer t);
  assign (phi_dst_buffer t)

(** A solid sphere of phase 0 embedded in phase 1 (mean-curvature flow:
    the sphere must shrink). *)
let init_sphere ?(radius_frac = 0.3) (t : Timestep.t) =
  let dims = t.block.Vm.Engine.global_dims in
  let dim = Array.length dims in
  let center = Array.map (fun n -> float_of_int n /. 2.) dims in
  let radius = radius_frac *. float_of_int dims.(0) in
  set_phase_field t (fun coords ->
      let r2 = ref 0. in
      for d = 0 to dim - 1 do
        let dx = float_of_int coords.(d) +. 0.5 -. center.(d) in
        r2 := !r2 +. (dx *. dx)
      done;
      if sqrt !r2 < radius then 0 else 1);
  fill_mu t 0.;
  Timestep.prime t

(** Eutectic lamellae: alternating solid phases below [height_frac] along
    the temperature axis, liquid above — the P1 scenario. *)
let init_lamellae ?(height_frac = 0.3) ?(lamella_width = 8) (t : Timestep.t) =
  let p = t.gen.Genkernels.params in
  let dims = t.block.Vm.Engine.global_dims in
  let axis = match p.Params.temp with Params.Gradient g -> g.axis | _ -> p.Params.dim - 1 in
  let z0 = int_of_float (height_frac *. float_of_int dims.(axis)) in
  let solids = p.Params.n_phases - 1 in
  set_phase_field t (fun coords ->
      if coords.(axis) >= z0 then p.Params.liquid
      else coords.(0) / lamella_width mod solids);
  fill_mu t 0.;
  Timestep.prime t

(** Spherical solid seeds at given positions (phase per seed), rest liquid —
    the P2 dendrite scenario. *)
let init_seeds ~seeds ~radius (t : Timestep.t) =
  let p = t.gen.Genkernels.params in
  let dim = p.Params.dim in
  set_phase_field t (fun coords ->
      let in_seed (pos, _) =
        let r2 = ref 0. in
        for d = 0 to dim - 1 do
          let dx = float_of_int coords.(d) +. 0.5 -. float_of_int (Array.get pos d) in
          r2 := !r2 +. (dx *. dx)
        done;
        sqrt !r2 < radius
      in
      match List.find_opt in_seed seeds with
      | Some (_, phase) -> phase
      | None -> p.Params.liquid);
  fill_mu t 0.;
  Timestep.prime t

(* Zoo initial conditions — functions of global coordinates like the
   solidification ones, so decomposed runs reproduce single-block state
   bitwise. *)

let set_fields (t : Timestep.t) value =
  let offset = t.block.Vm.Engine.offset in
  let assign buf =
    Vm.Buffer.init buf (fun coords c ->
        let global = Array.mapi (fun d x -> x + offset.(d)) coords in
        value c global)
  in
  assign (phi_buffer t);
  assign (phi_dst_buffer t)

(** Phase-field crystal: uniform melt at density [mean] modulated by a
    product-of-cosines seed — the classic one-mode crystalline nucleus. *)
let init_pfc ?(mean = 0.285) ?(amplitude = 0.1) (t : Timestep.t) =
  let q = Float.pi /. 4. in
  set_fields t (fun _ global ->
      let modulation =
        Array.fold_left (fun acc x -> acc *. cos (q *. (float_of_int x +. 0.5))) 1. global
      in
      mean +. (amplitude *. modulation));
  fill_mu t 0.;
  Timestep.prime t

(** Gray–Scott: substrate-filled domain (u=1, v=0) with a central square
    perturbation (u=0.5, v=0.25) that seeds the patterns (Pearson 1993). *)
let init_gray_scott (t : Timestep.t) =
  let dims = t.block.Vm.Engine.global_dims in
  let inside global =
    let ok = ref true in
    Array.iteri
      (fun d x ->
        let half = dims.(d) / 2 and w = max 1 (dims.(d) / 8) in
        if abs (x - half) > w then ok := false)
      global;
    !ok
  in
  set_fields t (fun c global ->
      match (inside global, c) with
      | true, 0 -> 0.5
      | true, _ -> 0.25
      | false, 0 -> 1.
      | false, _ -> 0.);
  fill_mu t 0.;
  Timestep.prime t

(** Family-appropriate default scenario: lamellae/sphere for the
    solidification models, crystalline seed for PFC, Pearson square for
    Gray–Scott. *)
let init_model (t : Timestep.t) =
  let p = t.gen.Genkernels.params in
  match p.Params.family with
  | Params.Pfc _ -> init_pfc t
  | Params.Gray_scott _ -> init_gray_scott t
  | Params.Solidification ->
    if Params.n_mu p > 0 then init_lamellae t else init_sphere t

(** Smooth near-simplex-center fields in every buffer (the probe pattern
    the autotuner and the drift oracle use): exercises the kernels' full
    arithmetic with no degenerate denominators, and is deterministic, so
    two identically-built sims agree bitwise — the init of choice for the
    pooled-vs-serial equality checks. *)
let init_smooth (t : Timestep.t) =
  Timestep.smooth_fill t.Timestep.block t.Timestep.gen;
  Timestep.prime t

(* ------------------------------------------------------------------ *)
(* Observables                                                         *)
(* ------------------------------------------------------------------ *)

(** Mean position of the solid–liquid front along [axis]: solid-weighted
    average coordinate of 1 − φ_liquid. *)
let front_position ?axis (t : Timestep.t) =
  let p = t.gen.Genkernels.params in
  let axis = Option.value axis ~default:(p.Params.dim - 1) in
  let buf = phi_buffer t in
  let dims = t.block.Vm.Engine.dims in
  let dim = Array.length dims in
  let coords = Array.make dim 0 in
  let weight = ref 0. and moment = ref 0. in
  let rec loop d =
    if d = dim then begin
      let solid = 1. -. Vm.Buffer.get buf ~component:p.Params.liquid coords in
      weight := !weight +. solid;
      moment := !moment +. (solid *. (float_of_int coords.(axis) +. 0.5))
    end
    else
      for i = 0 to dims.(d) - 1 do
        coords.(d) <- i;
        loop (d + 1)
      done
  in
  loop 0;
  if !weight = 0. then 0. else !moment /. !weight

(** Highest cell along [axis] where any solid phase exceeds 1/2 — the
    dendrite tip position. *)
let tip_position ?axis (t : Timestep.t) =
  let p = t.gen.Genkernels.params in
  let axis = Option.value axis ~default:(p.Params.dim - 1) in
  let buf = phi_buffer t in
  let dims = t.block.Vm.Engine.dims in
  let dim = Array.length dims in
  let coords = Array.make dim 0 in
  let tip = ref (-1) in
  let rec loop d =
    if d = dim then begin
      let solid = 1. -. Vm.Buffer.get buf ~component:p.Params.liquid coords in
      if solid > 0.5 && coords.(axis) > !tip then tip := coords.(axis)
    end
    else
      for i = 0 to dims.(d) - 1 do
        coords.(d) <- i;
        loop (d + 1)
      done
  in
  loop 0;
  !tip

(** Range check: all fields finite, and for simplex-constrained families
    all φ within the simplex (after projection).  PFC's ψ and Gray–Scott's
    concentrations are unconstrained, so only finiteness (plus a loose
    blow-up bound) applies. *)
let check_sane (t : Timestep.t) =
  let buf = phi_buffer t in
  Array.for_all Float.is_finite buf.Vm.Buffer.data
  &&
  let lo, hi =
    match t.gen.Genkernels.params.Params.family with
    | Params.Solidification -> (-1e-9, 1. +. 1e-9)
    | Params.Pfc _ | Params.Gray_scott _ -> (-10., 10.)
  in
  let ok = ref true in
  Array.iter (fun v -> if v < lo || v > hi then ok := false) buf.Vm.Buffer.data;
  !ok

