(** Deterministic workload generator for the simulation farm.

    A workload is a batch of heterogeneous job specs — mixed model
    families, grid sizes, tenants, priorities, kernel variants, backends
    and crash injections — drawn from Philox streams keyed on (job index,
    workload seed).  The same seed always produces the same batch, so soak
    runs, the serve bench and oracle 9 all replay identical workloads.

    Every spec field that affects execution is chosen from the set of
    knobs the differential oracles already prove bitwise-neutral (variant,
    tile, pool width, backend, rank decomposition, crash recovery), which
    is what entitles the scheduler to promise farm = solo. *)

type family = Curv2d | P1 | P2 | Eutectic | Pfc | GrayScott

let family_label = function
  | Curv2d -> "curvature"
  | P1 -> "p1"
  | P2 -> "p2"
  | Eutectic -> "eutectic"
  | Pfc -> "pfc"
  | GrayScott -> "gray-scott"

let params_of_family = function
  | Curv2d -> Pfcore.Params.curvature ~dim:2 ()
  | P1 -> Pfcore.Params.p1 ()
  | P2 -> Pfcore.Params.p2 ()
  | Eutectic -> Pfcore.Params.eutectic ()
  | Pfc -> Pfcore.Params.pfc ()
  | GrayScott -> Pfcore.Params.gray_scott ()

let all_families = [ Curv2d; P1; P2; Eutectic; Pfc; GrayScott ]

type spec = {
  id : int;  (** position in the workload; also the job's trace lane *)
  tenant : string;
  family : family;
  size : int;  (** global domain edge length *)
  steps : int;
  priority : int;  (** larger runs first *)
  split : bool;  (** phi (and mu) kernel variant *)
  backend : Vm.Engine.backend;
  ranks : int;  (** 1 = single block; 2 = 1D-decomposed Mpisim forest *)
  crash_step : int option;  (** fault-injected run under crash protection *)
  seed : int;  (** keys the initial condition *)
}

let pp_spec ppf s =
  Fmt.pf ppf "job %d [%s] %s %d^%d x%d steps, prio %d, %s/%s, %d rank(s)%s, seed %d" s.id
    s.tenant (family_label s.family) s.size
    (params_of_family s.family).Pfcore.Params.dim s.steps s.priority
    (if s.split then "split" else "full")
    (Vm.Engine.backend_label s.backend)
    s.ranks
    (match s.crash_step with None -> "" | Some k -> Fmt.str ", crash@%d" k)
    s.seed

(* One uniform draw in [0,1) per (job, knob) under the workload seed. *)
let uniform ~seed ~job ~knob =
  (Philox.symmetric ~cell:job ~step:seed ~slot:knob +. 1.) /. 2.

let pick ~seed ~job ~knob choices =
  let u = uniform ~seed ~job ~knob in
  let n = List.length choices in
  List.nth choices (min (n - 1) (int_of_float (u *. float_of_int n)))

let tenants = [ "amber"; "basalt"; "cobalt" ]

(** Generate [jobs] specs under [seed].  [families] restricts the model
    mix (oracle 9 keeps to the cheap 2D families; the soak runs the whole
    zoo); [with_crash] mixes in fault-injected 2-rank jobs that must
    survive a rank crash via rollback recovery. *)
let generate ?(families = all_families) ?(with_crash = true) ~seed ~jobs () =
  List.init jobs (fun id ->
      let family = pick ~seed ~job:id ~knob:0 families in
      (* sizes stay even so a 2-rank decomposition always divides them; the
         3D families use smaller edges to bound per-step cost *)
      let size =
        match family with
        | Curv2d | Pfc | GrayScott -> pick ~seed ~job:id ~knob:1 [ 8; 12; 16 ]
        | P1 -> pick ~seed ~job:id ~knob:1 [ 6; 8 ]
        (* eutectic's 3-phase/2-component mu kernels are the priciest of
           the 2D mix; keep its edges modest *)
        | Eutectic -> pick ~seed ~job:id ~knob:1 [ 8; 12 ]
        (* p2's five-component kernels cost ~1 s/step even on tiny grids;
           keep it in the mix but on the smallest edge only *)
        | P2 -> 6
      in
      let steps =
        match family with
        | P2 | Eutectic -> pick ~seed ~job:id ~knob:2 [ 2; 3 ]
        | Curv2d | P1 | Pfc | GrayScott -> pick ~seed ~job:id ~knob:2 [ 2; 3; 4; 5 ]
      in
      let priority = pick ~seed ~job:id ~knob:3 [ 0; 1; 2 ] in
      let split = uniform ~seed ~job:id ~knob:4 < 0.5 in
      let backend =
        if uniform ~seed ~job:id ~knob:5 < 0.5 then Vm.Engine.Interp else Vm.Engine.Jit
      in
      let crash =
        (* crash jobs ride the cheap 2D family so the protected replay
           stays a small fraction of the batch cost *)
        with_crash && family = Curv2d && uniform ~seed ~job:id ~knob:6 < 0.25
      in
      let ranks = if crash then 2 else 1 in
      let crash_step = if crash then Some (1 + (steps / 2)) else None in
      {
        id;
        tenant = pick ~seed ~job:id ~knob:7 tenants;
        family;
        size;
        steps;
        priority;
        split;
        backend;
        ranks;
        crash_step;
        seed = (seed * 7919) + id;
      })

(* ------------------------------------------------------------------ *)
(* Geometry and memory projection                                      *)
(* ------------------------------------------------------------------ *)

let dim_of spec = (params_of_family spec.family).Pfcore.Params.dim

(** 1D decomposition along axis 0, matching [pfgen simulate]. *)
let decomposition spec =
  let dim = dim_of spec in
  let grid = Array.init dim (fun d -> if d = 0 then spec.ranks else 1) in
  let block_dims =
    Array.init dim (fun d -> if d = 0 then spec.size / spec.ranks else spec.size)
  in
  (grid, block_dims)

(** Projected resident field-buffer bytes of [spec] (padded storage of
    every field on every rank) — what admission control charges against
    the memory budget before any buffer exists. *)
let projected_bytes ~(gen : Pfcore.Genkernels.t) spec =
  let ghost = 2 in
  let _, block_dims = decomposition spec in
  let padded = Array.fold_left (fun acc n -> acc * (n + (2 * ghost))) 1 block_dims in
  let per_rank =
    List.fold_left
      (fun acc f -> acc + (8 * padded * Vm.Buffer.storage_components f))
      0
      (Pfcore.Timestep.field_list gen)
  in
  spec.ranks * per_rank

(* ------------------------------------------------------------------ *)
(* Initial conditions                                                  *)
(* ------------------------------------------------------------------ *)

(** Seeded smooth initial fill, a function of *global* coordinates: every
    buffer holds simplex-centered values perturbed by a seed-keyed smooth
    wave, so no kernel hits a degenerate denominator, every job is
    distinct, and a decomposed job reproduces the single-block fill.  The
    wave depends only on the global x and the component, so it is computed
    once per x-row and copied into every row. *)
let init_sim (sim : Pfcore.Timestep.t) ~seed =
  let gen = sim.Pfcore.Timestep.gen in
  let n = float_of_int gen.Pfcore.Genkernels.params.Pfcore.Params.n_phases in
  let block = sim.Pfcore.Timestep.block in
  let x0 = block.Vm.Engine.offset.(0) in
  let row comp =
    Array.init block.Vm.Engine.dims.(0) (fun x ->
        (1. /. n) +. (0.01 *. sin (float_of_int (((x + x0) * 3) + (comp * 7) + (seed * 13)))))
  in
  List.iter
    (fun ((_ : Symbolic.Fieldspec.t), buf) ->
      Vm.Buffer.init_rows buf row;
      Vm.Buffer.periodic buf)
    block.Vm.Engine.buffers
