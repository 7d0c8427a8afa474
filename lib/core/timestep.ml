(** Time stepping (paper Algorithm 1).

    One step runs, on a block:

    + φ kernel (full, or staggered pass + main pass for the split variant),
    + Gibbs-simplex projection of the updated phase field,
    + ghost-layer exchange / boundary handling of φ_dst,
    + μ kernel (full or split),
    + ghost-layer exchange of μ_dst,
    + src ↔ dst buffer swap.

    A single block's [exchange] closes it periodically; a forest's blocks
    are exchanged by [Blocks.Lockstep], which runs the phases itself. *)

open Symbolic

type variant = Full | Split

type t = {
  gen : Genkernels.t;
  block : Vm.Engine.block;
  variant_phi : variant;
  variant_mu : variant;
  num_domains : int;
  tile : int array option;  (** loop-depth tile shape for every kernel sweep *)
  backend : Vm.Engine.backend;  (** execution backend for every kernel sweep *)
  lane : int;  (** observability lane: 0 = local, 1 + r = simulated rank r *)
  exchange : Vm.Engine.block -> Fieldspec.t -> unit;  (** the periodic ghost fill *)
  phi : Vm.Engine.bound list;  (** the chosen φ variant's kernels, in sweep order *)
  mu : Vm.Engine.bound list;  (** the chosen μ variant's kernels; [[]] without μ *)
  projection : Vm.Engine.bound option;
  mutable jit_planned : bool;
      (** the JIT programs of the step's kernels are compiled (see
          {!prepare_jit}) *)
  mutable step_count : int;
  mutable time : float;
  fixed_params : (string * float) list;  (** [dx], [dt] and the model's bindings *)
  mutable params : (string * float) list;
      (** every sweep's parameter bindings ({!runtime_params}): [t] in
          front of [fixed_params], rebuilt when the time changes, once per
          step *)
}

let default_exchange block (f : Fieldspec.t) = Vm.Buffer.periodic (Vm.Engine.buffer block f)

(** The fields a block stores: φ's, and μ's only when the model has μ. *)
let field_list (g : Genkernels.t) =
  let f = g.fields in
  if Params.n_mu g.params > 0 then
    [ f.phi_src; f.phi_dst; f.mu_src; f.mu_dst; f.phi_stag; f.mu_stag ]
  else [ f.phi_src; f.phi_dst; f.phi_stag ]

(* The kernels of one variant of a family, in sweep order. *)
let variant_kernels variant ~full ~(split : Genkernels.pair) =
  match variant with Full -> [ full ] | Split -> [ split.stag; split.main ]

(** The kernels a step of the chosen variants sweeps: φ's and μ's in sweep
    order ([[]] without μ) and the projection.  {!create} binds these, and
    the farm compiles the JIT programs of these before its first job is
    resident, so the two cannot drift. *)
let step_kernels ?(variant_phi = Full) ?(variant_mu = Full) (gen : Genkernels.t) =
  ( variant_kernels variant_phi ~full:gen.phi_full ~split:gen.phi_split,
    gen.projection,
    match (gen.mu_full, gen.mu_split) with
    | Some full, Some split -> variant_kernels variant_mu ~full ~split
    | _ -> [] )

(** Build a simulation block and bind the kernels a step sweeps: the
    chosen φ and μ variants and the projection.  Binding shares each
    kernel's {!Vm.Engine.program} with every other block, so it costs a
    ghost check; the other variants are never bound.
    [lane] is the observability lane the block's spans land on (default
    0; a forest passes its block's rank lane, the farm scheduler one lane
    per job).  [alloc] supplies the field-buffer storage — the hook
    [Serve.Mempool] uses to recycle arrays across jobs.  [num_domains]
    defaults to the pool width requested by [PFGEN_DOMAINS]; [tile] fixes
    the cache-blocking shape of every kernel sweep (loop-depth indexed,
    [0] = full extent at that depth). *)
let create ?(variant_phi = Full) ?(variant_mu = Full)
    ?(num_domains = Vm.Pool.default_domains ()) ?tile
    ?(backend = Vm.Engine.default_backend ()) ?(lane = 0) ?alloc ?global_dims ?offset ~dims
    (gen : Genkernels.t) =
  let block =
    Vm.Engine.make_block ~ghost:2 ?alloc ?global_dims ?offset ~dims (field_list gen)
  in
  let bind k = Vm.Engine.bind k block in
  let phi, projection, mu = step_kernels ~variant_phi ~variant_mu gen in
  let p = gen.Genkernels.params in
  let fixed_params = ("dx", p.Params.dx) :: ("dt", p.Params.dt) :: gen.Genkernels.bindings in
  {
    gen;
    block;
    variant_phi;
    variant_mu;
    num_domains;
    tile;
    backend;
    lane;
    exchange = default_exchange;
    phi = List.map bind phi;
    mu = List.map bind mu;
    projection = Option.map bind projection;
    jit_planned = false;
    step_count = 0;
    time = 0.;
    fixed_params;
    params = ("t", 0.) :: fixed_params;
  }

(** The parameter bindings every sweep of the current step passes: [t],
    [dx], [dt] and the model's bindings.  One list per step, built from
    the same name strings every time, so a resolved JIT sweep reads it by
    position ([Vm.Engine]). *)
let runtime_params t = t.params

let set_time t time =
  t.time <- time;
  t.params <- ("t", time) :: t.fixed_params

(** The fields that carry a block's state from one step to the next:
    φ_src, and μ_src when the model has μ.  A step writes every other
    buffer (the destinations, the staggered scratch) before it reads it,
    so these fields' interiors and primed ghosts are all a restart needs. *)
let state_fields (g : Genkernels.t) =
  let f = g.Genkernels.fields in
  if Params.n_mu g.Genkernels.params > 0 then [ f.phi_src; f.mu_src ] else [ f.phi_src ]

(** Exchange ghosts of the source fields — required once after initial
    conditions are written, and after a restore wrote their interiors. *)
let prime t = List.iter (t.exchange t.block) (state_fields t.gen)

(* The kernels of the chosen variants, each list in sweep order. *)
let phi_kernels t = t.phi
let mu_kernels t = t.mu

(** Before the first JIT sweep, compile the programs of every kernel a
    step sweeps — φ, the projection, μ — in one fan-out, outside every
    [kernel:*] span.  A block whose programs are all cached (every forest
    block after the first, every farm job) compiles nothing. *)
let prepare_jit t =
  if t.backend = Vm.Engine.Jit && not t.jit_planned then begin
    Vm.Engine.jit_prepare (phi_kernels t @ Option.to_list t.projection @ mu_kernels t);
    t.jit_planned <- true
  end

(* One sweep of [bound] over [region] with the block's settings. *)
let sweep t region bound =
  prepare_jit t;
  Vm.Engine.sweep ~num_domains:t.num_domains ~tile:t.tile ~backend:t.backend ~region
    ~step:t.step_count ~params:t.params bound

let rec sweep_all t region = function
  | [] -> ()
  | b :: rest ->
    sweep t region b;
    sweep_all t region rest

let has_mu t = Params.n_mu t.gen.Genkernels.params > 0

(* All per-block spans land on this block's lane so a forest run renders
   one trace track per simulated rank. *)
let in_lane t f = Obs.Span.in_lane t.lane f

(* [f t] inside the step span [name] on the block's lane; with the sink
   off, a plain call that builds no closure. *)
let in_phase t name f =
  if not (Obs.Sink.enabled ()) then f t
  else in_lane t (fun () -> Obs.Span.with_ ~cat:"step" name (fun () -> f t))

let exchange_span t (f : Fieldspec.t) =
  in_lane t (fun () ->
      Obs.Span.with_ ~cat:"comm" ("exchange:" ^ f.Fieldspec.name) (fun () ->
          t.exchange t.block f))

let phi_sweeps t =
  sweep_all t Vm.Engine.Whole (phi_kernels t);
  match t.projection with
  | None -> ()
  | Some proj ->
    if Obs.Sink.enabled () then
      Obs.Span.with_ ~cat:"step" "projection" (fun () -> sweep t Vm.Engine.Whole proj)
    else sweep t Vm.Engine.Whole proj

(** Phase 1: φ kernel(s) and the simplex projection (Algorithm 1, line 1). *)
let phase_phi t = in_phase t "phase:phi" phi_sweeps

let mu_sweeps t = sweep_all t Vm.Engine.Whole (mu_kernels t)

(** Phase 2: μ kernel(s) (Algorithm 1, line 3); requires φ_dst ghosts. *)
let phase_mu t = if mu_kernels t <> [] then in_phase t "phase:mu" mu_sweeps

(* ------------------------------------------------------------------ *)
(* Region-split μ phase (communication overlap, paper §7)              *)
(* ------------------------------------------------------------------ *)

(** The μ kernel chain in execution order, each annotated with its
    {e cumulative} stencil halo: kernel [k] of the chain reads the outputs
    of kernels before it, so a cell of [k] is independent of ghost values
    only when it sits [Σ_{j≤k} ghost_j] cells inside the owned region.
    Running every chain position's interior at its cumulative halo keeps
    the interior pass bitwise identical to the sequential sweep — the split
    variant's main kernel never reads a staggered value the interior pass
    did not already compute. *)
let mu_chain t =
  let halo = ref 0 in
  List.map
    (fun b ->
      halo := !halo + Vm.Engine.stencil_halo b;
      (b, !halo))
    (mu_kernels t)

(* The μ chain's sweeps over [region halo], each at its cumulative halo. *)
let rec chain_sweeps t region = function
  | [] -> ()
  | (b, h) :: rest ->
    sweep t (region h) b;
    chain_sweeps t region rest

let mu_interior_sweeps t = chain_sweeps t (fun h -> Vm.Engine.Interior h) (mu_chain t)
let mu_shell_sweeps t = chain_sweeps t (fun h -> Vm.Engine.Shell h) (mu_chain t)

(** Deep-interior μ pass: every cell provably independent of the φ_dst
    ghost layer, so it may run while the ghost exchange is in flight. *)
let phase_mu_interior t =
  if mu_kernels t <> [] then in_phase t "phase:mu.interior" mu_interior_sweeps

(** Halo-shell μ pass: the complement of {!phase_mu_interior}; must run
    after the exchange completes.  Kernels run in chain order, so every
    staggered value a main-kernel shell cell reads is already final. *)
let phase_mu_shell t = if mu_kernels t <> [] then in_phase t "phase:mu.shell" mu_shell_sweeps

(** Phase 3: src ↔ dst swap and time advance (Algorithm 1, line 5). *)
let finish t =
  let f = t.gen.Genkernels.fields in
  Vm.Buffer.swap (Vm.Engine.buffer t.block f.phi_src) (Vm.Engine.buffer t.block f.phi_dst);
  if has_mu t then
    Vm.Buffer.swap (Vm.Engine.buffer t.block f.mu_src) (Vm.Engine.buffer t.block f.mu_dst);
  t.step_count <- t.step_count + 1;
  set_time t (t.time +. t.gen.Genkernels.params.Params.dt)

(** Advance one time step (Algorithm 1), single-block version. *)
let step t =
  let f = t.gen.Genkernels.fields in
  in_lane t (fun () ->
      Obs.Span.with_ ~cat:"step" ~args:[ ("step", float_of_int t.step_count) ] "step"
        (fun () ->
          phase_phi t;
          exchange_span t f.phi_dst;
          phase_mu t;
          if has_mu t then exchange_span t f.mu_dst;
          finish t))

(** Advance [steps] steps; [on_step] fires after every completed step —
    the hook the resilience driver uses to checkpoint every N steps. *)
let run ?(on_step = fun (_ : t) -> ()) t ~steps =
  for _ = 1 to steps do
    step t;
    on_step t
  done

(** Resume entry point: reset the step counter and physical time to those
    of a restored snapshot (the state fields are restored, and their
    ghosts primed, by [Resilience.Snapshot]). *)
let restore t ~step ~time =
  t.step_count <- step;
  set_time t time

(** Cells updated per full time step (for MLUP/s reporting). *)
let lups_per_step t = Array.fold_left ( * ) 1 t.block.Vm.Engine.dims

(* ------------------------------------------------------------------ *)
(* Autotuning                                                          *)
(* ------------------------------------------------------------------ *)

(* Smooth phase fields near the simplex center (the bench/drift pattern):
   no kernel hits a degenerate denominator, so probe sweeps exercise the
   full arithmetic. *)
let smooth_fill (block : Vm.Engine.block) (gen : Genkernels.t) =
  let n = float_of_int gen.Genkernels.params.Params.n_phases in
  List.iter
    (fun (_, buf) ->
      Vm.Buffer.init buf (fun c comp ->
          (1. /. n) +. (0.01 *. sin (float_of_int ((c.(0) * 3) + (comp * 7)))));
      Vm.Buffer.periodic buf)
    block.Vm.Engine.buffers

(** The block every timing probe sweeps (the autotuner, the drift oracle,
    the bench harness): [dims] cells with two ghost layers, {!smooth_fill}ed. *)
let probe_block (gen : Genkernels.t) ~dims =
  let block = Vm.Engine.make_block ~ghost:2 ~dims (field_list gen) in
  smooth_fill block gen;
  block

let probe_params (gen : Genkernels.t) =
  let p = gen.Genkernels.params in
  ("t", 0.) :: ("dx", p.Params.dx) :: ("dt", p.Params.dt) :: gen.Genkernels.bindings

let phi_candidates (gen : Genkernels.t) =
  [
    ("full", [ gen.Genkernels.phi_full ]);
    ( "split",
      [ gen.Genkernels.phi_split.Genkernels.stag; gen.Genkernels.phi_split.Genkernels.main ]
    );
  ]

let mu_candidates (gen : Genkernels.t) =
  match (gen.Genkernels.mu_full, gen.Genkernels.mu_split) with
  | Some full, Some pair ->
    Some
      [
        ("full", [ full ]);
        ("split", [ pair.Genkernels.stag; pair.Genkernels.main ]);
      ]
  | _ -> None

(** A tuning plan: one variant decision per kernel family plus the tile
    shape and pool width every sweep of the simulation will use.  The tile
    follows the most expensive family (μ when the model has one — Table 1),
    since a single shape drives all sweeps of a step. *)
type plan = {
  phi : Vm.Tune.choice;
  mu : Vm.Tune.choice option;
  plan_domains : int;
  plan_tile : int array option;
  plan_backend : Vm.Engine.backend;  (** follows the dominant family, like the tile *)
  plan_overlap : bool;
      (** overlap the φ_dst exchange with the μ interior sweep — only
          meaningful when the model has a μ family to hide the exchange
          behind, so [false] for single-field models *)
}

(** Tune both kernel families of [gen] on a [probe_n]^dim block.  Decisions
    are served from the [Vm.Tune] fingerprint cache, so repeated calls
    (every block of a forest, every bench repetition) probe only once. *)
let autotune ?machine ?(domains = Vm.Pool.default_domains ()) ?(probe_n = 10)
    (gen : Genkernels.t) =
  let dim = gen.Genkernels.params.Params.dim in
  let dims = Array.make dim probe_n in
  let make_block () = probe_block gen ~dims in
  let params = probe_params gen in
  let decide = Vm.Tune.decide ?machine ~domains ~dims ~make_block ~params in
  let phi = decide (phi_candidates gen) in
  let mu = Option.map decide (mu_candidates gen) in
  {
    phi;
    mu;
    plan_domains = domains;
    plan_tile = (match mu with Some m -> m.Vm.Tune.tile | None -> phi.Vm.Tune.tile);
    plan_backend = (match mu with Some m -> m.Vm.Tune.backend | None -> phi.Vm.Tune.backend);
    plan_overlap = (match mu with Some m -> m.Vm.Tune.overlap | None -> false);
  }

let variant_of_choice (c : Vm.Tune.choice) = if c.Vm.Tune.variant_label = "split" then Split else Full

(** [create] with every knob taken from a tuning [plan] (freshly computed
    from the [Vm.Tune] cache when not supplied). *)
let create_tuned ?plan ~dims (gen : Genkernels.t) =
  let plan = match plan with Some p -> p | None -> autotune gen in
  create ~variant_phi:(variant_of_choice plan.phi)
    ?variant_mu:(Option.map variant_of_choice plan.mu)
    ~num_domains:plan.plan_domains ?tile:plan.plan_tile ~backend:plan.plan_backend ~dims gen
