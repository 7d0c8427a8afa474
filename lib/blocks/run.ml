(** One run handle (paper Algorithm 1, whatever blocks a rank holds).

    A run is one periodic block ([Pfcore.Timestep]), a uniform forest of
    one block per rank ({!Forest}) or an interface-adaptive forest
    ({!Adaptive}).  This module is the one place that tells the three
    apart: {!create} builds each from one set of options, fills its active
    blocks and primes them, and the accessors below answer the same
    questions of each — its blocks, its step clock, a cell by global
    coordinates, its substrate, its exact reductions, its layout as a grid
    of blocks — so the CLI, the farm, the check battery, snapshots and
    recovery hold a [t] and never ask which kind it is. *)

type t = Block of Pfcore.Timestep.t | Forest of Forest.t | Adaptive of Adaptive.t

(** What {!create} builds: one periodic block of [dims] cells; a grid of
    equal blocks, block [r] on rank [r]; or an adaptive grid of [bgrid]
    blocks balanced over [ranks] ranks. *)
type shape =
  | One_block of int array
  | Rank_grid of { grid : int array; block_dims : int array }
  | Adaptive_grid of { bgrid : int array; block_dims : int array; ranks : int }

(** Ranks of the substrate a shape runs on (a single block: 1, and no
    substrate). *)
let ranks = function
  | One_block _ -> 1
  | Rank_grid { grid; _ } -> Array.fold_left ( * ) 1 grid
  | Adaptive_grid { ranks; _ } -> ranks

(** The message-passing substrate of a forest; a single block has none. *)
let comm = function
  | Block _ -> None
  | Forest { Forest.blocks; _ } | Adaptive { Adaptive.blocks; _ } -> Some blocks.Lockstep.comm

(** The simulation of every active block, in block order. *)
let sims = function
  | Block sim -> [ sim ]
  | Forest f -> Array.to_list f.Forest.sims
  | Adaptive af -> Adaptive.active_sims af

let gen = function
  | Block sim -> sim.Pfcore.Timestep.gen
  | Forest { Forest.blocks; _ } | Adaptive { Adaptive.blocks; _ } -> blocks.Lockstep.gen

let global_dims = function
  | Block sim -> sim.Pfcore.Timestep.block.Vm.Engine.global_dims
  | Forest { Forest.blocks; _ } | Adaptive { Adaptive.blocks; _ } -> blocks.Lockstep.global_dims

let step_count = function
  | Block sim -> sim.Pfcore.Timestep.step_count
  | Forest f -> Forest.step_count f
  | Adaptive af -> Adaptive.step_count af

(** One step: a block's periodic step, or a lockstep step of a forest
    (and an adaptive forest's adaptation round). *)
let step = function
  | Block sim -> Pfcore.Timestep.step sim
  | Forest f -> Forest.step f
  | Adaptive af -> Adaptive.step af

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

(** Read one interior cell by global coordinates. *)
let get t field ~component global =
  match t with
  | Block sim -> Vm.Buffer.get (Vm.Engine.buffer sim.Pfcore.Timestep.block field) ~component global
  | Forest { Forest.blocks; _ } | Adaptive { Adaptive.blocks; _ } ->
    Lockstep.get blocks field ~component global

(* Prime the source-field ghosts from the interiors: a block's periodic
   fill, or a forest's exchange. *)
let prime_ghosts = function
  | Block sim -> Pfcore.Timestep.prime sim
  | Forest { Forest.blocks; _ } | Adaptive { Adaptive.blocks; _ } -> Lockstep.prime blocks

(** Build a run of [shape] from [gen].  The variants, pool width, tile
    and backend reach every block; [overlap] a forest's step; [alloc] the
    buffers of a block or a uniform forest; [lane] a single block's spans
    (a forest's blocks take their ranks' lanes).  [faults] is installed on
    a forest's substrate before anything is sent.  With [init], every
    active block is filled by it and the run is primed (an adaptive forest
    also adapts once); without, nothing is filled or primed — the target
    of a restore. *)
let create ?variant_phi ?variant_mu ?num_domains ?tile ?backend ?overlap ?alloc ?lane ?faults
    ?init shape gen =
  let t =
    match shape with
    | One_block dims ->
      Block
        (Pfcore.Timestep.create ?variant_phi ?variant_mu ?num_domains ?tile ?backend ?lane
           ?alloc ~dims gen)
    | Rank_grid { grid; block_dims } ->
      Forest
        (Forest.create ?variant_phi ?variant_mu ?num_domains ?tile ?backend ?alloc ?overlap
           ~grid ~block_dims gen)
    | Adaptive_grid { bgrid; block_dims; ranks } ->
      Adaptive
        (Adaptive.create ?variant_phi ?variant_mu ?num_domains ?tile ?backend ?overlap ~ranks
           ~bgrid ~block_dims gen)
  in
  Option.iter (fun comm -> Mpisim.set_fault_plan comm faults) (comm t);
  Option.iter
    (fun fill ->
      List.iter fill (sims t);
      match t with Adaptive af -> Adaptive.prime af | _ -> prime_ghosts t)
    init;
  t

(* ------------------------------------------------------------------ *)
(* Exact reductions                                                    *)
(* ------------------------------------------------------------------ *)

(** Deterministic scalar reduction of one field over the whole run:
    exact partials, so bitwise the same for every kind of run, block
    decomposition, pool width, tile and backend.  Each block reduces
    with its own pool width and tile unless they are given. *)
let scalar ?num_domains ?tile t field cellfn op =
  match t with
  | Block sim -> Pfcore.Diag.scalar ?num_domains ?tile sim field cellfn op
  | Forest { Forest.blocks; _ } | Adaptive { Adaptive.blocks; _ } ->
    Lockstep.scalar ?num_domains ?tile blocks field cellfn op

let phi_src t = (gen t).Pfcore.Genkernels.fields.Pfcore.Model.phi_src
let cells t = float_of_int (Vm.Reduce.total_cells (global_dims t))

(** Volume-weighted phase fractions of φ_src: component [c]'s exact sum
    divided by the global cell count. *)
let phase_fractions ?num_domains ?tile t =
  Array.init (phi_src t).Symbolic.Fieldspec.components (fun c ->
      scalar ?num_domains ?tile t (phi_src t) (Vm.Reduce.Component c) Vm.Reduce.Sum /. cells t)

(** Count of interface cells: any φ component strictly inside the
    (0.01, 0.99) band. *)
let interface_cells ?num_domains ?tile t =
  scalar ?num_domains ?tile t (phi_src t) Vm.Reduce.Interface Vm.Reduce.Sum

let interface_fraction ?num_domains ?tile t = interface_cells ?num_domains ?tile t /. cells t

(* ------------------------------------------------------------------ *)
(* The run as a grid of blocks (what a snapshot stores)                *)
(* ------------------------------------------------------------------ *)

(** Every kind of run as a grid of blocks in lockstep.  An adaptive
    forest's [states], [owner] and [levels] are its own arrays, which a
    restore writes; the other kinds' are views that hold every block
    active, block [i] on rank [i] at level 0. *)
type layout = {
  grid : int array;  (** blocks per axis; all ones for a single block *)
  block_dims : int array;
  states : Lockstep.state array;
  owner : int array;
  levels : int array;
  movable : int option;
      (** [Some n]: blocks may freeze and move among [n] ranks (an
          adaptive forest) *)
  variant_phi : Pfcore.Timestep.variant;
  variant_mu : Pfcore.Timestep.variant;
  time : float;
}

let layout = function
  | Block sim ->
    let b = sim.Pfcore.Timestep.block in
    {
      grid = Array.map (fun _ -> 1) b.Vm.Engine.dims;
      block_dims = b.Vm.Engine.dims;
      states = [| Lockstep.Active sim |];
      owner = [| 0 |];
      levels = [| 0 |];
      movable = None;
      variant_phi = sim.Pfcore.Timestep.variant_phi;
      variant_mu = sim.Pfcore.Timestep.variant_mu;
      time = sim.Pfcore.Timestep.time;
    }
  | Forest f ->
    let s = f.Forest.sims.(0) in
    {
      grid = f.Forest.grid;
      block_dims = f.Forest.block_dims;
      states = f.Forest.blocks.Lockstep.states;
      owner = f.Forest.blocks.Lockstep.owner;
      levels = Array.make (Array.length f.Forest.sims) 0;
      movable = None;
      variant_phi = s.Pfcore.Timestep.variant_phi;
      variant_mu = s.Pfcore.Timestep.variant_mu;
      time = s.Pfcore.Timestep.time;
    }
  | Adaptive af ->
    {
      grid = af.Adaptive.bgrid;
      block_dims = af.Adaptive.block_dims;
      states = af.Adaptive.states;
      owner = af.Adaptive.owner;
      levels = af.Adaptive.levels;
      movable = Some af.Adaptive.n_ranks;
      variant_phi = af.Adaptive.variant_phi;
      variant_mu = af.Adaptive.variant_mu;
      time = af.Adaptive.time;
    }

(** The simulation of block [i]: its own, or, for a block an adaptive
    forest holds frozen, a fresh one on the block's current owner for a
    restore to fill. *)
let block_sim t i =
  match t with
  | Block sim -> sim
  | Forest f -> f.Forest.sims.(i)
  | Adaptive af -> (
    match af.Adaptive.states.(i) with Active sim -> sim | Frozen _ -> Adaptive.make_sim af i)

(** After a restore wrote the state interiors: set every block's step
    clock, then prime the source ghosts from those interiors. *)
let restart t ~step ~time =
  List.iter (fun sim -> Pfcore.Timestep.restore sim ~step ~time) (sims t);
  (match t with
  | Adaptive af ->
    af.Adaptive.step_count <- step;
    af.Adaptive.time <- time
  | Block _ | Forest _ -> ());
  prime_ghosts t
