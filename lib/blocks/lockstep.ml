(** Lockstep execution over a block set (paper §4, Algorithm 1, and the §7
    inner/outer split).

    A block set is the part of a block forest that a time step, a ghost
    exchange and a forest-wide reduction need:

    + a per-block {!state}: an active simulation, or the per-field
      constants of a frozen block (the adaptive forest's coarsened bulk);
    + a block → rank [owner];
    + a precomputed periodic face-neighbour table, and beside it the
      handle of the channel that fills each face;
    + a per-face {!tags} rule naming the channel each ghost slab travels on.

    {!Forest} builds one with every block active and one block per rank;
    {!Adaptive} builds one over its own mutable states and Morton owners.
    Both step, exchange, prime, read cells and reduce through this module
    only, so the message-order rule that keeps the overlapped step bitwise
    equal to the sequential one (check oracle 10) lives in one place. *)

open Symbolic

type consts = (Fieldspec.t * float array) list
(** Per tracked field, the per-storage-component constants of a frozen
    block (φ and μ source/destination pairs share one vertex each). *)

type state = Active of Pfcore.Timestep.t | Frozen of consts

(** The channel a ghost slab travels on, named by the face it fills. *)
type tags =
  | Per_axis
      (** tag [2 axis + 1] fills a Low face, [2 axis] a High face: one
          block per rank, so the rank pair tells faces apart *)
  | Per_face of int
      (** [base + 2 (block dim + axis) + side], side 0 for Low: one
          channel per receiving face, so blocks sharing a rank pair never
          share a channel *)

type t = {
  comm : Mpisim.t;
  gen : Pfcore.Genkernels.t;
  grid : int array;  (** blocks per axis *)
  block_dims : int array;
  global_dims : int array;
  states : state array;
  owner : int array;  (** owning rank per block *)
  neighbors : int array;
      (** periodic face neighbours, computed once: the block beside [id]
          on [axis] is at [((id * dim) + axis) * 2] (Low) and the slot
          after it (High) *)
  faces : Mpisim.channel option array;
      (** per face, indexed like [neighbors]: the handle of the channel
          whose slabs fill it, checked against the face's current (src,
          dst, tag) on every use and re-resolved when an owner moved *)
  tags : tags;
}

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

(** Block coordinates of block [id] (axis 0 fastest). *)
let coords grid id =
  let dim = Array.length grid in
  let c = Array.make dim 0 in
  let rec go d id = if d < dim then (c.(d) <- id mod grid.(d); go (d + 1) (id / grid.(d))) in
  go 0 id;
  c

let id_of_coords grid c =
  let dim = Array.length grid in
  let rec go d acc = if d < 0 then acc else go (d - 1) ((acc * grid.(d)) + c.(d)) in
  go (dim - 1) 0

let side_index = function Ghost.Low -> 0 | Ghost.High -> 1

let create ~tags ~comm ~grid ~block_dims ~owner states gen =
  let dim = Array.length grid in
  let neighbors =
    Array.init (Array.length states * dim * 2) (fun i ->
        let c = coords grid (i / (dim * 2)) in
        let axis = i / 2 mod dim and dir = if i mod 2 = 0 then -1 else 1 in
        c.(axis) <- (((c.(axis) + dir) mod grid.(axis)) + grid.(axis)) mod grid.(axis);
        id_of_coords grid c)
  in
  {
    comm;
    gen;
    grid;
    block_dims;
    global_dims = Array.mapi (fun d n -> n * grid.(d)) block_dims;
    states;
    owner;
    neighbors;
    faces = Array.make (Array.length neighbors) None;
    tags;
  }

let nblocks t = Array.length t.states

(** The block beside [id] on the [side] of [axis] (periodic). *)
let neighbor t id ~axis ~side =
  t.neighbors.((((id * Array.length t.grid) + axis) * 2) + side_index side)

(** Tag of the slab that fills the [side] ghosts of block [recv]. *)
let face_tag t ~recv ~axis ~side =
  match t.tags with
  | Per_axis -> (axis * 2) + 1 - side_index side
  | Per_face base -> base + (((recv * Array.length t.grid) + axis) * 2) + side_index side

let fields t = t.gen.Pfcore.Genkernels.fields
let has_mu t = Pfcore.Params.n_mu t.gen.Pfcore.Genkernels.params > 0
let buffer (sim : Pfcore.Timestep.t) f = Vm.Engine.buffer sim.Pfcore.Timestep.block f
let live t id = Mpisim.live t.comm t.owner.(id)

let const_of (consts : consts) (f : Fieldspec.t) =
  match
    List.find_opt (fun ((g : Fieldspec.t), _) -> g.Fieldspec.name = f.Fieldspec.name) consts
  with
  | Some (_, cv) -> cv
  | None -> invalid_arg ("Lockstep: no frozen constant for field " ^ f.Fieldspec.name)

(** Read one interior cell by global coordinates (a frozen block answers
    from its constants). *)
let get t (field : Fieldspec.t) ~component global =
  let dim = Array.length t.block_dims in
  let bc = Array.init dim (fun d -> global.(d) / t.block_dims.(d)) in
  let local = Array.init dim (fun d -> global.(d) mod t.block_dims.(d)) in
  match t.states.(id_of_coords t.grid bc) with
  | Active sim -> Vm.Buffer.get (buffer sim field) ~component local
  | Frozen consts -> (const_of consts field).(component)

(* ------------------------------------------------------------------ *)
(* Ghost exchange                                                      *)
(* ------------------------------------------------------------------ *)

(* The channel whose slabs fill the [side] face of block [recv] on [axis]:
   from the neighbour's owner to [recv]'s, on the face's tag.  The cached
   handle serves while those still name it; a rebalance or a thaw that
   moved an owner makes the next use open the new channel. *)
let face_channel t ~recv ~axis ~side =
  let i = (((recv * Array.length t.grid) + axis) * 2) + side_index side in
  let src = t.owner.(t.neighbors.(i)) and dst = t.owner.(recv) in
  let tag = face_tag t ~recv ~axis ~side in
  match t.faces.(i) with
  | Some ch when Mpisim.is_channel ch ~src ~dst ~tag -> ch
  | _ ->
    let ch = Mpisim.channel t.comm ~src ~dst ~tag in
    t.faces.(i) <- Some ch;
    ch

let opposite = function Ghost.Low -> Ghost.High | Ghost.High -> Ghost.Low

(* Every active block of a live rank sends its Low slab to its Low
   neighbour, then its High slab to its High neighbour, in block order; a
   frozen neighbour keeps no ghost layers and is sent nothing.  The slab
   fills the neighbour's opposite face.  Sends are eager, so the blocking
   and the overlapped exchange post the same stream. *)
let send_face t ~axis id buf side =
  let nb = neighbor t id ~axis ~side in
  match t.states.(nb) with
  | Frozen _ -> ()
  | Active _ ->
    Ghost.send_slab t.comm (face_channel t ~recv:nb ~axis ~side:(opposite side)) buf ~axis ~side

let post_sends t field ~axis =
  for id = 0 to nblocks t - 1 do
    match t.states.(id) with
    | Active sim when live t id ->
      let buf = buffer sim field in
      send_face t ~axis id buf Ghost.Low;
      send_face t ~axis id buf Ghost.High
    | _ -> ()
  done

(* Fill one ghost face: the slab from an active neighbour, through the
   self-healing receive, or the constant slab a frozen neighbour would
   have sent. *)
let recv_face t field ~axis id buf side =
  match t.states.(neighbor t id ~axis ~side) with
  | Frozen consts ->
    Ghost.unpack buf ~axis ~side (Ghost.constant_slab buf ~axis (const_of consts field))
  | Active _ -> Ghost.recv_slab t.comm (face_channel t ~recv:id ~axis ~side) buf ~axis ~side

(* The drain order, which both exchange modes share: block by block, the
   Low face (the High slab of the Low neighbour) before the High face.
   A face consumes its message only when the drain reaches it, so however
   much work runs between posting and draining, the two modes consume the
   identical (src, dst, tag) sequence and every fault-plan decision and
   substrate counter matches. *)
let drain t field ~axis =
  for id = 0 to nblocks t - 1 do
    match t.states.(id) with
    | Active sim when live t id ->
      let buf = buffer sim field in
      recv_face t field ~axis id buf Ghost.Low;
      recv_face t field ~axis id buf Ghost.High
    | _ -> ()
  done

let exchange_axis t field ~axis =
  post_sends t field ~axis;
  drain t field ~axis

let comm_span prefix (field : Fieldspec.t) f =
  (* an exchange involves all ranks, so its span lives on the process lane *)
  if not (Obs.Sink.enabled ()) then f ()
  else
    Obs.Span.in_lane 0 (fun () -> Obs.Span.with_ ~cat:"comm" (prefix ^ field.Fieldspec.name) f)

(** Exchange the ghost layers of [field] across all blocks, axis by axis
    (later axes carry the corners), through the self-healing protocol
    ({!Ghost.receive}): drops, delays and duplicates heal in place, a dead
    neighbour surfaces as [Ghost.Rank_crashed] for the recovery driver.
    Blocks of a crashed rank neither send nor receive. *)
let exchange t field =
  comm_span "exchange:" field (fun () ->
      for axis = 0 to Array.length t.block_dims - 1 do
        exchange_axis t field ~axis
      done)

(** First half of the overlapped exchange (paper §7): post axis 0's sends.
    Its result is what {!finish_exchange} takes: nothing is pending but
    the drain, which receives in the blocking exchange's order. *)
let start_exchange t field =
  comm_span "exchange.overlap:" field (fun () -> post_sends t field ~axis:0)

(** Second half: drain axis 0's faces, then exchange the remaining axes,
    which must follow axis 0 for the corners. *)
let finish_exchange t field () =
  comm_span "exchange.wait:" field (fun () ->
      drain t field ~axis:0;
      for axis = 1 to Array.length t.block_dims - 1 do
        exchange_axis t field ~axis
      done)

(** Prime source-field ghosts after initial conditions are written, or
    after a restore wrote their interiors; idempotent on primed blocks. *)
let prime t = List.iter (exchange t) (Pfcore.Timestep.state_fields t.gen)

(* ------------------------------------------------------------------ *)
(* The step                                                            *)
(* ------------------------------------------------------------------ *)

let each t f =
  for id = 0 to nblocks t - 1 do
    match t.states.(id) with Active sim when live t id -> f sim | _ -> ()
  done

(** One lockstep time step (Algorithm 1) over the active blocks, numbered
    [step]: φ, the φ_dst exchange, μ, the μ_dst exchange, swap.  Activates
    a pending rank crash at the step boundary and enforces the end-of-step
    quiescence invariant ({!Mpisim.finalize}).  With [overlap] the axis-0
    φ_dst exchange flies under the deep-interior μ sweep, whose cells
    provably never read the ghost layer ([Pfcore.Timestep.mu_chain]), and
    the halo shell is swept after it completes — bitwise identical to the
    sequential order.  A model without μ has nothing to hide the exchange
    behind and runs the sequential order. *)
let step t ~overlap ~step =
  Obs.Span.with_ ~cat:"step" ~args:[ ("step", float_of_int step) ] "step" (fun () ->
      Mpisim.begin_step t.comm ~step;
      let f = fields t in
      each t Pfcore.Timestep.phase_phi;
      if overlap && has_mu t then begin
        start_exchange t f.Pfcore.Model.phi_dst;
        each t Pfcore.Timestep.phase_mu_interior;
        finish_exchange t f.Pfcore.Model.phi_dst ();
        each t Pfcore.Timestep.phase_mu_shell
      end
      else begin
        exchange t f.Pfcore.Model.phi_dst;
        each t Pfcore.Timestep.phase_mu
      end;
      if has_mu t then exchange t f.Pfcore.Model.mu_dst;
      each t Pfcore.Timestep.finish;
      Mpisim.finalize t.comm)

(* ------------------------------------------------------------------ *)
(* Reductions                                                          *)
(* ------------------------------------------------------------------ *)

(** First tag of the reduction channels (round [k] uses
    [reduce_tag_base + k]), above the per-axis exchange tags and below
    the per-face ones. *)
let reduce_tag_base = 100

(** Combine per-rank partials over a {e fixed recursive-halving binary
    tree} over rank ids: in round [k], every rank [r] with
    [r mod 2^(k+1) = 2^k] sends its accumulated partial to rank
    [r - 2^k], which merges it; after [ceil(log2 n)] rounds rank 0 holds
    the whole reduction.  All sends of a round are posted before its
    receives drain.  Each message is one fixed-size encoded partial
    through the self-healing [Ghost.fetch]; a dead rank surfaces as
    [Ghost.Rank_crashed]. *)
let tree_gather comm (partials : Vm.Reduce.partial array) : Vm.Reduce.partial =
  let n = Array.length partials in
  for r = 0 to n - 1 do
    if not (Mpisim.live comm r) then raise (Ghost.Rank_crashed r)
  done;
  let acc = Array.copy partials in
  let k = ref 0 in
  while 1 lsl !k < n do
    let h = 1 lsl !k in
    let tag = reduce_tag_base + !k in
    for r = 0 to n - 1 do
      if r land ((2 * h) - 1) = h then
        Mpisim.send comm ~src:r ~dst:(r - h) ~tag (Vm.Reduce.encode acc.(r))
    done;
    for r = 0 to n - 1 do
      if r land ((2 * h) - 1) = 0 && r + h < n then
        acc.(r) <-
          Vm.Reduce.merge acc.(r) (Vm.Reduce.decode (Ghost.fetch comm ~src:(r + h) ~dst:r ~tag))
    done;
    incr k
  done;
  acc.(0)

(* A frozen block's partial: its constant once per cell, added in O(1);
   only the [Custom] test hook visits the cells, by global coordinates. *)
let frozen_partial t id (consts : consts) (field : Fieldspec.t) cellfn op =
  let p = Vm.Reduce.empty op in
  let count = Vm.Reduce.total_cells t.block_dims in
  (match cellfn with
  | Vm.Reduce.Component comp -> Vm.Reduce.add_const p (const_of consts field).(comp) ~count
  | Vm.Reduce.Interface ->
    let hit = Array.exists Vm.Reduce.in_band (const_of consts field) in
    Vm.Reduce.add_const p (if hit then 1. else 0.) ~count
  | Vm.Reduce.Custom fn ->
    let c = coords t.grid id in
    for i = 0 to count - 1 do
      let local = coords t.block_dims i in
      Vm.Reduce.add p (fn (Array.mapi (fun d x -> (c.(d) * t.block_dims.(d)) + x) local))
    done);
  p

(** Deterministic scalar reduction of one field over the block set.
    Active blocks reduce their buffers through [Vm.Reduce.block_partial]
    with their own pool and tile (overridable); frozen blocks add
    their constants; each rank merges its blocks' partials, and the ranks'
    partials combine over {!tree_gather}.  Partials are exact, so the
    scalar is bitwise identical for any decomposition, whatever is
    frozen, and identical to the serial single-block reference over the
    same global cells. *)
let scalar ?num_domains ?tile t (field : Fieldspec.t) cellfn op =
  let per_rank = Array.init t.comm.Mpisim.n_ranks (fun _ -> Vm.Reduce.empty op) in
  Array.iteri
    (fun id st ->
      let p =
        match st with
        | Active sim ->
          Vm.Reduce.block_partial
            ~num_domains:(Option.value num_domains ~default:sim.Pfcore.Timestep.num_domains)
            ?tile:(match tile with Some _ -> tile | None -> sim.Pfcore.Timestep.tile)
            sim.Pfcore.Timestep.block field cellfn op
        | Frozen consts -> frozen_partial t id consts field cellfn op
      in
      let r = t.owner.(id) in
      per_rank.(r) <- Vm.Reduce.merge per_rank.(r) p)
    t.states;
  Vm.Reduce.finish ~n:(Vm.Reduce.total_cells t.global_dims) (tree_gather t.comm per_rank)
