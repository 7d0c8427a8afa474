(** Block forest: distributed-memory execution of Algorithm 1 (paper §4).

    The global domain is partitioned into a Cartesian grid of equally sized
    blocks, one per simulated rank, with periodic boundaries.  Each step
    runs the kernel phases on every rank in lockstep and performs the
    ghost-layer exchange through the message-passing substrate — both
    through {!Lockstep}, over a block set with every block active and
    block [r] on rank [r].  A multi-rank run is numerically identical to
    the single-block run of the same global domain (verified by the
    integration tests). *)

type t = {
  comm : Mpisim.t;
  grid : int array;          (** ranks per axis *)
  block_dims : int array;
  global_dims : int array;
  sims : Pfcore.Timestep.t array;
  blocks : Lockstep.t;  (** the lockstep view of [sims] (rank = block id) *)
  overlap : bool;
      (** overlap the φ_dst ghost exchange with the μ interior sweep
          (paper §7 inner/outer kernel split) *)
}

let n_ranks t = Array.length t.sims

(** Neighbor rank along [axis] in direction [dir] = -1 or 1 (periodic). *)
let neighbor t rank ~axis ~dir =
  Lockstep.neighbor t.blocks rank ~axis ~side:(if dir < 0 then Ghost.Low else Ghost.High)

let create ?(variant_phi = Pfcore.Timestep.Full) ?(variant_mu = Pfcore.Timestep.Full)
    ?num_domains ?tile ?backend ?alloc ?(overlap = false) ~grid ~block_dims
    (gen : Pfcore.Genkernels.t) =
  if Array.length grid <> Array.length block_dims then
    invalid_arg "Forest.create: rank mismatch";
  let global_dims = Array.mapi (fun d n -> n * grid.(d)) block_dims in
  let ranks = Array.fold_left ( * ) 1 grid in
  let sims =
    Array.init ranks (fun r ->
        let c = Lockstep.coords grid r in
        let offset = Array.mapi (fun d n -> c.(d) * n) block_dims in
        Pfcore.Timestep.create ~variant_phi ~variant_mu ?num_domains ?tile ?backend
          ?alloc ~lane:(Obs.Sink.rank_lane r) ~dims:block_dims ~global_dims ~offset gen)
  in
  let blocks =
    Lockstep.create ~tags:Lockstep.Per_axis ~comm:(Mpisim.create ranks) ~grid ~block_dims
      ~owner:(Array.init ranks Fun.id)
      (Array.map (fun sim -> Lockstep.Active sim) sims)
      gen
  in
  { comm = blocks.Lockstep.comm; grid; block_dims; global_dims; sims; blocks; overlap }

(** Exchange ghost layers of [field] across all ranks ({!Lockstep.exchange}). *)
let exchange t field = Lockstep.exchange t.blocks field

(** Prime source-field ghosts after initial conditions have been written. *)
let prime t = Lockstep.prime t.blocks

let step_count t = (Array.get t.sims 0).Pfcore.Timestep.step_count

(** One lockstep time step across all ranks ({!Lockstep.step}); with
    [overlap] the φ_dst exchange runs under the μ interior sweep, bitwise
    identical to the sequential order (check oracle 10). *)
let step t = Lockstep.step t.blocks ~overlap:t.overlap ~step:(step_count t)

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

(** Read one interior cell value by global coordinates. *)
let get t field ~component global = Lockstep.get t.blocks field ~component global
