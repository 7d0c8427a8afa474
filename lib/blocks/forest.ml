(** Block forest: distributed-memory execution of Algorithm 1 (paper §4).

    The global domain is partitioned into a Cartesian grid of equally sized
    blocks, one per simulated rank, with periodic boundaries.  Each step
    runs the kernel phases on every rank in lockstep and performs the
    ghost-layer exchange through the message-passing substrate.  A
    multi-rank run is numerically identical to the single-block run of the
    same global domain (verified by the integration tests). *)

open Symbolic

type t = {
  comm : Mpisim.t;
  grid : int array;          (** ranks per axis *)
  block_dims : int array;
  global_dims : int array;
  sims : Pfcore.Timestep.t array;
  neighbors : int array;
      (** periodic face neighbors, computed once: the rank beside [r] on
          [axis] is at [((r * dim) + axis) * 2] (low) and the slot after
          it (high) *)
  overlap : bool;
      (** overlap the φ_dst ghost exchange with the μ interior sweep
          (paper §7 inner/outer kernel split) *)
}

let n_ranks t = Array.length t.sims

let rank_coords grid r =
  let dim = Array.length grid in
  let c = Array.make dim 0 in
  let rec go d r = if d < dim then (c.(d) <- r mod grid.(d); go (d + 1) (r / grid.(d))) in
  go 0 r;
  c

let rank_of_coords grid c =
  let dim = Array.length grid in
  let rec go d acc = if d < 0 then acc else go (d - 1) ((acc * grid.(d)) + c.(d)) in
  go (dim - 1) 0

let neighbor_of_coords grid rank ~axis ~dir =
  let c = rank_coords grid rank in
  c.(axis) <- ((c.(axis) + dir) mod grid.(axis) + grid.(axis)) mod grid.(axis);
  rank_of_coords grid c

(** Neighbor rank along [axis] in direction [dir] = -1 or 1 (periodic). *)
let neighbor t rank ~axis ~dir =
  t.neighbors.((((rank * Array.length t.grid) + axis) * 2) + if dir < 0 then 0 else 1)

let create ?(variant_phi = Pfcore.Timestep.Full) ?(variant_mu = Pfcore.Timestep.Full)
    ?num_domains ?tile ?backend ?alloc ?(overlap = false) ~grid ~block_dims
    (gen : Pfcore.Genkernels.t) =
  let dim = Array.length block_dims in
  if Array.length grid <> dim then invalid_arg "Forest.create: rank mismatch";
  let global_dims = Array.mapi (fun d n -> n * grid.(d)) block_dims in
  let ranks = Array.fold_left ( * ) 1 grid in
  let comm = Mpisim.create ranks in
  let sims =
    Array.init ranks (fun r ->
        let c = rank_coords grid r in
        let offset = Array.mapi (fun d n -> c.(d) * n) block_dims in
        Pfcore.Timestep.create ~variant_phi ~variant_mu ?num_domains ?tile ?backend
          ?alloc ~rank:r ~dims:block_dims ~global_dims ~offset gen)
  in
  let neighbors =
    Array.init (ranks * dim * 2) (fun i ->
        neighbor_of_coords grid (i / (dim * 2)) ~axis:(i / 2 mod dim)
          ~dir:(if i mod 2 = 0 then -1 else 1))
  in
  { comm; grid; block_dims; global_dims; sims; neighbors; overlap }

(** Exchange ghost layers of [field] across all ranks, axis by axis,
    through the self-healing sequenced protocol ({!Ghost.fetch}): drops,
    delays and duplicates injected by a fault plan are healed in place; a
    dead neighbor surfaces as [Ghost.Rank_crashed] for the recovery driver
    to roll back.  Crashed ranks neither send nor receive. *)
let post_axis_sends t (field : Fieldspec.t) ~axis =
  let tag_low = axis * 2 and tag_high = (axis * 2) + 1 in
  Array.iteri
    (fun r (sim : Pfcore.Timestep.t) ->
      if Mpisim.live t.comm r then begin
        let buf = Vm.Engine.buffer sim.Pfcore.Timestep.block field in
        Ghost.send_slab t.comm ~src:r ~dst:(neighbor t r ~axis ~dir:(-1)) ~tag:tag_low
          buf ~axis ~side:Ghost.Low;
        Ghost.send_slab t.comm ~src:r ~dst:(neighbor t r ~axis ~dir:1) ~tag:tag_high
          buf ~axis ~side:Ghost.High
      end)
    t.sims

let drain_axis_recvs t (field : Fieldspec.t) ~axis =
  let tag_low = axis * 2 and tag_high = (axis * 2) + 1 in
  Array.iteri
    (fun r (sim : Pfcore.Timestep.t) ->
      if Mpisim.live t.comm r then begin
        let buf = Vm.Engine.buffer sim.Pfcore.Timestep.block field in
        (* the high slab of my low neighbor fills my low ghosts *)
        Ghost.recv_slab t.comm ~src:(neighbor t r ~axis ~dir:(-1)) ~dst:r ~tag:tag_high
          buf ~axis ~side:Ghost.Low;
        Ghost.recv_slab t.comm ~src:(neighbor t r ~axis ~dir:1) ~dst:r ~tag:tag_low
          buf ~axis ~side:Ghost.High
      end)
    t.sims

let exchange_slabs t (field : Fieldspec.t) =
  for axis = 0 to Array.length t.block_dims - 1 do
    post_axis_sends t field ~axis;
    drain_axis_recvs t field ~axis
  done

let exchange t (field : Fieldspec.t) =
  (* the exchange involves all ranks, so its span lives on the process lane *)
  Obs.Span.in_lane 0 (fun () ->
      Obs.Span.with_ ~cat:"comm" ("exchange:" ^ field.Fieldspec.name) (fun () ->
          exchange_slabs t field))

let fields (t : t) = (Array.get t.sims 0).Pfcore.Timestep.gen.Pfcore.Genkernels.fields

let has_mu t =
  Pfcore.Params.n_mu (Array.get t.sims 0).Pfcore.Timestep.gen.Pfcore.Genkernels.params > 0

(** Prime source-field ghosts after initial conditions have been written. *)
let prime t =
  exchange t (fields t).Pfcore.Model.phi_src;
  if has_mu t then exchange t (fields t).Pfcore.Model.mu_src

let step_count t = (Array.get t.sims 0).Pfcore.Timestep.step_count

(* Nonblocking axis-0 exchange of [field]: eager isends (assigning the
   same per-channel sequence numbers the blocking path would), then the
   receive requests in the exact drain order of [drain_axis_recvs] — so
   the overlapped exchange consumes a message stream identical to the
   sequential one, which is what keeps the two modes bitwise equal. *)
let post_axis0_overlap t (field : Fieldspec.t) =
  let axis = 0 in
  let tag_low = 0 and tag_high = 1 in
  Array.iteri
    (fun r (sim : Pfcore.Timestep.t) ->
      if Mpisim.live t.comm r then begin
        let buf = Vm.Engine.buffer sim.Pfcore.Timestep.block field in
        Ghost.isend_slab t.comm ~src:r ~dst:(neighbor t r ~axis ~dir:(-1)) ~tag:tag_low
          buf ~axis ~side:Ghost.Low;
        Ghost.isend_slab t.comm ~src:r ~dst:(neighbor t r ~axis ~dir:1) ~tag:tag_high
          buf ~axis ~side:Ghost.High
      end)
    t.sims;
  let pending = ref [] in
  Array.iteri
    (fun r (sim : Pfcore.Timestep.t) ->
      if Mpisim.live t.comm r then begin
        let buf = Vm.Engine.buffer sim.Pfcore.Timestep.block field in
        pending :=
          Ghost.irecv_slab t.comm ~src:(neighbor t r ~axis ~dir:(-1)) ~dst:r ~tag:tag_high
            buf ~axis ~side:Ghost.Low
          :: !pending;
        pending :=
          Ghost.irecv_slab t.comm ~src:(neighbor t r ~axis ~dir:1) ~dst:r ~tag:tag_low
            buf ~axis ~side:Ghost.High
          :: !pending
      end)
    t.sims;
  List.rev !pending

let step_sequential t =
  let each f = Array.iteri (fun r sim -> if Mpisim.live t.comm r then f sim) t.sims in
  each Pfcore.Timestep.phase_phi;
  exchange t (fields t).Pfcore.Model.phi_dst;
  each Pfcore.Timestep.phase_mu;
  if has_mu t then exchange t (fields t).Pfcore.Model.mu_dst;
  each Pfcore.Timestep.finish

(* Overlapped step (paper §7): post the axis-0 φ_dst exchange nonblocking,
   run the deep-interior μ sweep — whose cells provably never read the
   ghost layer (cumulative stencil halo, [Pfcore.Timestep.mu_chain]) —
   while those messages are in flight, then complete the exchange
   (remaining axes must follow axis 0 sequentially for corner propagation)
   and sweep the halo shell.  Models without a μ family have nothing to
   hide the exchange behind and fall back to the sequential order. *)
let step_overlapped t =
  let each f = Array.iteri (fun r sim -> if Mpisim.live t.comm r then f sim) t.sims in
  each Pfcore.Timestep.phase_phi;
  if not (has_mu t) then begin
    exchange t (fields t).Pfcore.Model.phi_dst;
    each Pfcore.Timestep.finish
  end
  else begin
    let phi_dst = (fields t).Pfcore.Model.phi_dst in
    let pending =
      Obs.Span.in_lane 0 (fun () ->
          Obs.Span.with_ ~cat:"comm" ("exchange.overlap:" ^ phi_dst.Fieldspec.name)
            (fun () -> post_axis0_overlap t phi_dst))
    in
    each Pfcore.Timestep.phase_mu_interior;
    Obs.Span.in_lane 0 (fun () ->
        Obs.Span.with_ ~cat:"comm" ("exchange.wait:" ^ phi_dst.Fieldspec.name) (fun () ->
            List.iter (Ghost.await_slab t.comm) pending;
            for axis = 1 to Array.length t.block_dims - 1 do
              post_axis_sends t phi_dst ~axis;
              drain_axis_recvs t phi_dst ~axis
            done));
    each Pfcore.Timestep.phase_mu_shell;
    exchange t (fields t).Pfcore.Model.mu_dst;
    each Pfcore.Timestep.finish
  end

(** One lockstep time step across all ranks (Algorithm 1).  Activates a
    pending rank crash at the step boundary and enforces the end-of-step
    quiescence invariant: after a completed exchange no live message may
    remain in flight.  With [overlap] the φ_dst exchange runs nonblocking
    under the μ interior sweep — bitwise identical to the sequential order
    (check oracle 10). *)
let step t =
  Obs.Span.with_ ~cat:"step" ~args:[ ("step", float_of_int (step_count t)) ] "step"
    (fun () ->
      Mpisim.begin_step t.comm ~step:(step_count t);
      if t.overlap then step_overlapped t else step_sequential t;
      Mpisim.finalize t.comm)

let run ?(on_step = fun (_ : t) -> ()) t ~steps =
  for _ = 1 to steps do
    step t;
    on_step t
  done

(** Global phase fractions (average of per-rank fractions; blocks are
    equally sized). *)
let phase_fractions t =
  let per_rank = Array.map Pfcore.Simulation.phase_fractions t.sims in
  let n = Array.length per_rank.(0) in
  Array.init n (fun c ->
      Array.fold_left (fun acc fr -> acc +. fr.(c)) 0. per_rank
      /. float_of_int (Array.length t.sims))

(** Read one interior cell value by global coordinates. *)
let get t (field : Fieldspec.t) ~component global =
  let dim = Array.length t.block_dims in
  let rc = Array.init dim (fun d -> global.(d) / t.block_dims.(d)) in
  let local = Array.init dim (fun d -> global.(d) mod t.block_dims.(d)) in
  let sim = t.sims.(rank_of_coords t.grid rc) in
  Vm.Buffer.get (Vm.Engine.buffer sim.Pfcore.Timestep.block field) ~component local
