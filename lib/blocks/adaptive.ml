(** Interface-adaptive block forest (paper §4.1 / §8).

    waLBerla's phase-field runs refine around the moving solidification
    front and coarsen the bulk; here the same economy is realised on the
    uniform block grid by {e freezing} blocks whose state is exactly
    constant.  Away from the interface a phase-field relaxes to a bulk
    fixed point (φ a simplex vertex, μ its equilibrium value); once a
    block and its entire Chebyshev-1 neighborhood sit bitwise on the same
    per-component constants, the block's next step provably reproduces
    those constants, so the block stops sweeping kernels and is
    represented by the constants alone — a coarsened block of level ≥ 1.
    When the front approaches (any neighbor leaves the vertex), the block
    is re-materialised ({e refined} back to level 0) before its cells can
    differ from the uniform run.  An adaptive run is therefore bitwise
    identical, cell for cell, to the uniform fine-grid run — the property
    oracle 5's refinement legs lock down.

    Soundness of the freeze rule (one step of grace is enough):

    + a step of block B reads only the global source fields within the
      ghost depth of B's padded extent (exchange correctness), i.e. at
      most [2 (φ stencil) + 2 (μ stencil over the mid-step φ_dst
      exchange) = 4] cells beyond B — inside B's Chebyshev-1 neighborhood
      whenever every block dimension is ≥ {!min_freeze_dim};
    + freezing additionally requires a {e probe certificate}: a tiny
      throwaway block is filled with the candidate constants and stepped
      once; only a bitwise fixed point certifies (cached per constant
      vertex).  A static kernel scan rejects models whose kernels read
      the time symbol, cell coordinates or fluctuation streams — their
      bulk is never a spatial fixed point;
    + thawing re-primes source-field ghosts, because a materialised
      block's ghost layers must equal the mid-step exchanged values of
      the uniform run, which the constant fill alone cannot provide.

    The step, the ghost exchange and the reductions are {!Lockstep}'s,
    over this forest's own states and owners; this module keeps the
    adaptation.  Frozen blocks still participate in ghost exchange: the
    slab an all-constant neighbor would send is synthesised locally
    ({!Ghost.constant_slab}) — no messages, no sweeps, no storage.
    Refinement levels are the clamped Chebyshev block distance to the
    nearest active block, which makes the forest 2:1 balanced by
    construction (asserted).  After each adaptation round the blocks are
    re-assigned to ranks along the Morton curve with stored-cell weights
    ({!Morton.balance}); migrating blocks ship their padded buffers over
    {!Mpisim} channels through the self-healing protocol.  Reductions are
    exact sums like everywhere else: a frozen block adds its constant
    once per cell in O(1), so diagnostics are bitwise independent of the
    refinement state. *)

open Symbolic

type consts = Lockstep.consts
type state = Lockstep.state = Active of Pfcore.Timestep.t | Frozen of consts

type t = {
  comm : Mpisim.t;
  gen : Pfcore.Genkernels.t;
  bgrid : int array;  (** blocks per axis (decoupled from the rank count) *)
  block_dims : int array;
  global_dims : int array;
  n_ranks : int;
  variant_phi : Pfcore.Timestep.variant;
  variant_mu : Pfcore.Timestep.variant;
  num_domains : int option;
  tile : int array option;
  backend : Vm.Engine.backend option;
  overlap : bool;
  freezable : bool;  (** static kernel scan: bulk can be a fixed point *)
  states : state array;
  levels : int array;  (** 0 = active; ≥ 1 = coarsening level of a frozen block *)
  owner : int array;   (** owning rank per block (Morton-balanced) *)
  blocks : Lockstep.t;  (** the lockstep view of [states] and [owner] (the same arrays) *)
  mutable step_count : int;
  mutable time : float;
  mutable cells_touched : int;  (** cumulative interior cells actually swept *)
  mutable uniform_cells : int;
      (** cumulative cells the uniform run sweeps in the same steps,
          replays after a rollback included *)
  mutable freezes : int;
  mutable thaws : int;
  mutable migrations : int;
  probe_cache : (string, bool) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)
(* ------------------------------------------------------------------ *)

let nblocks t = Array.length t.states
let block_cells t = Array.fold_left ( * ) 1 t.block_dims
let block_coords t id = Lockstep.coords t.bgrid id
let block_id t c = Lockstep.id_of_coords t.bgrid c

(** Distinct periodic Chebyshev-1 neighbors of a block, excluding itself
    (on short axes the wrap can alias neighbors together). *)
let neighbors t id =
  let dim = Array.length t.bgrid in
  let c = block_coords t id in
  let nc = Array.make dim 0 in
  let acc = ref [] in
  let rec go d =
    if d = dim then begin
      let nid = block_id t nc in
      if nid <> id && not (List.mem nid !acc) then acc := nid :: !acc
    end
    else
      for dd = -1 to 1 do
        nc.(d) <- (((c.(d) + dd) mod t.bgrid.(d)) + t.bgrid.(d)) mod t.bgrid.(d);
        go (d + 1)
      done
  in
  go 0;
  List.rev !acc

(** Periodic Chebyshev distance between two blocks of the grid. *)
let chebyshev_dist t a b =
  let ca = block_coords t a and cb = block_coords t b in
  let dist = ref 0 in
  Array.iteri
    (fun d g ->
      let delta = abs (ca.(d) - cb.(d)) in
      dist := max !dist (min delta (g - delta)))
    t.bgrid;
  !dist

let fields t = Lockstep.fields t.blocks
let has_mu t = Lockstep.has_mu t.blocks
let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Static freezability scan                                            *)
(* ------------------------------------------------------------------ *)

let expr_position_dependent e =
  Expr.fold
    (fun u n ->
      u
      ||
      match n with
      | Expr.Rand _ | Expr.Coord _ -> true
      | Expr.Sym "t" -> true
      | _ -> false)
    false e

let kernel_position_dependent (k : Ir.Kernel.t) =
  List.exists
    (fun (a : Field.Assignment.t) -> expr_position_dependent a.Field.Assignment.rhs)
    k.Ir.Kernel.body

(** A model is freezable when no kernel of either variant reads the time
    symbol, the cell coordinates or a fluctuation stream: its bulk value
    is then a pure function of the neighborhood, so a constant
    neighborhood {e can} be a fixed point (the probe decides whether it
    is). *)
let gen_freezable (gen : Pfcore.Genkernels.t) =
  let pair (p : Pfcore.Genkernels.pair) = [ p.Pfcore.Genkernels.stag; p.Pfcore.Genkernels.main ] in
  let kernels =
    (gen.Pfcore.Genkernels.phi_full :: pair gen.Pfcore.Genkernels.phi_split)
    @ Option.to_list gen.Pfcore.Genkernels.projection
    @ (match gen.Pfcore.Genkernels.mu_full with Some k -> [ k ] | None -> [])
    @ (match gen.Pfcore.Genkernels.mu_split with Some p -> pair p | None -> [])
  in
  not (List.exists kernel_position_dependent kernels)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Reduction rounds own [Lockstep.reduce_tag_base ..); the per-face
   exchange channels and the migration channels each get their own range
   so no two logical streams ever share a (src, dst, tag) channel. *)
let exchange_tag_base = 1000
let migrate_tag_base = 100000

let make_sim t id =
  let c = block_coords t id in
  let offset = Array.mapi (fun d n -> c.(d) * n) t.block_dims in
  Pfcore.Timestep.create ~variant_phi:t.variant_phi ~variant_mu:t.variant_mu
    ?num_domains:t.num_domains ?tile:t.tile ?backend:t.backend
    ~lane:(Obs.Sink.rank_lane t.owner.(id))
    ~global_dims:t.global_dims ~offset ~dims:t.block_dims t.gen

(** Block ids along the Morton curve (natural order in 1D, where no
    Z-curve is defined). *)
let curve_ids t =
  if Array.length t.bgrid = 1 then List.init (nblocks t) (fun i -> i)
  else List.map (block_id t) (Morton.curve t.bgrid)

let stored_cells_of t id =
  match t.states.(id) with
  | Active _ -> block_cells t
  | Frozen _ -> max 1 (block_cells t / (1 lsl (Array.length t.bgrid * t.levels.(id))))

let active_cells t =
  let acc = ref 0 in
  Array.iter (function Active _ -> acc := !acc + block_cells t | Frozen _ -> ()) t.states;
  !acc

let frozen_blocks t =
  Array.fold_left (fun n -> function Frozen _ -> n + 1 | Active _ -> n) 0 t.states

let create ?(variant_phi = Pfcore.Timestep.Full) ?(variant_mu = Pfcore.Timestep.Full)
    ?num_domains ?tile ?backend ?(overlap = false) ?(ranks = 1) ~bgrid ~block_dims
    (gen : Pfcore.Genkernels.t) =
  let dim = Array.length block_dims in
  if Array.length bgrid <> dim then invalid_arg "Adaptive.create: rank mismatch";
  if ranks < 1 then invalid_arg "Adaptive.create: ranks must be positive";
  let nb = Array.fold_left ( * ) 1 bgrid in
  let blocks =
    Lockstep.create ~tags:(Lockstep.Per_face exchange_tag_base) ~comm:(Mpisim.create ranks)
      ~grid:(Array.copy bgrid) ~block_dims:(Array.copy block_dims) ~owner:(Array.make nb 0)
      (Array.make nb (Frozen []))
      gen
  in
  let t =
    {
      comm = blocks.Lockstep.comm;
      gen;
      bgrid = blocks.Lockstep.grid;
      block_dims = blocks.Lockstep.block_dims;
      global_dims = blocks.Lockstep.global_dims;
      n_ranks = ranks;
      variant_phi;
      variant_mu;
      num_domains;
      tile;
      backend;
      overlap;
      freezable = gen_freezable gen;
      states = blocks.Lockstep.states;
      levels = Array.make nb 0;
      owner = blocks.Lockstep.owner;
      blocks;
      step_count = 0;
      time = 0.;
      cells_touched = 0;
      uniform_cells = 0;
      freezes = 0;
      thaws = 0;
      migrations = 0;
      probe_cache = Hashtbl.create 8;
    }
  in
  (* initial owners: uniform weights along the Morton curve *)
  let assignment, _ = Morton.balance ~n_ranks:ranks ~weights:(fun _ -> 1.) (curve_ids t) in
  List.iter (fun (id, r) -> t.owner.(id) <- r) assignment;
  for id = 0 to nb - 1 do
    t.states.(id) <- Active (make_sim t id)
  done;
  t

(** The simulation of every currently active block (initially: all),
    for writing initial conditions. *)
let active_sims t =
  Array.to_list t.states
  |> List.filter_map (function Active sim -> Some sim | Frozen _ -> None)

(* ------------------------------------------------------------------ *)
(* Uniformity scan, probe certificate, freeze / thaw                   *)
(* ------------------------------------------------------------------ *)

(** Every block dimension must exceed the one-step influence radius
    (φ stencil + μ stencil over the mid-step exchange, ≤ 4 cells with
    ghost depth 2) before the Chebyshev-1 freeze criterion is sound;
    6 leaves a margin. *)
let min_freeze_dim = 6

let freeze_margin_ok t = Array.for_all (fun n -> n >= min_freeze_dim) t.block_dims

(* Per-storage-component constants of one field's interior, when it is
   bitwise uniform. *)
let uniform_field (sim : Pfcore.Timestep.t) (f : Fieldspec.t) =
  let buf = Lockstep.buffer sim f in
  let nc = buf.Vm.Buffer.components in
  let dims = buf.Vm.Buffer.dims in
  let dim = Array.length dims in
  let coords = Array.make dim 0 in
  let cv = Array.init nc (fun c -> Vm.Buffer.get buf ~component:c coords) in
  let ok = ref true in
  let rec walk d =
    if !ok then
      if d = dim then begin
        let c = ref 0 in
        while !ok && !c < nc do
          if not (bits_equal (Vm.Buffer.get buf ~component:!c coords) cv.(!c)) then
            ok := false;
          incr c
        done
      end
      else
        for i = 0 to dims.(d) - 1 do
          coords.(d) <- i;
          walk (d + 1)
        done
  in
  walk 0;
  if !ok then Some cv else None

(* The frozen representation of a uniform block: both fields of each
   swap pair share the vertex (at a certified fixed point the step maps
   src constants onto themselves, so post-swap dst constants coincide). *)
let scan_block t id =
  match t.states.(id) with
  | Frozen consts -> Some consts
  | Active sim -> (
    let f = fields t in
    match uniform_field sim f.Pfcore.Model.phi_src with
    | None -> None
    | Some cvp -> (
      let phi = [ (f.Pfcore.Model.phi_src, cvp); (f.Pfcore.Model.phi_dst, cvp) ] in
      if not (has_mu t) then Some phi
      else
        match uniform_field sim f.Pfcore.Model.mu_src with
        | None -> None
        | Some cvm ->
          Some (phi @ [ (f.Pfcore.Model.mu_src, cvm); (f.Pfcore.Model.mu_dst, cvm) ])))

let consts_equal (a : consts) (b : consts) =
  List.length a = List.length b
  && List.for_all2
       (fun ((f : Fieldspec.t), cv) ((g : Fieldspec.t), cw) ->
         f.Fieldspec.name = g.Fieldspec.name
         && Array.length cv = Array.length cw
         && Array.for_all2 bits_equal cv cw)
       a b

(** Only bulk vertices freeze: a uniform block sitting {e inside} the
    interface band is physically an interface and must keep evolving
    actively (it is about to deviate anyway). *)
let bulk_vertex t (consts : consts) =
  not (Array.exists Vm.Reduce.in_band (Lockstep.const_of consts (fields t).Pfcore.Model.phi_src))

let probe_key (consts : consts) =
  String.concat ";"
    (List.map
       (fun ((f : Fieldspec.t), cv) ->
         f.Fieldspec.name ^ ":"
         ^ String.concat ","
             (List.map
                (fun v -> Int64.to_string (Int64.bits_of_float v))
                (Array.to_list cv)))
       consts)

let fill_constant (buf : Vm.Buffer.t) (cv : float array) =
  for c = 0 to buf.Vm.Buffer.components - 1 do
    Array.fill buf.Vm.Buffer.data (c * buf.Vm.Buffer.comp_stride) buf.Vm.Buffer.comp_stride
      cv.(c)
  done

(** Runtime certificate that the constant vertex is a bitwise fixed
    point: a throwaway 4^d block (default periodic closure — constant
    preserving) is filled with the constants everywhere and stepped
    once; the source fields must come back bitwise unchanged.  Per-cell
    values of a position-independent kernel do not depend on the block
    shape, schedule or backend (the backends are bitwise equal by
    contract), so one interpreted probe certifies every configuration.
    Cached per constant vertex. *)
let certify t (consts : consts) =
  t.freezable
  &&
  let key = probe_key consts in
  match Hashtbl.find_opt t.probe_cache key with
  | Some ok -> ok
  | None ->
    let ok =
      Obs.Span.with_ ~cat:"adapt" "probe" (fun () ->
          let dims = Array.make (Array.length t.block_dims) 4 in
          let sim =
            Pfcore.Timestep.create ~variant_phi:t.variant_phi ~variant_mu:t.variant_mu
              ~num_domains:1 ~backend:Vm.Engine.Interp ~dims t.gen
          in
          List.iter
            (fun ((f : Fieldspec.t), (buf : Vm.Buffer.t)) ->
              match
                List.find_opt
                  (fun ((g : Fieldspec.t), _) -> g.Fieldspec.name = f.Fieldspec.name)
                  consts
              with
              | Some (_, cv) -> fill_constant buf cv
              | None -> Vm.Buffer.fill buf 0.)
            sim.Pfcore.Timestep.block.Vm.Engine.buffers;
          Pfcore.Timestep.step sim;
          let fixed f =
            match uniform_field sim f with
            | Some cw -> Array.for_all2 bits_equal (Lockstep.const_of consts f) cw
            | None -> false
          in
          fixed (fields t).Pfcore.Model.phi_src
          && ((not (has_mu t)) || fixed (fields t).Pfcore.Model.mu_src))
    in
    Hashtbl.replace t.probe_cache key ok;
    Obs.Metrics.count "adapt.probes" 1;
    ok

(** Re-materialise a frozen block at level 0.  Source and destination
    fields are filled with the vertex constants — exactly the uniform
    run's values, since the block sat on a certified fixed point while
    frozen.  Staggered scratch fields are zero-filled: a staggered value
    is always written by the stag sweep before the main sweep reads it,
    so any deterministic fill preserves bitwise equality.  Ghost layers
    are re-primed by the caller ({!adapt_round}). *)
let materialize t id (consts : consts) =
  let sim = make_sim t id in
  List.iter
    (fun ((f : Fieldspec.t), (buf : Vm.Buffer.t)) ->
      match
        List.find_opt
          (fun ((g : Fieldspec.t), _) -> g.Fieldspec.name = f.Fieldspec.name)
          consts
      with
      | Some (_, cv) -> fill_constant buf cv
      | None -> Vm.Buffer.fill buf 0.)
    sim.Pfcore.Timestep.block.Vm.Engine.buffers;
  Pfcore.Timestep.restore sim ~step:t.step_count ~time:t.time;
  t.states.(id) <- Active sim;
  t.levels.(id) <- 0;
  t.thaws <- t.thaws + 1

(* ------------------------------------------------------------------ *)
(* Levels, balance, migration                                          *)
(* ------------------------------------------------------------------ *)

(** The coarsest level a frozen block takes. *)
let max_level = 3

(** Level of a frozen block = clamped Chebyshev block distance to the
    nearest active block, capped at {!max_level}: immediate neighbors of
    the front coarsen one level, deeper bulk coarsens further.  Adjacent
    levels then differ by at most 1 (the distance function is 1-Lipschitz
    under the Chebyshev metric, and so is its clamp), i.e. the forest is
    2:1 balanced by construction. *)
let recompute_levels t =
  let actives = ref [] in
  Array.iteri
    (fun id st -> match st with Active _ -> actives := id :: !actives | Frozen _ -> ())
    t.states;
  Array.iteri
    (fun id st ->
      t.levels.(id) <-
        (match st with
        | Active _ -> 0
        | Frozen _ ->
          if !actives = [] then max_level
          else
            min max_level
              (List.fold_left (fun m a -> min m (chebyshev_dist t id a)) max_int !actives)))
    t.states;
  for id = 0 to nblocks t - 1 do
    List.iter
      (fun nb -> assert (abs (t.levels.(id) - t.levels.(nb)) <= 1))
      (neighbors t id)
  done

(** Morton rebalance with stored-cell weights; a block changing owner
    ships its padded field buffers over a dedicated channel range
    through the self-healing protocol (frozen blocks move as metadata
    only).  Skipped while any rank is dead — migration onto a crashed
    rank cannot complete, and the recovery driver is about to roll the
    whole forest back anyway. *)
let rebalance t =
  let all_live = ref true in
  for r = 0 to t.n_ranks - 1 do
    if not (Mpisim.live t.comm r) then all_live := false
  done;
  if t.n_ranks > 1 && !all_live then begin
    let assignment, _ =
      Morton.balance ~n_ranks:t.n_ranks
        ~weights:(fun id -> float_of_int (stored_cells_of t id))
        (curve_ids t)
    in
    List.iter
      (fun (id, r) ->
        let old = t.owner.(id) in
        if r <> old then begin
          (match t.states.(id) with
          | Active sim ->
            List.iteri
              (fun fi ((_ : Fieldspec.t), (buf : Vm.Buffer.t)) ->
                let tag = migrate_tag_base + (id * 16) + fi in
                Mpisim.send t.comm ~src:old ~dst:r ~tag (Array.copy buf.Vm.Buffer.data);
                let data = Ghost.fetch t.comm ~src:old ~dst:r ~tag in
                Array.blit data 0 buf.Vm.Buffer.data 0 (Array.length data))
              sim.Pfcore.Timestep.block.Vm.Engine.buffers
          | Frozen _ -> ());
          t.owner.(id) <- r;
          t.migrations <- t.migrations + 1
        end)
      assignment
  end

(* ------------------------------------------------------------------ *)
(* Adaptation round                                                    *)
(* ------------------------------------------------------------------ *)

(* Adaptation is a global decision over all blocks; with a dead rank the
   scan would read stale state (a dead rank's blocks skipped the step),
   so the crash must surface here even when no exchange touched the dead
   rank this step.  Deterministic: liveness is a pure function of the
   fault plan and the step count. *)
let check_all_live t =
  for r = 0 to t.n_ranks - 1 do
    if not (Mpisim.live t.comm r) then raise (Ghost.Rank_crashed r)
  done

let adapt_round t =
  Obs.Span.with_ ~cat:"adapt" "adapt" (fun () ->
      check_all_live t;
      let nb = nblocks t in
      let was_active = Array.map (function Active _ -> true | Frozen _ -> false) t.states in
      let scan = Array.init nb (fun id -> scan_block t id) in
      (* thaw first — a frozen block whose neighborhood left the vertex
         must be re-materialised before the next step reads it *)
      let thawed = ref false in
      for id = 0 to nb - 1 do
        match t.states.(id) with
        | Frozen consts ->
          let stale =
            List.exists
              (fun nbr ->
                match scan.(nbr) with
                | None -> true
                | Some c -> not (consts_equal consts c))
              (neighbors t id)
          in
          if stale then begin
            materialize t id consts;
            thawed := true
          end
        | Active _ -> ()
      done;
      (* freeze: decisions read the pre-thaw scan only, so they do not
         depend on the order blocks are visited in *)
      if t.freezable && freeze_margin_ok t then
        for id = 0 to nb - 1 do
          if was_active.(id) then
            match (t.states.(id), scan.(id)) with
            | Active _, Some consts
              when bulk_vertex t consts
                   && List.for_all
                        (fun nbr ->
                          match scan.(nbr) with
                          | Some c -> consts_equal consts c
                          | None -> false)
                        (neighbors t id)
                   && certify t consts ->
              t.states.(id) <- Frozen consts;
              t.freezes <- t.freezes + 1
            | _ -> ()
        done;
      recompute_levels t;
      (* a materialised block's ghosts must hold the uniform run's
         mid-step exchanged values; re-priming is idempotent on every
         other active block (their ghosts already equal the true field) *)
      if !thawed then Lockstep.prime t.blocks;
      rebalance t)

(** Prime source-field ghosts after initial conditions, then run the
    initial adaptation. *)
let prime t =
  Lockstep.prime t.blocks;
  adapt_round t

(* ------------------------------------------------------------------ *)
(* Stepping and cell access                                           *)
(* ------------------------------------------------------------------ *)

(** One lockstep step over the active blocks ({!Lockstep.step}), followed
    by the adaptation round: thaws (a correctness matter), freezes, level
    recomputation and Morton rebalance, every step. *)
let step t =
  Lockstep.step t.blocks ~overlap:t.overlap ~step:t.step_count;
  t.cells_touched <- t.cells_touched + active_cells t;
  t.uniform_cells <- t.uniform_cells + Vm.Reduce.total_cells t.global_dims;
  t.step_count <- t.step_count + 1;
  t.time <- t.time +. t.gen.Pfcore.Genkernels.params.Pfcore.Params.dt;
  adapt_round t

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

let step_count t = t.step_count

(** Read one interior cell by global coordinates — the oracle battery's
    probe for adaptive-vs-uniform bitwise equality (frozen blocks answer
    from their constants). *)
let get t field ~component global = Lockstep.get t.blocks field ~component global

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(** Cells-touched savings over the uniform run of the same swept steps,
    replays after a rollback included (≥ 1; exactly 1 when nothing ever
    froze). *)
let savings t =
  if t.cells_touched = 0 then 1.
  else float_of_int t.uniform_cells /. float_of_int t.cells_touched
