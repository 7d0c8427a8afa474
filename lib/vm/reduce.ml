(** Deterministic hierarchical reductions over field buffers.

    Floating-point combination is not associative, so a scalar folded in
    scheduler completion order would break the bitwise-determinism
    contract the differential oracles enforce for fields.  This module
    fixes the combination topology instead of the execution order: every
    reduction is the value of one {e canonical binary tree} over the
    global linear cell index [0, n) (axis 0 fastest — the buffer layout
    order), where node [\[lo, hi)] always splits at [lo + (hi - lo) / 2]
    down to single-cell leaves.  Each canonical node therefore has one
    well-defined value, independent of who computes it.

    An executor — a tile on a pool lane, a block of a forest, a simulated
    rank — owns some set of cells.  Every contiguous run of its cells
    (one row of a tile) decomposes into O(log n) {e maximal} canonical
    nodes; the executor evaluates those node values locally with the same
    fixed tree fold ({!segment}) and publishes them as a {!partial}.
    Partials merge by node key, never by arrival order, and {!assemble}
    recombines children bottom-up into the root value.  Because every
    combination the tree performs is between two uniquely-determined node
    values, the result is bitwise identical for any tile shape, domain
    count, steal pattern, rank decomposition and backend — the Petalisp
    [preduce] idiom applied to the flat cell index.

    Min/max use the C99 [fmin]/[fmax] NaN semantics ([Expr.c_fmin]): a
    NaN operand yields the other operand, so an all-NaN reduction is NaN
    and a mixed one ignores the NaNs.  The empty reduction is the
    identity: 0 for sums, NaN for min/max. *)

open Symbolic

type op = Sum | Min | Max

let identity = function Sum -> 0. | Min | Max -> Float.nan

let comb op a b =
  match op with
  | Sum -> a +. b
  | Min -> Expr.c_fmin a b
  | Max -> Expr.c_fmax a b

let op_label = function Sum -> "sum" | Min -> "min" | Max -> "max"

(** One canonical-tree node [\[lo, hi)] carrying its reduced value. *)
type node = { nlo : int; nhi : int; v : float }

(** A set of canonical nodes computed by one executor.  Nodes of partials
    that are merged together must cover disjoint cell sets (so node keys
    never collide with different values). *)
type partial = node list

(** Value of the canonical node [\[lo, hi)], evaluating leaves with [f]
    (called with the global linear cell index) and combining with the
    fixed midpoint tree — {e the} accumulation order of the contract. *)
let rec eval_node f op lo hi =
  if hi - lo = 1 then f lo
  else begin
    let mid = lo + ((hi - lo) / 2) in
    (* bind left before right: leaf evaluation order (and therefore any
       side effect of [f], like a poisoned cell raising) is deterministic *)
    let left = eval_node f op lo mid in
    let right = eval_node f op mid hi in
    comb op left right
  end

(* Maximal canonical nodes of the tree over [lo, hi) covering the segment
   [a, b) (assumed inside [lo, hi)), prepended to [acc] in ascending
   position order. *)
let rec decompose lo hi a b acc =
  if a >= b then acc
  else if a = lo && b = hi then (lo, hi) :: acc
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let acc = if b > mid then decompose mid hi (max a mid) b acc else acc in
    if a < mid then decompose lo mid a (min b mid) acc else acc
  end

(** Reduce one contiguous index segment [a, b) of the space [0, n): the
    partial holds one evaluated node per maximal canonical node. *)
let segment ~n f op a b : partial =
  List.map
    (fun (lo, hi) -> { nlo = lo; nhi = hi; v = eval_node f op lo hi })
    (decompose 0 n a b [])

(** Root value [\[0, n)] from partials that together cover every cell
    exactly once.  Children found in the merged table stop the recursion,
    so no leaf is ever re-read; a missing leaf is a coverage bug and
    raises. *)
let assemble ~n op (ps : partial list) =
  if n <= 0 then identity op
  else begin
    let tbl = Hashtbl.create 256 in
    List.iter (List.iter (fun nd -> Hashtbl.replace tbl (nd.nlo, nd.nhi) nd.v)) ps;
    let rec value lo hi =
      match Hashtbl.find_opt tbl (lo, hi) with
      | Some v -> v
      | None ->
        if hi - lo <= 1 then
          invalid_arg
            (Printf.sprintf "Reduce.assemble: cell %d not covered by any partial" lo)
        else begin
          let mid = lo + ((hi - lo) / 2) in
          let left = value lo mid in
          let right = value mid hi in
          comb op left right
        end
    in
    value 0 n
  end

(* ------------------------------------------------------------------ *)
(* Wire codec (cross-rank combination rides Mpisim float payloads)     *)
(* ------------------------------------------------------------------ *)

(** Flatten a partial to [lo; hi; v] float triples.  Node bounds are cell
    counts, exact in a double far beyond any grid this repo addresses. *)
let encode (p : partial) =
  let a = Array.make (3 * List.length p) 0. in
  List.iteri
    (fun i nd ->
      a.((3 * i) + 0) <- float_of_int nd.nlo;
      a.((3 * i) + 1) <- float_of_int nd.nhi;
      a.((3 * i) + 2) <- nd.v)
    p;
  a

let decode a : partial =
  if Array.length a mod 3 <> 0 then invalid_arg "Reduce.decode: payload not triples";
  List.init (Array.length a / 3) (fun i ->
      {
        nlo = int_of_float a.((3 * i) + 0);
        nhi = int_of_float a.((3 * i) + 1);
        v = a.((3 * i) + 2);
      })

(* ------------------------------------------------------------------ *)
(* Per-cell quantities                                                 *)
(* ------------------------------------------------------------------ *)

(** Interface detector band: a cell is an interface cell when any phase
    component lies strictly inside (0.01, 0.99). *)
let interface_lo = 0.01

let interface_hi = 0.99

(** What is reduced at each cell: one stored component, the 0/1 interface
    indicator over all components of the field, or an arbitrary function
    of the {e global} cell coordinates (test hook — the oracle battery
    injects NaN patterns and poisoned cells through it). *)
type cellfn =
  | Component of int
  | Interface
  | Custom of (int array -> float)

let cellfn_label = function
  | Component c -> Printf.sprintf "c%d" c
  | Interface -> "interface"
  | Custom _ -> "custom"

(* ------------------------------------------------------------------ *)
(* Tiled block reduction (the Engine/Pool/Schedule hook consumer)      *)
(* ------------------------------------------------------------------ *)

(** Global linear index (axis 0 fastest) of global coordinates. *)
let global_index gdims g =
  let idx = ref 0 in
  for d = Array.length gdims - 1 downto 0 do
    idx := (!idx * gdims.(d)) + g.(d)
  done;
  !idx

let total_cells gdims = Array.fold_left ( * ) 1 gdims

(** Partial of one block's interior over the global index space described
    by [block.global_dims]/[block.offset].  The sweep is tiled with the
    same loop-depth [tile] shape the kernels use (default: outermost-loop
    slices at [2 * num_domains]) and executed through the persistent pool
    via {!Pool.collect}; each tile folds its rows into canonical nodes
    through {!Schedule.iter_rows}, so the published nodes — and therefore
    the assembled scalar — are independent of tiling and lane schedule by
    construction.  [backend] selects the {!Engine.cell_reader} path. *)
let block_partial ?(backend = Engine.default_backend ())
    ?(num_domains = Pool.default_domains ()) ?tile (block : Engine.block)
    (field : Fieldspec.t) cellfn op : partial =
  let dims = block.Engine.dims in
  let dim = Array.length dims in
  let gdims = block.Engine.global_dims in
  let offset = block.Engine.offset in
  let n = total_cells gdims in
  let interior = Array.fold_left ( * ) 1 dims in
  if interior = 0 then []
  else begin
    let ranges = Array.init dim (fun depth -> (0, dims.(dim - 1 - depth) - 1)) in
    let shape =
      match tile with
      | Some s -> Some s
      | None when num_domains <= 1 -> None
      | None ->
        let s = Array.make dim 0 in
        let n0 = dims.(dim - 1) in
        s.(0) <- max 1 ((n0 + (2 * num_domains) - 1) / (2 * num_domains));
        Some s
    in
    let tiles = Schedule.make ~ranges ?shape () in
    let components =
      match cellfn with
      | Interface -> (Engine.buffer block field).Buffer.components
      | Component _ | Custom _ -> 0
    in
    let tile_partial ti =
      let t = tiles.(ti) in
      (* per-tile scratch: lanes never share coordinate arrays *)
      let lc = Array.make dim 0 in
      let gc = Array.make dim 0 in
      let cellv =
        match cellfn with
        | Component c ->
          let read = Engine.cell_reader ~component:c ~backend block field in
          fun () -> read lc
        | Interface ->
          let readers =
            Array.init components (fun c ->
                Engine.cell_reader ~component:c ~backend block field)
          in
          fun () ->
            let hit = ref false in
            for c = 0 to components - 1 do
              let v = readers.(c) lc in
              if v > interface_lo && v < interface_hi then hit := true
            done;
            if !hit then 1. else 0.
        | Custom f -> fun () -> f gc
      in
      let acc = ref [] in
      Schedule.iter_rows t (fun outer (xlo, xhi) ->
          for depth = 0 to dim - 2 do
            let axis = dim - 1 - depth in
            lc.(axis) <- outer.(depth);
            gc.(axis) <- outer.(depth) + offset.(axis)
          done;
          lc.(0) <- xlo;
          gc.(0) <- xlo + offset.(0);
          let a = global_index gdims gc in
          let b = a + (xhi - xlo + 1) in
          let f gi =
            lc.(0) <- xlo + (gi - a);
            gc.(0) <- lc.(0) + offset.(0);
            cellv ()
          in
          acc := segment ~n f op a b @ !acc);
      !acc
    in
    let name =
      Printf.sprintf "reduce:%s.%s.%s" field.Fieldspec.name (op_label op)
        (cellfn_label cellfn)
    in
    let wrap lane f =
      if not (Obs.Sink.enabled ()) then f ()
      else Obs.Span.with_ ~cat:"reduce" ~tid:lane ("slice:" ^ name) f
    in
    let run () =
      let parts =
        Pool.collect ~wrap ~domains:num_domains ~ntiles:(Array.length tiles)
          (fun ~lane:_ ti -> tile_partial ti)
      in
      Obs.Metrics.count "reduce.cells" interior;
      List.concat (Array.to_list parts)
    in
    if not (Obs.Sink.enabled ()) then run ()
    else Obs.Span.with_ ~cat:"reduce" name run
  end

(** Scalar over a block that owns the whole global domain — the serial
    single-block entry and the reference the oracle battery compares
    every other executor against (with [num_domains:1], no [tile]). *)
let scalar ?backend ?num_domains ?tile (block : Engine.block) field cellfn op =
  let n = total_cells block.Engine.global_dims in
  assemble ~n op [ block_partial ?backend ?num_domains ?tile block field cellfn op ]
