(** Deterministic, order-free reductions over field buffers.

    Floating-point addition is not associative, so a scalar folded in
    scheduler completion order would break the bitwise-determinism
    contract the differential oracles enforce for fields.  Here a sum is
    accumulated {e exactly} in a fixed-size integer superaccumulator
    (Neal 2015, arXiv:1505.05571) and rounded to nearest-even once, in
    {!finish}, so every decomposition (tile shape, domain count, steal
    pattern, rank split, backend) yields the one correctly rounded sum.
    Each executor (a pool tile, a forest block, a simulated rank)
    publishes a fixed-size {!partial}; partials {!merge} exactly, in any
    order.

    - [Sum]: 67 limbs of 32 bits, bit 0 worth 2^-1074 (the least
      subnormal), so every finite cell is added exactly, with 46 bits of
      room above the largest double.  Beside them sit the IEEE sum of the
      non-finite cells, whose NaN {!finish} makes canonical, and whether
      some cell was not -0: an exact zero is -0 only when every cell was.
    - [Min]/[Max]: one value under the total order that skips NaNs and
      puts -0 before +0; an empty or all-NaN extremum is NaN.

    Every partial counts its cells, and {!finish} raises unless they
    number exactly the cells of the space: a mis-covered decomposition is
    a bug, never a silently different scalar. *)

open Symbolic

type op = Sum | Min | Max

let op_label = function Sum -> "sum" | Min -> "min" | Max -> "max"

let nlimbs = 67

(** What one executor publishes: the cells it covered and their sum or
    extremum. *)
type partial = {
  op : op;
  limbs : int array;
      (** [Sum]: limb [i] is worth 2^(32 i - 1074); empty for [Min]/[Max] *)
  mutable pending : int;  (** deposits since the limbs were last carried *)
  mutable special : float;
      (** [Sum]: IEEE sum of the non-finite cells, 0 when there were
          none; [Min]/[Max]: the extremum, NaN when there is none *)
  mutable nonzero : bool;  (** [Sum]: some cell was not -0 *)
  mutable cells : int;
}

let empty op =
  let sum = op = Sum in
  {
    op;
    limbs = (if sum then Array.make nlimbs 0 else [||]);
    pending = 0;
    special = (if sum then 0. else Float.nan);
    nonzero = false;
    cells = 0;
  }

let mask = 0xFFFF_FFFF

(* Bring limbs 0 .. n-2 into [0, 2^32), the top limb keeping the sign.
   Exact: [s = (s asr 32) * 2^32 + (s land mask)] for every int. *)
let carry l =
  for i = 0 to Array.length l - 2 do
    let s = l.(i) in
    l.(i) <- s land mask;
    l.(i + 1) <- l.(i + 1) + (s asr 32)
  done

(* A deposit moves a limb by less than 2^32, so between carries a limb
   stays below 2^32 (budget + 1) < 2^61 and a merge's sum of two below
   2^62. *)
let budget = 1 lsl 28

(* Add (or subtract) [v * 2^pos] units of 2^-1074, [0 <= v < 2^62]:
   bits [pos, pos + 94) land in three limbs. *)
let deposit p ~neg v pos =
  let l = p.limbs and i = pos lsr 5 and s = pos land 31 and sign = if neg then -1 else 1 in
  l.(i) <- l.(i) + (sign * ((v lsl s) land mask));
  l.(i + 1) <- l.(i + 1) + (sign * ((v lsr (32 - s)) land mask));
  if s >= 2 then l.(i + 2) <- l.(i + 2) + (sign * (v lsr (64 - s)));
  p.pending <- p.pending + 1;
  if p.pending >= budget then begin
    carry l;
    p.pending <- 0
  end

(* [a] before [b] in the total order of non-NaN doubles, -0 before +0. *)
let before a b = a < b || (a = b && Float.sign_bit a && not (Float.sign_bit b))

let extremum op cur x =
  if Float.is_nan x then cur
  else if Float.is_nan cur || (if op = Min then before x cur else before cur x) then x
  else cur

(** Add [count] cells that all hold [x], exactly and in O(1): the 53-bit
    significand times [count] is deposited as two integer products.
    [count] must stay below 2^30. *)
let add_const p x ~count =
  if count < 0 || count >= 1 lsl 30 then invalid_arg "Reduce.add_const: count";
  if count > 0 then begin
    p.cells <- p.cells + count;
    match p.op with
    | Min | Max -> p.special <- extremum p.op p.special x
    | Sum ->
      if not (x = 0. && Float.sign_bit x) then p.nonzero <- true;
      let b = Int64.to_int (Int64.bits_of_float x) in
      let e = (b lsr 52) land 0x7FF and f = b land 0xF_FFFF_FFFF_FFFF in
      if e = 0x7FF then p.special <- p.special +. x
      else begin
        (* x = m * 2^(pos - 1074): subnormals have e = 0 and no hidden bit *)
        let m = if e = 0 then f else f lor 0x10_0000_0000_0000 in
        let pos = max 0 (e - 1) and neg = Float.sign_bit x in
        deposit p ~neg ((m land mask) * count) pos;
        deposit p ~neg ((m lsr 32) * count) (pos + 32)
      end
  end

(** Add one cell. *)
let add p x = add_const p x ~count:1

(** Merge the partials of two disjoint cell sets into a fresh one: exact
    and commutative, so every merge order of every split gives the same
    bits. *)
let merge a b =
  if a.op <> b.op then invalid_arg "Reduce.merge: partials of different operators";
  let p = empty a.op in
  p.cells <- a.cells + b.cells;
  p.nonzero <- a.nonzero || b.nonzero;
  p.special <- (if a.op = Sum then a.special +. b.special else extremum a.op a.special b.special);
  Array.iteri (fun i _ -> p.limbs.(i) <- a.limbs.(i) + b.limbs.(i)) p.limbs;
  carry p.limbs;
  p

(* The exact integer sum of the limbs, rounded to nearest-even once:
   keep its top 53 bits, round on the next bit and the sticky rest; a
   result of 2^1024 or more is an overflow to infinity. *)
let round p =
  let l = Array.copy p.limbs in
  carry l;
  let neg = l.(nlimbs - 1) < 0 in
  if neg then begin
    Array.iteri (fun i v -> l.(i) <- -v) l;
    carry l
  end;
  let bit k = (l.(k lsr 5) lsr (k land 31)) land 1 in
  let rec length k = if k > 0 && bit (k - 1) = 0 then length (k - 1) else k in
  let rec any_below k = k > 0 && (bit (k - 1) = 1 || any_below (k - 1)) in
  let len = length (32 * nlimbs) in
  if len = 0 then if p.nonzero || p.cells = 0 then 0. else -0.
  else begin
    let shift = max 0 (len - 53) in
    let rec top k m = if k < shift then m else top (k - 1) ((2 * m) + bit k) in
    let m = top (len - 1) 0 in
    let up = shift > 0 && bit (shift - 1) = 1 && (any_below (shift - 1) || m land 1 = 1) in
    let v = Float.ldexp (float_of_int (if up then m + 1 else m)) (shift - 1074) in
    if neg then -.v else v
  end

(** The reduction's value once every cell of the [n]-cell space has been
    merged in: a sum rounded to nearest-even (±inf past the largest
    double, canonical NaN from non-finite cells), an extremum as is.
    Raises unless the partial covers exactly [n] cells. *)
let finish ~n p =
  if p.cells <> n then
    invalid_arg (Printf.sprintf "Reduce.finish: partials cover %d cells of %d" p.cells n);
  match p.op with
  | Min | Max -> p.special
  | Sum -> if p.special <> 0. then Expr.canonical p.special else round p

(* ------------------------------------------------------------------ *)
(* Wire codec (cross-rank combination rides Mpisim float payloads)     *)
(* ------------------------------------------------------------------ *)

(** A partial as one fixed-size payload: operator, cells, the special
    value, the zero-sign flag and the carried limbs, every one exact in a
    double. *)
let encode p =
  let l = Array.copy p.limbs in
  carry l;
  let code = match p.op with Sum -> 0 | Min -> 1 | Max -> 2 in
  Array.append
    [| float_of_int code; float_of_int p.cells; p.special; (if p.nonzero then 1. else 0.) |]
    (Array.map float_of_int l)

let decode a =
  let p = empty [| Sum; Min; Max |].(int_of_float a.(0)) in
  if Array.length a <> 4 + Array.length p.limbs then invalid_arg "Reduce.decode: not a partial";
  p.cells <- int_of_float a.(1);
  p.special <- a.(2);
  p.nonzero <- a.(3) <> 0.;
  Array.iteri (fun i _ -> p.limbs.(i) <- int_of_float a.(4 + i)) p.limbs;
  p

(* ------------------------------------------------------------------ *)
(* Per-cell quantities                                                 *)
(* ------------------------------------------------------------------ *)

(** Interface detector band: a cell is an interface cell when any phase
    component lies strictly inside (0.01, 0.99). *)
let in_band v = v > 0.01 && v < 0.99

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

let total_cells gdims = Array.fold_left ( * ) 1 gdims

(** Partial of one block's interior.  The sweep is tiled with the same
    loop-depth [tile] shape the kernels use (default: outermost-loop
    slices at [2 * num_domains]) and executed through the persistent pool
    via {!Pool.collect}; each tile adds its cells into its own partial,
    and the tiles' partials merge.  [backend] selects the
    {!Engine.cell_reader} path. *)
let block_partial ?(backend = Engine.default_backend ())
    ?(num_domains = Pool.default_domains ()) ?tile (block : Engine.block)
    (field : Fieldspec.t) cellfn op : partial =
  let dims = block.Engine.dims in
  let dim = Array.length dims in
  let offset = block.Engine.offset in
  let interior = total_cells dims in
  if interior = 0 then empty op
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
            Array.init (Engine.buffer block field).Buffer.components (fun c ->
                Engine.cell_reader ~component:c ~backend block field)
          in
          let rec hit c = c >= 0 && (in_band (readers.(c) lc) || hit (c - 1)) in
          fun () -> if hit (Array.length readers - 1) then 1. else 0.
        | Custom f -> fun () -> f gc
      in
      let p = empty op in
      Schedule.iter_rows t (fun outer (xlo, xhi) ->
          for depth = 0 to dim - 2 do
            let axis = dim - 1 - depth in
            lc.(axis) <- outer.(depth);
            gc.(axis) <- outer.(depth) + offset.(axis)
          done;
          for x = xlo to xhi do
            lc.(0) <- x;
            gc.(0) <- x + offset.(0);
            add p (cellv ())
          done);
      p
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
      Array.fold_left merge (empty op) parts
    in
    if not (Obs.Sink.enabled ()) then run ()
    else Obs.Span.with_ ~cat:"reduce" name run
  end

(** Scalar over a block that owns the whole global domain — the serial
    single-block entry and the reference the oracle battery compares
    every other executor against (with [num_domains:1], no [tile]). *)
let scalar ?backend ?num_domains ?tile (block : Engine.block) field cellfn op =
  finish
    ~n:(total_cells block.Engine.global_dims)
    (block_partial ?backend ?num_domains ?tile block field cellfn op)
