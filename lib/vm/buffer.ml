(** Field storage: padded flat arrays with ghost layers.

    Layout is structure-of-arrays with axis 0 (x) fastest, matching the
    "fzyx" layout the generated C uses.  All buffers of one block share the
    same interior dimensions and ghost width so that kernels can address
    every field through a single running base index (the base-pointer +
    linear-index form of paper §3.4). *)

open Symbolic

type t = {
  field : Fieldspec.t;
  dims : int array;        (** interior cells per axis *)
  ghost : int;
  stride : int array;      (** elements per step along each axis *)
  comp_stride : int;       (** elements per component slab *)
  components : int;        (** storage components (× dim for staggered) *)
  mutable data : float array;
}

let storage_components (f : Fieldspec.t) =
  match f.kind with Fieldspec.Cell -> f.components | Fieldspec.Staggered -> f.components * f.dim

(** Build a padded buffer.  [alloc] supplies the backing storage (given the
    element count, it must return a zero-filled array of exactly that
    length) — the hook a memory pool uses to recycle arrays across
    simulations.  Default: a fresh allocation. *)
let create ?(ghost = 1) ?(alloc = fun len -> Array.make len 0.) (field : Fieldspec.t) dims =
  if Array.length dims <> field.dim then invalid_arg "Buffer.create: rank mismatch";
  let padded = Array.map (fun n -> n + (2 * ghost)) dims in
  let stride = Array.make field.dim 1 in
  for d = 1 to field.dim - 1 do
    stride.(d) <- stride.(d - 1) * padded.(d - 1)
  done;
  let comp_stride = stride.(field.dim - 1) * padded.(field.dim - 1) in
  let components = storage_components field in
  let data = alloc (comp_stride * components) in
  if Array.length data <> comp_stride * components then
    invalid_arg "Buffer.create: allocator returned an array of the wrong length";
  { field; dims = Array.copy dims; ghost; stride; comp_stride; components; data }

(** Linear index of the interior cell [coords] (which may extend into the
    ghost region when offsets do), component 0. *)
let base_index t coords =
  let idx = ref 0 in
  Array.iteri (fun d c -> idx := !idx + ((c + t.ghost) * t.stride.(d))) coords;
  !idx

(** Offset (in elements) encoding a relative access: component slab plus
    cell offsets.  Shared-dims invariant makes this valid for any cell. *)
let access_delta t (a : Fieldspec.access) =
  let comp =
    if a.face_axis >= 0 then (a.component * a.field.dim) + a.face_axis else a.component
  in
  let d = ref (comp * t.comp_stride) in
  Array.iteri (fun ax o -> d := !d + (o * t.stride.(ax))) a.offsets;
  !d

let get t ?(component = 0) coords = t.data.(base_index t coords + (component * t.comp_stride))

let set t ?(component = 0) coords v =
  t.data.(base_index t coords + (component * t.comp_stride)) <- v

let fill t v = Array.fill t.data 0 (Array.length t.data) v

(** Initialize every interior cell (ghosts untouched):
    [f coords component] gives the value. *)
let init t f =
  let dim = t.field.dim in
  let coords = Array.make dim 0 in
  let rec loop d =
    if d = dim then
      for c = 0 to t.components - 1 do
        set t ~component:c coords (f (Array.copy coords) c)
      done
    else
      for i = 0 to t.dims.(d) - 1 do
        coords.(d) <- i;
        loop (d + 1)
      done
  in
  loop 0

(* Visit every interior row — the [dims.(0)] cells along axis 0 of one
   storage component — in storage order: [f c at k] for component [c],
   the row's first element [at] in [data], and its index [k] among the
   rows visited. *)
let iter_interior_rows t f =
  let k = ref 0 in
  for c = 0 to t.components - 1 do
    let rec loop d at =
      if d = 0 then begin
        f c (at + t.ghost) !k;
        incr k
      end
      else
        for i = 0 to t.dims.(d) - 1 do
          loop (d - 1) (at + ((i + t.ghost) * t.stride.(d)))
        done
    in
    loop (t.field.dim - 1) (c * t.comp_stride)
  done

(** Initialize every interior cell (ghosts untouched) from values that
    depend only on the axis-0 coordinate and the component: [row c] gives
    the [dims.(0)] values of component [c], copied into each of its
    interior rows. *)
let init_rows t row =
  let nx = t.dims.(0) in
  let rows = Array.init t.components row in
  iter_interior_rows t (fun c at _ -> Array.blit rows.(c) 0 t.data at nx)

(** Values of the interior (every storage component, ghosts excluded). *)
let interior_length t = t.components * Array.fold_left ( * ) 1 t.dims

(** The interior, row by row, as one unpadded array: axis 0 fastest,
    then the other axes, then the component — {!interior_length} values. *)
let read_interior t =
  let nx = t.dims.(0) in
  let out = Array.create_float (interior_length t) in
  iter_interior_rows t (fun _ at k -> Array.blit t.data at out (k * nx) nx);
  out

(** Store a {!read_interior}-shaped array into the interior; ghosts are
    untouched. *)
let write_interior t values =
  if Array.length values <> interior_length t then
    invalid_arg "Buffer.write_interior: size mismatch";
  let nx = t.dims.(0) in
  iter_interior_rows t (fun _ at k -> Array.blit values (k * nx) t.data at nx)

(** Copy the interior of [padded], an array laid out like [t]'s storage,
    into [t]; ghosts are untouched. *)
let blit_interior padded t =
  if Array.length padded <> Array.length t.data then
    invalid_arg "Buffer.blit_interior: size mismatch";
  let nx = t.dims.(0) in
  iter_interior_rows t (fun _ at _ -> Array.blit padded at t.data at nx)

(** Swap the storage of two buffers (the src/dst pointer swap of
    Algorithm 1). *)
let swap a b =
  if a.comp_stride <> b.comp_stride || a.components <> b.components then
    invalid_arg "Buffer.swap: incompatible buffers";
  let tmp = a.data in
  a.data <- b.data;
  b.data <- tmp

(** A slab — cells [lo..hi] along [axis], the full padded extent of every
    other axis, every storage component — as [count] contiguous rows of
    [data]: row [k] is the [len] elements from [first + k * step].  Axes
    below [axis] are covered in full, so they fold into one row; rows then
    run component by component in storage order, which is also the order
    [Blocks.Ghost] puts them on the wire.  The one place a slab's layout is
    worked out: pack, unpack and the periodic fill all walk these rows
    ({!read_slab_into} and {!write_slab} without building the record). *)
type rows = { first : int; len : int; step : int; count : int }

let slab_first t ~axis ~lo = (lo + t.ghost) * t.stride.(axis)
let slab_len t ~axis ~lo ~hi = (hi - lo + 1) * t.stride.(axis)
let slab_step t ~axis = t.stride.(axis) * (t.dims.(axis) + (2 * t.ghost))

let slab_count t ~axis =
  let step = slab_step t ~axis in
  if step = 0 then 0 else t.components * (t.comp_stride / step)

let slab_rows t ~axis ~lo ~hi =
  {
    first = slab_first t ~axis ~lo;
    len = slab_len t ~axis ~lo ~hi;
    step = slab_step t ~axis;
    count = slab_count t ~axis;
  }

(* Whether, within one array, some source row of a copy overlaps some
   target row.  With one step [s], source row [k] and target row [j]
   overlap when [|d + (k - j) s| < len]; that distance is convex in
   [k - j], so the shifts next to [-d / s], kept within [±(count - 1)],
   are all there is to check. *)
let shift_meets ~d ~m ~step ~len k = abs (d + (max (-m) (min m k) * step)) < len

let rows_overlap ~len ~count ~src_at ~src_step ~dst_at ~dst_step =
  src_step <> dst_step
  ||
  let d = src_at - dst_at and m = count - 1 in
  let near = if src_step = 0 then 0 else -(d / src_step) in
  shift_meets ~d ~m ~step:src_step ~len (near - 1)
  || shift_meets ~d ~m ~step:src_step ~len near
  || shift_meets ~d ~m ~step:src_step ~len (near + 1)

(* Copy [count] rows of [len] elements, row [k] from [src] at
   [src_at + k * src_step] to [dst] at [dst_at + k * dst_step].  Rows that
   cannot overlap — between two arrays (pack, unpack), or within one
   array when no source row meets a target row (the periodic fill of a
   block at least as thick as its ghost layer) — copy a long row as one
   blit.  Rows that can overlap copy element by element, front to back:
   when a block is thinner than its ghost layer a periodic fill's source
   and target rows overlap, and this order reads exactly what the
   per-cell fill did.  The extents are checked once, so no element is
   bounds-checked, and rows of two — an axis-0 slab's rows are as long as
   the ghost width — copy without an inner loop. *)
let copy_rows ~len ~count (src : float array) ~src_at ~src_step (dst : float array) ~dst_at
    ~dst_step =
  if len > 0 && count > 0 then begin
    let last_src = src_at + ((count - 1) * src_step) + len
    and last_dst = dst_at + ((count - 1) * dst_step) + len in
    if
      src_at < 0 || dst_at < 0 || src_step < 0 || dst_step < 0
      || last_src > Array.length src
      || last_dst > Array.length dst
    then invalid_arg "Buffer.copy_rows: rows out of bounds";
    if
      len >= 16
      && (src != dst || not (rows_overlap ~len ~count ~src_at ~src_step ~dst_at ~dst_step))
    then
      for k = 0 to count - 1 do
        Array.blit src (src_at + (k * src_step)) dst (dst_at + (k * dst_step)) len
      done
    else begin
      let s = ref src_at and d = ref dst_at in
      if len = 2 then
        for _ = 1 to count do
          Array.unsafe_set dst !d (Array.unsafe_get src !s);
          Array.unsafe_set dst (!d + 1) (Array.unsafe_get src (!s + 1));
          s := !s + src_step;
          d := !d + dst_step
        done
      else
        for _ = 1 to count do
          for i = 0 to len - 1 do
            Array.unsafe_set dst (!d + i) (Array.unsafe_get src (!s + i))
          done;
          s := !s + src_step;
          d := !d + dst_step
        done
    end
  end

(** Copy the slab [lo..hi] of [axis] into [out], row after row; [out]
    must hold exactly the slab. *)
let read_slab_into t ~axis ~lo ~hi out =
  let len = slab_len t ~axis ~lo ~hi and count = slab_count t ~axis in
  if Array.length out <> count * len then invalid_arg "Buffer.read_slab_into: size mismatch";
  copy_rows ~len ~count t.data ~src_at:(slab_first t ~axis ~lo) ~src_step:(slab_step t ~axis)
    out ~dst_at:0 ~dst_step:len

(** Store a {!read_slab_into}-shaped payload into the slab [lo..hi] of
    [axis]; the payload must hold exactly the slab. *)
let write_slab t ~axis ~lo ~hi payload =
  let len = slab_len t ~axis ~lo ~hi and count = slab_count t ~axis in
  if Array.length payload <> count * len then invalid_arg "Buffer.write_slab: size mismatch";
  copy_rows ~len ~count payload ~src_at:0 ~src_step:len t.data
    ~dst_at:(slab_first t ~axis ~lo) ~dst_step:(slab_step t ~axis)

(** Periodic ghost exchange within a single buffer along one axis: each
    ghost row is copied straight from the opposite interior boundary's
    row.  Rows span the full padded extent of the other axes, so applying
    it axis by axis also fills edge and corner ghosts. *)
let periodic_axis t axis =
  let n = t.dims.(axis) and g = t.ghost in
  let shift = n * t.stride.(axis) in
  let len = slab_len t ~axis ~lo:0 ~hi:(g - 1) and count = slab_count t ~axis in
  let step = slab_step t ~axis in
  (* low ghost <- high interior *)
  let low = slab_first t ~axis ~lo:(-g) in
  copy_rows ~len ~count t.data ~src_at:(low + shift) ~src_step:step t.data ~dst_at:low
    ~dst_step:step;
  (* high ghost <- low interior *)
  let high = slab_first t ~axis ~lo:n in
  copy_rows ~len ~count t.data ~src_at:(high - shift) ~src_step:step t.data ~dst_at:high
    ~dst_step:step

let periodic t =
  for axis = 0 to t.field.dim - 1 do
    periodic_axis t axis
  done
