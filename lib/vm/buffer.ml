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

(** Initialize every interior cell (ghosts untouched) from values that
    depend only on the axis-0 coordinate and the component: [row c] gives
    the [dims.(0)] values of component [c], copied into each of its
    interior rows. *)
let init_rows t row =
  let nx = t.dims.(0) in
  for c = 0 to t.components - 1 do
    let r = row c in
    let rec loop d at =
      if d = 0 then Array.blit r 0 t.data (at + t.ghost) nx
      else
        for i = 0 to t.dims.(d) - 1 do
          loop (d - 1) (at + ((i + t.ghost) * t.stride.(d)))
        done
    in
    loop (t.field.dim - 1) (c * t.comp_stride)
  done

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
    worked out: pack, unpack and the periodic fill all walk these rows. *)
type rows = { first : int; len : int; step : int; count : int }

let slab_rows t ~axis ~lo ~hi =
  let s = t.stride.(axis) in
  let step = s * (t.dims.(axis) + (2 * t.ghost)) in
  {
    first = (lo + t.ghost) * s;
    len = (hi - lo + 1) * s;
    step;
    count = (if step = 0 then 0 else t.components * (t.comp_stride / step));
  }

(* Copy [count] rows of [len] elements, row [k] from [src] at
   [src_at + k * src_step] to [dst] at [dst_at + k * dst_step].  Element by
   element, front to back: when a block is thinner than its ghost layer a
   periodic fill's source and target rows overlap, and this order reads
   exactly what the per-cell fill did. *)
let copy_rows ~len ~count (src : float array) ~src_at ~src_step (dst : float array) ~dst_at
    ~dst_step =
  for k = 0 to count - 1 do
    let s = src_at + (k * src_step) and d = dst_at + (k * dst_step) in
    for i = 0 to len - 1 do
      dst.(d + i) <- src.(s + i)
    done
  done

(** The slab's values as one contiguous payload, row after row. *)
let read_slab t (r : rows) =
  let out = Array.create_float (r.count * r.len) in
  copy_rows ~len:r.len ~count:r.count t.data ~src_at:r.first ~src_step:r.step out ~dst_at:0
    ~dst_step:r.len;
  out

(** Store a {!read_slab}-shaped payload into the slab's rows. *)
let write_slab t (r : rows) payload =
  copy_rows ~len:r.len ~count:r.count payload ~src_at:0 ~src_step:r.len t.data
    ~dst_at:r.first ~dst_step:r.step

(** Periodic ghost exchange within a single buffer along one axis: each
    ghost row is copied straight from the opposite interior boundary's
    row.  Rows span the full padded extent of the other axes, so applying
    it axis by axis also fills edge and corner ghosts. *)
let periodic_axis t axis =
  let n = t.dims.(axis) and g = t.ghost in
  let shift = n * t.stride.(axis) in
  let fill ~lo ~from_shift =
    let r = slab_rows t ~axis ~lo ~hi:(lo + g - 1) in
    copy_rows ~len:r.len ~count:r.count t.data ~src_at:(r.first + from_shift)
      ~src_step:r.step t.data ~dst_at:r.first ~dst_step:r.step
  in
  fill ~lo:(-g) ~from_shift:shift;  (* low ghost <- high interior *)
  fill ~lo:n ~from_shift:(-shift)   (* high ghost <- low interior *)

let periodic t =
  for axis = 0 to t.field.dim - 1 do
    periodic_axis t axis
  done
