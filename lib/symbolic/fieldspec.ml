(** Symbolic field descriptors.

    A field is a named, multi-component quantity living on a structured grid.
    Cell-centered fields hold one value per cell and component; staggered
    fields hold one value per cell face (used to cache flux values in the
    split kernel variants).  Field descriptors are pure metadata — storage is
    provided by the [Vm] library at execution time. *)

type kind =
  | Cell       (** one value per cell (per component) *)
  | Staggered  (** one value per cell face: component [c] along axis [d] *)

type t = {
  name : string;
  dim : int;         (** spatial dimension, 2 or 3 *)
  components : int;  (** number of components, 1 for scalar fields *)
  kind : kind;
}

let create ?(kind = Cell) ~dim ~components name =
  if dim < 1 || dim > 3 then invalid_arg "Fieldspec.create: dim must be 1..3";
  if components < 1 then invalid_arg "Fieldspec.create: components >= 1";
  { name; dim; components; kind }

let scalar ~dim name = create ~dim ~components:1 name

let compare (a : t) (b : t) = Stdlib.compare a b

(* [compare a b = 0], field by field: no polymorphic compare on the hot
   lookups ([Vm.Engine.buffer]). *)
let equal a b =
  a == b
  || a.dim = b.dim
     && a.components = b.components
     && (match (a.kind, b.kind) with Cell, Cell | Staggered, Staggered -> true | _ -> false)
     && String.equal a.name b.name

let pp ppf f =
  let k = match f.kind with Cell -> "" | Staggered -> " staggered" in
  Fmt.pf ppf "%s: double[%dD]^%d%s" f.name f.dim f.components k

(** An access to a field value from the "current cell" of a stencil sweep.

    [offsets] is a relative cell offset (length = [field.dim]).
    [component] selects the component, and for staggered fields [face_axis]
    selects which face (the lower face of the offset cell along that axis). *)
type access = {
  field : t;
  offsets : int array;
  component : int;
  face_axis : int;  (** -1 for cell-centered accesses *)
}

let access ?(component = 0) field offsets =
  if Array.length offsets <> field.dim then
    invalid_arg "Fieldspec.access: offset rank mismatch";
  if component < 0 || component >= field.components then
    invalid_arg "Fieldspec.access: component out of range";
  { field; offsets; component; face_axis = -1 }

let staggered_access ?(component = 0) field offsets ~axis =
  if field.kind <> Staggered then
    invalid_arg "Fieldspec.staggered_access: field is not staggered";
  if axis < 0 || axis >= field.dim then
    invalid_arg "Fieldspec.staggered_access: bad axis";
  { (access ~component field offsets) with face_axis = axis }

let center ?(component = 0) field = access ~component field (Array.make field.dim 0)

(** [shift a d k] moves the access [k] cells along axis [d]. *)
let shift a d k =
  let offsets = Array.copy a.offsets in
  offsets.(d) <- offsets.(d) + k;
  { a with offsets }

let compare_access (a : access) (b : access) = Stdlib.compare a b
let equal_access a b = compare_access a b = 0

let pp_access ppf a =
  let off =
    String.concat ","
      (Array.to_list (Array.map string_of_int a.offsets))
  in
  let comp = if a.field.components > 1 then Fmt.str ".%d" a.component else "" in
  let stag = if a.face_axis >= 0 then Fmt.str "@s%d" a.face_axis else "" in
  Fmt.pf ppf "%s[%s]%s%s" a.field.name off comp stag
