(** CUDA backend (paper §3.5).

    Loop nodes are stripped and loop counters replaced by index expressions
    over CUDA's block/thread variables.  Thread-to-cell mappings are
    modular and exchangeable (the paper auto-tunes over them): the mapping
    only determines how [_i0.._i2] are derived, the stencil body is shared.
    Approximate operations use [__fdividef] / [__frsqrt_rn] when enabled. *)

open Symbolic
open Field

(** Thread-to-cell mapping strategies. *)
type mapping =
  | Linear3d of { block : int * int * int }
      (** one thread per cell; thread blocks tile the domain *)
  | Slice2d of { block : int * int }
      (** threads tile an x–y slice; each thread marches along z *)

let default_mapping = Linear3d { block = (64, 2, 2) }

let signature (k : Ir.Kernel.t) =
  let fields = Ir.Kernel.fields k in
  let field_args =
    List.map
      (fun (f : Fieldspec.t) -> Printf.sprintf "double * __restrict__ %s" (Cexpr.ident f.name))
      fields
  in
  let scalar_args =
    List.map (fun s -> "double " ^ Cexpr.ident s) (Ir.Kernel.parameters k)
    @ if Ccode.needs_dx k then [ "double dx" ] else []
  in
  let dim = k.Ir.Kernel.dim in
  let admin =
    List.init dim (fun d -> Printf.sprintf "long _n%d" d)
    @ List.init (dim - 1) (fun d -> Printf.sprintf "long _s%d" (d + 1))
    @ [ "long _cs" ]
    @ List.init dim (fun d -> Printf.sprintf "long _off_%d" d)
    @ List.init (dim - 1) (fun d -> Printf.sprintf "long _gs%d" d)
    @ [ "int _step" ]
  in
  Printf.sprintf "__global__ void %s(%s)" (Cexpr.ident k.Ir.Kernel.name)
    (String.concat ", " (field_args @ scalar_args @ admin))

let bound (k : Ir.Kernel.t) axis =
  match k.Ir.Kernel.iteration with
  | Ir.Kernel.CellSweep -> Printf.sprintf "_n%d" axis
  | Ir.Kernel.StaggeredSweep axes ->
    if List.mem axis axes then Printf.sprintf "(_n%d + 1)" axis else Printf.sprintf "_n%d" axis

let index_setup (k : Ir.Kernel.t) mapping buf =
  let dim = k.Ir.Kernel.dim in
  let dims3 = [| "x"; "y"; "z" |] in
  (match mapping with
  | Linear3d _ ->
    for d = 0 to dim - 1 do
      Buffer.add_string buf
        (Printf.sprintf "  const long _i%d = blockIdx.%s * blockDim.%s + threadIdx.%s;\n" d
           dims3.(d) dims3.(d) dims3.(d))
    done;
    let guard =
      String.concat " || "
        (List.init dim (fun d -> Printf.sprintf "_i%d >= %s" d (bound k d)))
    in
    Buffer.add_string buf (Printf.sprintf "  if (%s) return;\n" guard)
  | Slice2d _ ->
    Buffer.add_string buf "  const long _i0 = blockIdx.x * blockDim.x + threadIdx.x;\n";
    Buffer.add_string buf "  const long _i1 = blockIdx.y * blockDim.y + threadIdx.y;\n";
    Buffer.add_string buf
      (Printf.sprintf "  if (_i0 >= %s || _i1 >= %s) return;\n" (bound k 0) (bound k 1)));
  match mapping with
  | Slice2d _ when dim = 3 -> true (* caller must open the z march loop *)
  | _ -> false

let emit_assignment buf ~indent ~approx (a : Assignment.t) =
  let pad = String.make indent ' ' in
  let dialect = Cexpr.Cuda in
  match a.lhs with
  | Assignment.Temp s ->
    Buffer.add_string buf
      (Printf.sprintf "%sconst double %s = %s;\n" pad (Cexpr.ident s)
         (Cexpr.emit ~dialect ~approx a.rhs))
  | Assignment.Store acc ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s = %s;\n" pad (Cexpr.access_ref acc)
         (Cexpr.emit ~dialect ~approx a.rhs))

(** Emit the kernel.  [fence_stride], when set, inserts [__threadfence_block()]
    every that many statements (the register-pressure transformation of
    §3.5). *)
let emit ?(mapping = default_mapping) ?(approx = Cexpr.exact) ?fence_stride (k : Ir.Kernel.t) =
  let dim = k.Ir.Kernel.dim in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (signature k);
  Buffer.add_string buf " {\n";
  let z_march = index_setup k mapping buf in
  let indent = if z_march then 4 else 2 in
  if z_march then
    Buffer.add_string buf
      (Printf.sprintf "  for (long _i2 = 0; _i2 < %s; ++_i2) {\n" (bound k 2));
  let pad = String.make indent ' ' in
  let base_terms =
    List.init dim (fun d -> if d = 0 then "_i0" else Printf.sprintf "_i%d*_s%d" d d)
  in
  Buffer.add_string buf
    (Printf.sprintf "%sconst long _b = %s;\n" pad (String.concat " + " base_terms));
  let uses_rand = Ccode.kernel_uses_rand k in
  if uses_rand then begin
    let rec cell d acc =
      if d < 0 then acc
      else
        let g = Printf.sprintf "(_i%d + _off_%d)" d d in
        let acc = if acc = "" then g else Printf.sprintf "(%s) * _gs%d + %s" acc d g in
        cell (d - 1) acc
    in
    Buffer.add_string buf
      (Printf.sprintf "%sconst long long _cell = %s;\n" pad (cell (dim - 1) ""))
  end;
  List.iteri
    (fun i a ->
      (match fence_stride with
      | Some stride when i > 0 && i mod stride = 0 ->
        Buffer.add_string buf (pad ^ "__threadfence_block();\n")
      | _ -> ());
      emit_assignment buf ~indent ~approx a)
    k.Ir.Kernel.body;
  if z_march then Buffer.add_string buf "  }\n";
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let prelude =
  "#include <cuda_runtime.h>\n#include <math.h>\n#include <stdint.h>\n\n"
  ^ Cexpr.helpers ~qual:"__device__ "

let translation_unit ?mapping ?approx ?fence_stride kernels =
  prelude ^ "\n" ^ String.concat "\n" (List.map (emit ?mapping ?approx ?fence_stride) kernels)

(** Host-side launch configuration for a mapping and block dims. *)
let launch_config mapping ~dims =
  match mapping with
  | Linear3d { block = bx, by, bz } ->
    let g d b = (d + b - 1) / b in
    Printf.sprintf "dim3 block(%d,%d,%d); dim3 grid(%d,%d,%d);" bx by bz (g dims.(0) bx)
      (g dims.(1) by)
      (g (if Array.length dims > 2 then dims.(2) else 1) bz)
  | Slice2d { block = bx, by } ->
    let g d b = (d + b - 1) / b in
    Printf.sprintf "dim3 block(%d,%d,1); dim3 grid(%d,%d,1);" bx by (g dims.(0) bx)
      (g dims.(1) by)
