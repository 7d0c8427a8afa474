(** C backend: OpenMP-parallel scalar kernels (paper §3.5).

    Emits one C function per kernel.  The loop nest, loop order and
    loop-invariant hoisting come from the IR lowering; the outermost loop
    carries an [omp parallel for] pragma (legal because the pipeline
    guarantees independent iterations).  Field pointers (advanced to the
    first interior cell), the kernel's free symbols, [dx] when the kernel
    reads a coordinate, the iteration range [_loA <= _iA < _endA] of every
    axis, the strides, the block's global offset and the time step become
    function parameters.  Explicit SIMD vectorization is emitted by {!Simd}.

    The JIT ([Vm.Jit]) builds exactly this text (or {!Simd}'s) and calls it
    through {!entry}, a wrapper with one fixed signature that unpacks the
    tables the VM passes; {!args} is the single list both are printed
    from. *)

open Symbolic
open Field

let loop_var d = Printf.sprintf "_i%d" d

let kernel_uses_rand (k : Ir.Kernel.t) =
  Cexpr.body_has (function Expr.Rand _ -> true | _ -> false) k.Ir.Kernel.body

(* [dx] is an argument when a coordinate needs it and no parameter of that
   name already provides it. *)
let needs_dx (k : Ir.Kernel.t) =
  Cexpr.body_has (function Expr.Coord _ -> true | _ -> false) k.Ir.Kernel.body
  && not (List.mem "dx" (Ir.Kernel.parameters k))

(** One parameter of a printed kernel: its C declaration and the
    expression {!entry} passes for it. *)
type arg = { decl : string; abi : string }

(** The entry ABI: [void entry(double *const *_f, const double *_p, const
    int64_t *_a)] with
    - [_f]: the field arrays in [Ir.Kernel.fields] order, each pointing at
      its first element (ghost layers included);
    - [_p]: the values of [Ir.Kernel.parameters], then [dx];
    - [_a], [abi_ints ~dim] entries: [_a[2d]] and [_a[2d+1]] the first and
      one-past-last index of loop depth [d]; [_a[2dim+ax]] the stride of
      axis [ax] (1 for axis 0); [_a[3dim]] the component stride;
      [_a[3dim+1]] the ghost width; [_a[3dim+2+ax]] the block's global
      offset and [_a[4dim+2+ax]] the global extent of axis [ax];
      [_a[5dim+2]] the time step. *)
let abi_ints ~dim = (5 * dim) + 3

let args (lowered : Ir.Lower.t) =
  let k = lowered.Ir.Lower.kernel in
  let dim = k.Ir.Kernel.dim in
  let params = Ir.Kernel.parameters k in
  let a fmt = Printf.sprintf fmt in
  let depth_of ax =
    let rec find d = if lowered.Ir.Lower.loop_order.(d) = ax then d else find (d + 1) in
    find 0
  in
  List.mapi
    (fun i (f : Fieldspec.t) ->
      { decl = a "double * restrict %s" (Cexpr.ident f.name); abi = a "_f[%d] + _o" i })
    (Ir.Kernel.fields k)
  @ List.mapi (fun i s -> { decl = "double " ^ Cexpr.ident s; abi = a "_p[%d]" i }) params
  @ (if needs_dx k then [ { decl = "double dx"; abi = a "_p[%d]" (List.length params) } ]
     else [])
  @ List.concat
      (List.init dim (fun ax ->
           let d = depth_of ax in
           [
             { decl = a "int64_t _lo%d" ax; abi = a "_a[%d]" (2 * d) };
             { decl = a "int64_t _end%d" ax; abi = a "_a[%d]" ((2 * d) + 1) };
           ]))
  @ List.init (dim - 1) (fun i ->
        { decl = a "int64_t _s%d" (i + 1); abi = a "_a[%d]" ((2 * dim) + i + 1) })
  @ [ { decl = "int64_t _cs"; abi = a "_a[%d]" (3 * dim) } ]
  @ List.init dim (fun ax -> { decl = a "int64_t _off_%d" ax; abi = a "_a[%d]" ((3 * dim) + 2 + ax) })
  @ (if kernel_uses_rand k then
       List.init (dim - 1) (fun ax ->
           { decl = a "int64_t _gs%d" ax; abi = a "_a[%d]" ((4 * dim) + 2 + ax) })
     else [])
  @ [ { decl = "int32_t _step"; abi = a "(int32_t)_a[%d]" ((5 * dim) + 2) } ]

let signature ?(static = false) ?name (lowered : Ir.Lower.t) =
  let name = Option.value name ~default:lowered.Ir.Lower.kernel.Ir.Kernel.name in
  Printf.sprintf "%svoid %s(%s)"
    (if static then "static " else "")
    (Cexpr.ident name)
    (String.concat ", " (List.map (fun a -> a.decl) (args lowered)))

(** The entry [name] with the fixed ABI of {!abi_ints}, calling the printed
    kernel [kernel]: it advances every field pointer past the ghost layers
    and passes each argument from the tables. *)
let entry ~name ~kernel (lowered : Ir.Lower.t) =
  let dim = lowered.Ir.Lower.kernel.Ir.Kernel.dim in
  let strides = List.init dim (fun ax -> Printf.sprintf "_a[%d]" ((2 * dim) + ax)) in
  Printf.sprintf
    "void %s(double *const *_f, const double *_p, const int64_t *_a) {\n\
    \  const int64_t _o = _a[%d] * (%s);\n\
    \  (void)_p;\n\
    \  %s(%s);\n\
     }\n"
    name ((3 * dim) + 1) (String.concat " + " strides) kernel
    (String.concat ", " (List.map (fun a -> a.abi) (args lowered)))

let emit_assignment buf ~indent ~dialect ~approx (a : Assignment.t) =
  let pad = String.make indent ' ' in
  match a.lhs with
  | Assignment.Temp s ->
    Buffer.add_string buf
      (Printf.sprintf "%sconst double %s = %s;\n" pad (Cexpr.ident s)
         (Cexpr.emit ~dialect ~approx a.rhs))
  | Assignment.Store acc ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s = pf_canon(%s);\n" pad (Cexpr.access_ref acc)
         (Cexpr.emit ~dialect ~approx a.rhs))

(** [const int64_t _b = _i0 + _i1*_s1 + ...;], the cell's linear index. *)
let base_index ~dim =
  Printf.sprintf "const int64_t _b = %s;"
    (String.concat " + "
       (List.init dim (fun d -> if d = 0 then loop_var 0 else Printf.sprintf "%s*_s%d" (loop_var d) d)))

(** The loop nest both printers share: signature, preheader, the loops of
    depths [0 .. dim-2] with their hoisted assignments, and [innermost buf
    ~indent axis] printing the innermost loop over [axis]. *)
let nest ?(approx = Cexpr.exact) ?(openmp = true) ~head (lowered : Ir.Lower.t) ~innermost =
  let dim = lowered.Ir.Lower.kernel.Ir.Kernel.dim in
  let order = lowered.Ir.Lower.loop_order in
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add head;
  add " {\n";
  let dialect = Cexpr.C in
  List.iter (emit_assignment buf ~indent:2 ~dialect ~approx) lowered.Ir.Lower.hoisted.(0);
  for depth = 0 to dim - 2 do
    let pad = String.make (2 * (depth + 1)) ' ' in
    let v = loop_var order.(depth) in
    if depth = 0 && openmp then add "  #pragma omp parallel for schedule(static)\n";
    add
      (Printf.sprintf "%sfor (int64_t %s = _lo%d; %s < _end%d; ++%s) {\n" pad v order.(depth) v
         order.(depth) v);
    List.iter
      (emit_assignment buf ~indent:(2 * (depth + 2)) ~dialect ~approx)
      lowered.Ir.Lower.hoisted.(depth + 1)
  done;
  innermost buf ~indent:(2 * dim) order.(dim - 1);
  for depth = dim - 2 downto 0 do
    add (String.make (2 * (depth + 1)) ' ');
    add "}\n"
  done;
  add "}\n";
  Buffer.contents buf

(** Emit the kernel as a standalone C function (scalar body), named
    [name] (default: the kernel's). *)
let emit ?(approx = Cexpr.exact) ?(openmp = true) ?static ?name (lowered : Ir.Lower.t) =
  let k = lowered.Ir.Lower.kernel in
  let dim = k.Ir.Kernel.dim in
  let innermost buf ~indent axis =
    let pad = String.make indent ' ' and bpad = String.make (indent + 2) ' ' in
    let v = loop_var axis in
    Buffer.add_string buf
      (Printf.sprintf "%sfor (int64_t %s = _lo%d; %s < _end%d; ++%s) {\n" pad v axis v axis v);
    Buffer.add_string buf (bpad ^ base_index ~dim ^ "\n");
    if kernel_uses_rand k then begin
      (* global cell id: Horner over the global coordinates *)
      let rec cell d acc =
        if d < 0 then acc
        else
          let g = Printf.sprintf "(_i%d + _off_%d)" d d in
          let acc = if acc = "" then g else Printf.sprintf "(%s) * _gs%d + %s" acc d g in
          cell (d - 1) acc
      in
      Buffer.add_string buf
        (Printf.sprintf "%sconst int64_t _cell = %s;\n" bpad (cell (dim - 1) ""))
    end;
    List.iter
      (emit_assignment buf ~indent:(indent + 2) ~dialect:Cexpr.C ~approx)
      lowered.Ir.Lower.body;
    Buffer.add_string buf (pad ^ "}\n")
  in
  nest ~approx ~openmp ~head:(signature ?static ?name lowered) lowered ~innermost

(** A complete translation unit: prelude plus the given kernels. *)
let translation_unit ?(approx = Cexpr.exact) ?(openmp = true) lowered_kernels =
  Cexpr.prelude ^ "\n" ^ String.concat "\n" (List.map (emit ~approx ~openmp) lowered_kernels)
