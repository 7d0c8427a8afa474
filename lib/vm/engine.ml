(** Kernel execution engine.

    Compiles the post-optimization assignment list — the *same* IR the C
    backend prints — into a flat instruction array whose instructions each
    compute one node for a batch of cells, and sweeps it over a block
    through a fixed C stub ([vm_stubs.c]), honoring the lowering result
    (loop order, hoisted loop-invariant assignments).  The JIT's programs
    run through the same resolved sweep.  Multicore execution slices the
    outermost loop across OCaml domains, mirroring the generated code's
    OpenMP parallelization. *)

open Symbolic
open Field

(** A block: the local piece of the domain one rank owns, with one buffer
    per field.  All buffers share dims and ghost width. *)
type block = {
  dims : int array;
  ghost : int;
  global_dims : int array;
  offset : int array;  (** global coordinate of local cell (0,..,0) *)
  buffers : (Fieldspec.t * Buffer.t) list;
}

let make_block ?(ghost = 2) ?alloc ?global_dims ?offset ~dims fields =
  let dim = Array.length dims in
  let global_dims = Option.value global_dims ~default:(Array.copy dims) in
  let offset = Option.value offset ~default:(Array.make dim 0) in
  let buffers = List.map (fun f -> (f, Buffer.create ~ghost ?alloc f dims)) fields in
  { dims; ghost; global_dims; offset; buffers }

(* Plain walks: a step looks buffers up per block and phase, so the
   lookup allocates nothing, and a field spec that is the block's own (a
   time step's always is) is found by identity before any name is
   compared. *)
let rec find_same (f : Fieldspec.t) = function
  | (g, b) :: rest -> if g == f then b else find_same f rest
  | [] -> raise Not_found

let rec find_equal (f : Fieldspec.t) = function
  | (g, b) :: rest -> if Fieldspec.equal f g then b else find_equal f rest
  | [] -> invalid_arg ("Engine.buffer: no buffer for field " ^ f.Fieldspec.name)

let buffer block f =
  match find_same f block.buffers with b -> b | exception Not_found -> find_equal f block.buffers

(* ------------------------------------------------------------------ *)
(* Backend selection                                                   *)
(* ------------------------------------------------------------------ *)

(** How sweeps execute: [Interp] runs the program's VM instructions over
    batches of cells (the reference semantics); [Jit] calls the C program
    {!Jit} built from the same IR — bitwise identical by contract, held to
    it by oracle 8 — or, where no program could be built, the VM. *)
type backend = Interp | Jit

let backend_label = function Interp -> "interp" | Jit -> "jit"

let backend_of_string = function
  | "interp" | "interpreter" -> Some Interp
  | "jit" -> Some Jit
  | _ -> None

(** The process default, from [PFGEN_VM_BACKEND] (unset = interpreter). *)
let default_backend () =
  match Sys.getenv_opt "PFGEN_VM_BACKEND" with
  | None -> Interp
  | Some s -> (
    match backend_of_string s with
    | Some b -> b
    | None -> invalid_arg ("PFGEN_VM_BACKEND: unknown backend " ^ s))

(* ------------------------------------------------------------------ *)
(* VM programs                                                         *)
(* ------------------------------------------------------------------ *)

(** Cells one VM instruction serves per batch ([VM_WIDTH] of
    [vm_stubs.c]).  The cells of a sweep are independent (the
    precondition the SIMD printer relies on, checked by {!program}), so an
    instruction can compute its node for a whole batch of them before the
    next instruction runs. *)
let width = 64

(* The opcodes of [vm_stubs.c], in its order. *)
let op_gather = 0
let op_store = 1
let op_const = 2
let op_param = 3
let op_uniform = 4
let op_copy = 5
let op_add2 = 6
let op_mul2 = 7
let op_add3 = 8
let op_mul3 = 9
let op_sum = 10
let op_prod = 11
let op_pow = 12

let op_unary : Expr.fn -> int = function
  | Expr.Sqrt -> 13
  | Expr.Rsqrt -> 14
  | Expr.Exp -> 15
  | Expr.Log -> 16
  | Expr.Sin -> 17
  | Expr.Cos -> 18
  | Expr.Tanh -> 19
  | Expr.Fabs -> 20
  | Expr.Fmin | Expr.Fmax -> assert false

let op_min = 21
let op_max = 22
let op_sel_lt = 23
let op_sel_le = 24
let op_coord = 25
let op_rand = 26

(** A kernel's VM program: the lowering's groups as one flat instruction
    array, shared by every block, job and lane that sweeps the program.
    [instrs] and [consts] come first: [vm_stubs.c] reads them as the
    record's fields 0 and 1.  [instrs] starts with a header (dim,
    [batch_from], the parameter count, the ISA variant, the loop order,
    the bounds of the depth groups); an instruction is an opcode, the
    arena offset of the vector it writes, then its operands.
    [batch_from] is the first loop depth with no hoisted group inside it
    or below: the cells of those loops are gathered into batches, and
    every shallower loop runs its hoisted group as a one-cell batch. *)
type code = {
  instrs : int array;
  consts : float array;  (** the constants, by index *)
  batch_from : int;
  size : int;  (** floats of arena the program uses *)
}

(** Sweep one tile: the program, the field table, the parameter values
    then [dx], the tile's int table ({!Jit.tile_ints}) and the lane's
    arena (at least [size] floats). *)
external vm_run : code -> float array array -> float array -> int array -> float array -> unit
  = "pfgen_vm_run"
[@@noalloc]

(* A pool lane's arena, shared by every program the lane sweeps: vector
   [t] is [width] floats from offset [t]; a hoisted temporary lives in its
   vector's first lane.  A tile writes everything it reads, so nothing
   carries over from one sweep to the next. *)
let arena_key = Domain.DLS.new_key (fun () -> ref [||])

let arena size =
  let a = Domain.DLS.get arena_key in
  if Array.length !a < size then a := Array.create_float size;
  !a

(* The ISA whose operations [vm_stubs.c] runs for a binding's target. *)
let variant : Jit.target -> int = function
  | Some Backend.Simd.AVX512 -> 2
  | Some Backend.Simd.AVX2 -> 1
  | Some Backend.Simd.SSE2 | None -> 0

(* The builder's state for one program.  A vector is taken from [free] or
   from [next]; a node's result goes back to [free] once its reader is
   emitted, and a temporary keeps its vector.  A group gathers each
   access and broadcasts each constant, parameter and hoisted temporary
   once, at its first reader ([seen]). *)
type builder = {
  dim : int;
  params : (string, int) Hashtbl.t;  (** slot in the parameter values; [dx] after them *)
  fields : Fieldspec.t array;  (** the field table *)
  temps : (string, int * bool) Hashtbl.t;  (** vector, hoisted *)
  consts : (int64, int) Hashtbl.t;
  mutable const_values : float list;  (** newest first *)
  seen : ([ `Num of int64 | `Par of int | `Uni of int | `Field of Fieldspec.access ], int) Hashtbl.t;
  mutable free : int list;
  mutable next : int;
  mutable instrs : int array list;  (** the group's instructions, newest first *)
}

let emit st instr = st.instrs <- instr :: st.instrs

let alloc st =
  match st.free with
  | t :: rest ->
    st.free <- rest;
    t
  | [] ->
    let t = st.next in
    st.next <- t + width;
    t

let const_index st x =
  let bits = Int64.bits_of_float x in
  match Hashtbl.find_opt st.consts bits with
  | Some k -> k
  | None ->
    let k = Hashtbl.length st.consts in
    Hashtbl.replace st.consts bits k;
    st.const_values <- x :: st.const_values;
    k

(* An access's operands: field-table slot, storage component, one cell
   offset per axis (the index [Backend.Cexpr.access_index] prints). *)
let access st (a : Fieldspec.access) =
  let rec slot i =
    if i = Array.length st.fields then invalid_arg "Engine.compile: access to a field not in the table"
    else if Fieldspec.equal st.fields.(i) a.field then i
    else slot (i + 1)
  in
  if Array.length a.offsets <> st.dim then invalid_arg "Engine.compile: access rank differs from the kernel's";
  let comp =
    if a.face_axis >= 0 then (a.component * a.field.Fieldspec.dim) + a.face_axis else a.component
  in
  Array.append [| slot 0; comp |] a.offsets

(* The vector a leaf reads, gathered or broadcast at its group's first
   reader. *)
let leaf st (e : Expr.t) =
  let once key instr =
    match Hashtbl.find_opt st.seen key with
    | Some t -> t
    | None ->
      let t = alloc st in
      emit st (instr t);
      Hashtbl.replace st.seen key t;
      t
  in
  match e with
  | Expr.Num x -> once (`Num (Int64.bits_of_float x)) (fun t -> [| op_const; t; const_index st x |])
  | Expr.Sym s -> (
    match Hashtbl.find_opt st.temps s with
    | Some (t, false) -> t
    | Some (u, true) -> once (`Uni u) (fun t -> [| op_uniform; t; u |])
    | None -> (
      match Hashtbl.find_opt st.params s with
      | Some p -> once (`Par p) (fun t -> [| op_param; t; p |])
      | None -> invalid_arg ("Engine.compile: unbound symbol " ^ s)))
  | Expr.Access a -> once (`Field a) (fun t -> Array.append [| op_gather; t |] (access st a))
  | _ -> assert false

let rec compile st (e : Expr.t) t =
  match e with
  | Expr.Num _ | Expr.Sym _ | Expr.Access _ -> emit st [| op_copy; t; leaf st e |]
  | Expr.Coord d ->
    if d >= st.dim then invalid_arg "Engine.compile: coordinate beyond the kernel's axes";
    emit st [| op_coord; t; d |]
  | Expr.Rand slot -> emit st [| op_rand; t; slot |]
  | Expr.Diff _ -> invalid_arg "Engine.compile: Diff survived discretization"
  | Expr.Add xs | Expr.Mul xs ->
    let add = match e with Expr.Add _ -> true | _ -> false in
    operands st xs (function
      | [| a; b |] -> [| (if add then op_add2 else op_mul2); t; a; b |]
      | [| a; b; c |] -> [| (if add then op_add3 else op_mul3); t; a; b; c |]
      | ops -> Array.append [| (if add then op_sum else op_prod); t; Array.length ops |] ops)
  | Expr.Pow (x, n) -> operands st [ x ] (fun ops -> [| op_pow; t; ops.(0); n |])
  | Expr.Fun (((Expr.Fmin | Expr.Fmax) as f), ([ _; _ ] as xs)) ->
    operands st xs (fun ops -> [| (if f = Expr.Fmax then op_max else op_min); t; ops.(0); ops.(1) |])
  | Expr.Fun (f, [ x ]) when f <> Expr.Fmin && f <> Expr.Fmax ->
    operands st [ x ] (fun ops -> [| op_unary f; t; ops.(0) |])
  | Expr.Fun _ -> invalid_arg "Engine.compile: bad function arity"
  | Expr.Select (cond, x, y) ->
    let le, p, q = match cond with Expr.Lt (p, q) -> (false, p, q) | Expr.Le (p, q) -> (true, p, q) in
    operands st [ p; q; x; y ] (fun ops ->
        Array.append [| (if le then op_sel_le else op_sel_lt); t |] ops)

(* Emit [instr ops] after the instructions that compute [xs] (into fresh
   vectors, given back after it, unless they are leaves). *)
and operands st xs instr =
  let fresh = ref [] in
  let operand (e : Expr.t) =
    match e with
    | Expr.Num _ | Expr.Sym _ | Expr.Access _ -> leaf st e
    | _ ->
      let t = alloc st in
      compile st e t;
      fresh := t :: !fresh;
      t
  in
  let ops = Array.of_list (List.map operand xs) in
  emit st (instr ops);
  st.free <- !fresh @ st.free

(* A store drops the group's gathers of its field, so a later read sees
   the stored value, as it does cell by cell. *)
let compile_assignment st ~hoisted (a : Assignment.t) =
  match a.lhs with
  | Assignment.Temp s ->
    let t = alloc st in
    Hashtbl.replace st.temps s (t, hoisted);
    compile st a.rhs t
  | Assignment.Store acc ->
    let slot = access st acc in
    operands st [ a.rhs ] (fun ops -> Array.append [| op_store; ops.(0) |] slot);
    Hashtbl.filter_map_inplace
      (fun key t ->
        match key with
        | `Field (a : Fieldspec.access) when Fieldspec.equal a.field acc.field -> None
        | _ -> Some t)
      st.seen

(* ------------------------------------------------------------------ *)
(* Kernel programs and bindings                                        *)
(* ------------------------------------------------------------------ *)

(** Everything a kernel's sweeps need that depends on the kernel alone:
    its lowering for one loop order, its parameter names, its field table,
    the ghost width its sweep reads, its VM program (built by the first
    interpreter sweep, or JIT sweep that falls back, of any of its
    bindings) and its {!Jit} memo key (forced by the first JIT sweep or
    plan that needs it).
    One program is built per (kernel, fastest axis, JIT target) and shared
    by every block, rank, job and tuning probe that binds the kernel — the
    paper's generate-once, run-on-every-block split. *)
type program = {
  kernel : Ir.Kernel.t;
  lowered : Ir.Lower.t;
  param_names : string array;
  fields : Fieldspec.t array;  (** [Ir.Kernel.fields]: the field table of both executors *)
  ghost_need : int;  (** ghost layers the sweep reads *)
  code : code Lazy.t;
  jit_target : Jit.target;
  jit_key : Digest.t Lazy.t;
}

(** Which part of the sweep to execute.  [Interior halo] covers only cells
    whose stencil reads — up to [halo] cells in every direction — stay
    inside the block's owned region, so the sweep is independent of ghost
    values and may run while a ghost exchange is in flight; [Shell halo] is
    the complement, swept after the exchange completes.  [Whole] is the
    classic full sweep.  [Interior h] ∪ [Shell h] visits every sweep cell
    exactly once, so splitting a sweep is bitwise invisible (oracle 10). *)
type region = Whole | Interior of int | Shell of int

(** [pvals] holds the value of each of [pnames], then [dx] (1 when
    unbound), refilled from each sweep's parameter list. *)
type pslots = {
  pnames : string array;
  pvals : float array;
  mutable names : string array;
      (** the parameter list's names, in order, as last resolved: a list
          whose names are physically these is read by position *)
  mutable values : float array;  (** that list's values, by position *)
  mutable slot_pos : int array;
      (** per [pvals] slot, the list position it reads; [-1]: [dx] unbound;
          empty until the first list is bound *)
}

let pslots pnames =
  {
    pnames;
    pvals = Array.make (Array.length pnames + 1) 0.;
    names = [||];
    values = [||];
    slot_pos = [||];
  }

(** A sweep resolved once for one (binding, executor, region, tile
    shape, pool width): everything a sweep needs that does not change
    between sweeps.  Both executors read the same tables; a sweep refills
    the field table's data pointers from the buffer records (so it
    survives [Buffer.swap]), the parameter values and the time step in
    every tile's int table, and calls the tiles. *)
type resolved = {
  compiled : Jit.compiled;
      (** the JIT program the memo lookup returned, or {!vm_program} *)
  region : region;
  tile : int array option;
  domains : int;
  fields : Buffer.t array;  (** aligned with the program's [fields] *)
  datas : float array array;  (** the field table *)
  params : pslots;  (** the program's [param_names] *)
  ints : int array array;  (** per tile, {!Jit.tile_ints} *)
  run_tile : lane:int -> int -> unit;
      (** one tile: one [@@noalloc] call of the JIT program's entry, or of
          the VM on the lane's arena, with the field table, the parameters
          and the tile's int table *)
}

(** A kernel bound to a block: the kernel's shared {!program} plus what
    depends on the block. *)
type bound = {
  kernel : Ir.Kernel.t;
  lowered : Ir.Lower.t;  (** the shared program's *)
  block : block;
  program : program;
  jit_target : Jit.target;  (** what the binding's programs are built for *)
  jit_key : Digest.t Lazy.t;
      (** the shared program's {!Jit} memo key: digesting the whole body
          costs as much as a small block's sweep, so it is paid once per
          program, never per sweep or per block, and never by a kernel only
          the interpreter sweeps *)
  mutable sweeps : resolved list;
      (** the binding's resolved sweeps, newest first, at most
          {!max_resolved}; its JIT sweeps all of one program *)
}

let max_resolved = 4

(* Ghost layers a sweep of [kernel] reads. *)
let ghost_need (kernel : Ir.Kernel.t) =
  match kernel.Ir.Kernel.iteration with
  | Ir.Kernel.CellSweep -> kernel.Ir.Kernel.ghost
  | Ir.Kernel.StaggeredSweep axes ->
    (* The sweep covers one extra upper layer along the staggered axes
       (face n is the upper face of the last interior cell), so only
       upper-side reads there shift by one; the sweep still starts at
       cell 0, so lower-side reads keep their plain extent. *)
    List.fold_left
      (fun req (a : Symbolic.Fieldspec.access) ->
        let r = ref req in
        Array.iteri
          (fun d o ->
            let need = if o >= 0 then o + (if List.mem d axes then 1 else 0) else -o in
            if need > !r then r := need)
          a.Symbolic.Fieldspec.offsets;
        !r)
      0
      (Ir.Kernel.loads kernel)

(* The lowering's groups compiled once for every binding, for the ISA
   variant [variant]. *)
let build_code ~variant (kernel : Ir.Kernel.t) (lowered : Ir.Lower.t) param_names fields =
  Obs.Metrics.count "vm.bind.codes" 1;
  let dim = kernel.Ir.Kernel.dim in
  if dim < 1 || dim > 3 then invalid_arg "Engine.program: kernels have 1 to 3 axes";
  let groups = Ir.Lower.groups lowered in
  let np = Array.length param_names in
  let st =
    {
      dim;
      params = Hashtbl.create 64;
      fields;
      temps = Hashtbl.create 64;
      consts = Hashtbl.create 64;
      const_values = [];
      seen = Hashtbl.create 64;
      free = [];
      next = 0;
      instrs = [];
    }
  in
  Array.iteri (fun i s -> Hashtbl.replace st.params s i) param_names;
  let compiled =
    Array.mapi
      (fun d g ->
        st.instrs <- [];
        Hashtbl.reset st.seen;
        List.iter (compile_assignment st ~hoisted:(d < dim)) g;
        Array.concat (List.rev st.instrs))
      groups
  in
  let batch_from = ref 0 in
  for d = 1 to dim - 1 do
    if groups.(d) <> [] then batch_from := d
  done;
  (* the header, then the groups, each starting where the last ended *)
  let start = ref (4 + dim + dim + 2) in
  let bounds =
    Array.init (dim + 2) (fun g ->
        let at = !start in
        if g <= dim then start := at + Array.length compiled.(g);
        at)
  in
  {
    instrs =
      Array.concat
        ([| dim; !batch_from; np; variant |] :: lowered.Ir.Lower.loop_order :: bounds
         :: Array.to_list compiled);
    consts = Array.of_list (List.rev st.const_values);
    batch_from = !batch_from;
    size = max 1 st.next;
  }

(* Batches serve independent cells only: a kernel that reads a field it
   stores may read it at the cell it stores (the projection does), never
   at a neighbour another cell of the batch stores first. *)
let check_independent (kernel : Ir.Kernel.t) =
  let stored = Ir.Kernel.stores kernel in
  List.iter
    (fun (a : Fieldspec.access) ->
      if
        Array.exists (( <> ) 0) a.offsets
        && List.exists (fun (s : Fieldspec.access) -> Fieldspec.equal s.field a.field) stored
      then
        invalid_arg
          (Printf.sprintf "Engine.program: kernel %s reads field %s, which it stores, off its cell"
             kernel.Ir.Kernel.name a.field.Fieldspec.name))
    (Ir.Kernel.loads kernel)

let make_program ~fastest ~jit_target (kernel : Ir.Kernel.t) : program =
  check_independent kernel;
  Obs.Metrics.count "vm.bind.programs" 1;
  let lowered = Ir.Lower.run ~fastest kernel in
  let param_names = Array.of_list (Ir.Kernel.parameters kernel) in
  let fields = Array.of_list (Ir.Kernel.fields kernel) in
  {
    kernel;
    lowered;
    param_names;
    fields;
    ghost_need = ghost_need kernel;
    code = lazy (build_code ~variant:(variant jit_target) kernel lowered param_names fields);
    jit_target;
    jit_key = lazy (Jit.fingerprint ~target:jit_target kernel lowered);
  }

(* The program memo, keyed on the kernel's physical identity.  An
   ephemeron keeps an entry exactly as long as its kernel is alive, so the
   table needs no bound and no eviction: a job's generated kernels and
   their programs go together. *)
module Programs = Ephemeron.K1.Make (struct
  type t = Ir.Kernel.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let programs : (int * Jit.target * program) list Programs.t = Programs.create 16

(** The shared program of [kernel] for loop order [fastest] and JIT target
    [jit_target], built on first request. *)
let program ?(fastest = 0) ?(jit_target = Jit.host_target ()) kernel =
  let built = Option.value ~default:[] (Programs.find_opt programs kernel) in
  match List.find_opt (fun (f, t, _) -> f = fastest && t = jit_target) built with
  | Some (_, _, p) -> p
  | None ->
    let p = make_program ~fastest ~jit_target kernel in
    Programs.replace programs kernel ((fastest, jit_target, p) :: built);
    p

(** Bind [kernel] to [block]: the kernel's shared {!program} plus the
    block.  Only the ghost check runs per binding; a sweep's tables wait
    for the first sweep that needs them.  [jit_target] also picks the
    VM's ISA variant. *)
let bind ?fastest ?jit_target (kernel : Ir.Kernel.t) (block : block) =
  let p = program ?fastest ?jit_target kernel in
  if p.ghost_need > block.ghost then
    invalid_arg
      (Printf.sprintf "Engine.bind: kernel %s needs ghost %d, block has %d"
         kernel.Ir.Kernel.name p.ghost_need block.ghost);
  {
    kernel;
    lowered = p.lowered;
    block;
    program = p;
    jit_target = p.jit_target;
    jit_key = p.jit_key;
    sweeps = [];
  }

(** Compile the JIT programs of [bounds] that the memo table lacks, in one
    fan-out ({!Jit.prepare}): a caller about to sweep several kernels
    builds them all at once.  Forces each binding's memo key. *)
let jit_prepare bounds =
  Jit.prepare
    (List.map
       (fun (b : bound) ->
         {
           Jit.key = Lazy.force b.jit_key;
           target = b.jit_target;
           kernel = b.kernel;
           lowered = b.lowered;
         })
       bounds)

(** {!jit_prepare} for kernels not yet bound to any block: their shared
    programs under the default loop order and the host's target, the ones
    {!bind} hands a block — what a farm compiles before its first job is
    resident. *)
let jit_prepare_kernels kernels =
  Jit.prepare
    (List.map
       (fun kernel ->
         let p = program kernel in
         { Jit.key = Lazy.force p.jit_key; target = p.jit_target; kernel; lowered = p.lowered })
       kernels)

let sweep_range (b : bound) ax =
  let n = b.block.dims.(ax) in
  match b.kernel.Ir.Kernel.iteration with
  | Ir.Kernel.CellSweep -> (0, n - 1)
  | Ir.Kernel.StaggeredSweep axes -> if List.mem ax axes then (0, n) else (0, n - 1)

(** Cells visited by one sweep (staggered sweeps cover one extra layer). *)
let sweep_cells (b : bound) =
  let total = ref 1 in
  for ax = 0 to b.kernel.Ir.Kernel.dim - 1 do
    let lo, hi = sweep_range b ax in
    total := !total * (hi - lo + 1)
  done;
  !total

(* ------------------------------------------------------------------ *)
(* Inner/outer kernel split                                            *)
(* ------------------------------------------------------------------ *)

(** The kernel's own stencil footprint, straight from the IR: the halo
    width at which an interior cell of this kernel reads no ghost value.
    Chained kernels (a split variant's staggered pass feeding its main
    pass) must accumulate the footprints along the chain — see
    [Core.Timestep.mu_chain]. *)
let stencil_halo (b : bound) = b.kernel.Ir.Kernel.ghost

(* Interior bounds in loop-depth space: shrink each depth's sweep range so
   reads at ± halo stay inside the owned cells [0, dims - 1] of the
   depth's spatial axis (staggered sweeps extend to [dims], which the
   [min] clamps away). *)
let interior_ranges (b : bound) ~(ranges : (int * int) array) ~halo =
  let order = b.lowered.Ir.Lower.loop_order in
  Array.mapi
    (fun d (rlo, rhi) ->
      (max rlo halo, min rhi (b.block.dims.(order.(d)) - 1 - halo)))
    ranges

(* The tiles of one sweep of [b] over [region]: [tile] is the shape, and
   without one a pooled sweep slices the outermost loop into about
   2x[num_domains] chunks so the atomic queue can balance lanes. *)
let schedule (b : bound) ~region ~tile ~num_domains =
  let dim = b.kernel.Ir.Kernel.dim in
  let range = sweep_range b in
  let order = b.lowered.Ir.Lower.loop_order in
  let ranges = Array.init dim (fun d -> range order.(d)) in
  let shape =
    match tile with
    | Some s -> Some s
    | None ->
      if num_domains <= 1 then None (* serial: one tile = the classic sweep *)
      else begin
        let lo0, hi0 = ranges.(0) in
        let n0 = hi0 - lo0 + 1 in
        let chunk = max 1 ((n0 + (2 * num_domains) - 1) / (2 * num_domains)) in
        Some (Array.init dim (fun d -> if d = 0 then chunk else 0))
      end
  in
  match region with
  | Whole -> Schedule.make ~ranges ?shape ()
  | Interior halo | Shell halo ->
    let interior = interior_ranges b ~ranges ~halo in
    let inner, shell = Schedule.split_halo ~ranges ~interior ?shape () in
    (match region with Interior _ -> inner | _ -> shell)

(* ------------------------------------------------------------------ *)
(* Parameter slots and sweeps                                          *)
(* ------------------------------------------------------------------ *)

(* Point the parameter slots at positions of [params]: the first binding
   of a name wins, as with [List.assoc]; [dx] takes the last slot and
   defaults to 1. *)
let bind_params r params =
  let names = Array.of_list (List.map fst params) in
  let position name =
    let rec go j =
      if j = Array.length names then -1 else if names.(j) = name then j else go (j + 1)
    in
    go 0
  in
  let param_names = r.pnames in
  r.slot_pos <-
    Array.init (Array.length param_names + 1) (fun s ->
        if s = Array.length param_names then position "dx"
        else
          let j = position param_names.(s) in
          if j < 0 then invalid_arg ("Engine.run: missing parameter " ^ param_names.(s));
          j);
  r.names <- names;
  r.values <- Array.of_list (List.map snd params)

(* Read [params] by position into [r.values], while its names are
   physically the last resolved ones. *)
let rec same_names r j = function
  | [] -> j = Array.length r.names
  | (name, v) :: rest ->
    j < Array.length r.names
    && Array.unsafe_get r.names j == name
    && begin
      Array.unsafe_set r.values j v;
      same_names r (j + 1) rest
    end

(* Copy [params]' values into the parameter slots: a list whose names are
   physically the last resolved ones (a time step builds its list from the
   same strings every step) is read by position; any other list is bound
   by name first. *)
let load_params r params =
  if Array.length r.slot_pos = 0 || not (same_names r 0 params) then bind_params r params;
  for s = 0 to Array.length r.slot_pos - 1 do
    let j = Array.unsafe_get r.slot_pos s in
    Array.unsafe_set r.pvals s (if j < 0 then 1. else Array.unsafe_get r.values j)
  done

(** What a sweep on the VM resolves for: the interpreter, and a JIT sweep
    whose program has no entry (its build failed). *)
let vm_program = { Jit.fingerprint = Digest.string ""; entry = None; tier = "vm" }

(* Resolve a sweep of [b] for [compiled], a JIT program with an entry or
   {!vm_program}.  The VM program is forced here, on the
   coordinating domain: OCaml 5 raises when two domains force one lazy
   value, and every lane reads it.  Each tile runs the preheader and the
   hoisted groups of its own loops; they are deterministic functions of
   the parameters and loop coordinates (recomputed at every outer-loop
   iteration even in a serial sweep), so recomputing them per tile
   changes nothing — which is why tiled, pooled execution is bitwise
   identical to serial. *)
let resolve (b : bound) compiled ~region ~tile ~num_domains ~params =
  let p = b.program in
  let tiles = schedule b ~region ~tile ~num_domains in
  let any_buf = snd (List.hd b.block.buffers) in
  let fields = Array.map (buffer b.block) p.fields in
  let datas = Array.map (fun (f : Buffer.t) -> f.Buffer.data) fields in
  let slots = pslots p.param_names in
  let ints =
    Array.map
      (fun (t : Schedule.tile) ->
        Jit.tile_ints ~dim:b.kernel.Ir.Kernel.dim ~stride:any_buf.Buffer.stride
          ~comp_stride:any_buf.Buffer.comp_stride ~ghost:b.block.ghost ~offset:b.block.offset
          ~global_dims:b.block.global_dims ~lo:t.Schedule.lo ~hi:t.Schedule.hi)
      tiles
  in
  let run_tile =
    match compiled.Jit.entry with
    | Some entry -> fun ~lane:_ ti -> Jit_cc.run entry datas slots.pvals (Array.unsafe_get ints ti)
    | None ->
      let code = Lazy.force p.code in
      fun ~lane:_ ti ->
        vm_run code datas slots.pvals (Array.unsafe_get ints ti) (arena code.size)
  in
  bind_params slots params;
  { compiled; region; tile; domains = num_domains; fields; datas; params = slots; ints; run_tile }

let rec find_resolved compiled ~region ~tile ~num_domains = function
  | [] -> raise Not_found
  | r :: rest ->
    if r.compiled == compiled && r.domains = num_domains && r.region = region && r.tile = tile
    then r
    else find_resolved compiled ~region ~tile ~num_domains rest

(* The binding's resolved sweep for this executor and configuration,
   built on first use; a new JIT program drops the resolutions of an
   older one. *)
let resolved (b : bound) compiled ~region ~tile ~num_domains ~params =
  match find_resolved compiled ~region ~tile ~num_domains b.sweeps with
  | r -> r
  | exception Not_found ->
    let r = resolve b compiled ~region ~tile ~num_domains ~params in
    let current q = q.compiled == compiled || q.compiled == vm_program || compiled == vm_program in
    b.sweeps <- r :: List.filteri (fun i _ -> i < max_resolved - 1) (List.filter current b.sweeps);
    r

(* One sweep of a resolved program: refill the field table, the
   parameters and the step, then run the tiles. *)
let run_resolved ?wrap r ~step ~params =
  for i = 0 to Array.length r.fields - 1 do
    Array.unsafe_set r.datas i (Array.unsafe_get r.fields i).Buffer.data
  done;
  load_params r.params params;
  for i = 0 to Array.length r.ints - 1 do
    Jit.set_step (Array.unsafe_get r.ints i) step
  done;
  Pool.run ?wrap ~domains:r.domains ~ntiles:(Array.length r.ints) r.run_tile

(* The sweep skeleton, parameterized over [wrap], which brackets each pool
   lane's share of the tiles ([lane] 0 is the coordinating domain, [i > 0]
   the i-th persistent pool worker).  Instrumented and plain execution
   share this code so the two paths cannot drift, and both executors
   share the resolved sweep: they differ only in the call a tile makes. *)
let run_tiled ?wrap ~backend ~region ~num_domains ~tile ~step ~params (b : bound) =
  let compiled =
    match backend with
    | Interp -> vm_program
    | Jit -> (
      (* One memo lookup per sweep under the binding's precomputed key: a
         hit hashes a 16-byte digest, and the hit/miss counters are what
         the warm-cache gates watch.  A program the lookup returns for the
         first time (the first sweep, or a rebuild after
         [Jit.clear_cache]) is resolved for this configuration once; a
         program without an entry (a failed build) runs on the VM. *)
      let comp = Jit.get ~target:b.jit_target (Lazy.force b.jit_key) b.kernel b.lowered in
      match comp.Jit.entry with Some _ -> comp | None -> vm_program)
  in
  run_resolved ?wrap (resolved b compiled ~region ~tile ~num_domains ~params) ~step ~params

(** The uninstrumented sweep: no observability entry points at all, so a
    timing probe ([Tune.probe]) or an oracle that sweeps the same block
    many times records no spans or counters even with the sink on. *)
let run_plain ?(num_domains = 1) ?tile ?(step = 0) ?backend ?(region = Whole) ~params
    (b : bound) =
  let backend = match backend with Some be -> be | None -> default_backend () in
  ignore (run_tiled ~backend ~region ~num_domains ~tile ~step ~params b)

(* Cells a region sweep visits (for the per-kernel counters). *)
let region_cells (b : bound) = function
  | Whole -> sweep_cells b
  | (Interior halo | Shell halo) as region ->
    let dim = b.kernel.Ir.Kernel.dim in
    let ranges = Array.init dim (fun d -> sweep_range b b.lowered.Ir.Lower.loop_order.(d)) in
    let inner =
      Array.fold_left
        (fun acc (lo, hi) -> acc * max 0 (hi - lo + 1))
        1
        (interior_ranges b ~ranges ~halo)
    in
    (match region with Interior _ -> inner | _ -> sweep_cells b - inner)

let region_suffix = function Whole -> "" | Interior _ -> ".interior" | Shell _ -> ".shell"

(** Execute one sweep of the kernel over the block, every setting given
    (what a time step calls, per kernel and phase, without building
    options); {!run} defaults them.

    [num_domains > 1] decomposes the sweep into cache-blocked tiles
    (shape [tile], indexed by loop depth; default: outermost-loop slices)
    and executes them on the persistent domain pool (shared buffers;
    disjoint writes).  [params] must bind every free symbol of the kernel.

    When the observability sink is enabled, the sweep is wrapped in a
    [kernel:<name>] span, each pool lane's share gets its own
    [slice:<name>] span on its stable lane track, per-kernel cell/sweep
    counters plus an ns-per-cell histogram are updated, and pooled sweeps
    bump the global [vm.tiles]/[vm.steals] counters — all per sweep, never
    per cell, and all from the coordinating domain ([Obs.Metrics] is not
    thread-safe).  Disabled, the only cost is this one branch. *)
let sweep ~num_domains ~tile ~step ~backend ~region ~params (b : bound) =
  if not (Obs.Sink.enabled ()) then
    ignore (run_tiled ~backend ~region ~num_domains ~tile ~step ~params b)
  else begin
    let name = b.kernel.Ir.Kernel.name ^ region_suffix region in
    let cells = region_cells b region in
    let wrap lane f =
      if lane = 0 then f ()  (* the coordinating lane lives inside the kernel span *)
      else Obs.Span.with_ ~cat:"vm" ~tid:lane ("slice:" ^ name) f
    in
    let stats, dt_ns =
      Obs.Clock.time_ns (fun () ->
          Obs.Span.with_ ~cat:"vm" ~args:[ ("cells", float_of_int cells) ]
            ("kernel:" ^ name) (fun () ->
              run_tiled ~wrap ~backend ~region ~num_domains ~tile ~step ~params b))
    in
    Obs.Metrics.add (Obs.Metrics.counter ("vm." ^ name ^ ".cells")) cells;
    Obs.Metrics.incr (Obs.Metrics.counter ("vm." ^ name ^ ".sweeps"));
    Obs.Metrics.observe
      (Obs.Metrics.histogram ("vm." ^ name ^ ".ns_per_cell"))
      (dt_ns /. float_of_int (max 1 cells));
    if stats.Pool.lanes > 1 then begin
      Obs.Metrics.add (Obs.Metrics.counter "vm.tiles") stats.Pool.tiles_run;
      Obs.Metrics.add (Obs.Metrics.counter "vm.steals") stats.Pool.steals
    end
  end

(** {!sweep} with defaults: [num_domains] the pool width requested by
    [PFGEN_DOMAINS] ({!Pool.default_domains}), no tile, step 0, the
    process's default backend and the whole sweep. *)
let run ?num_domains ?tile ?(step = 0) ?backend ?(region = Whole) ~params (b : bound) =
  let num_domains =
    match num_domains with Some n -> n | None -> Pool.default_domains ()
  in
  let backend = match backend with Some be -> be | None -> default_backend () in
  sweep ~num_domains ~tile ~step ~backend ~region ~params b
