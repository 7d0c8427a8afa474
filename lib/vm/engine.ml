(** Kernel execution engine.

    Compiles the post-optimization assignment list — the *same* IR the C
    backend prints — into closures over flat float arrays and sweeps it over
    a block, honoring the lowering result (loop order, hoisted loop-invariant
    assignments).  Multicore execution slices the outermost loop across
    OCaml domains, mirroring the generated code's OpenMP parallelization. *)

open Symbolic
open Field

type ctx = {
  params : float array;
  temps : float array;
  mutable base : int;       (** linear index of the current cell *)
  mutable cx : int;         (** global cell coordinates *)
  mutable cy : int;
  mutable cz : int;
  mutable step : int;       (** time step, keys the Philox streams *)
  mutable dx : float;
  global_dims : int array;
}

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

(** How sweeps execute: [Interp] walks the closure tree built by [bind]
    (the reference semantics); [Jit] calls the C program {!Jit} built from
    the same IR — bitwise identical by contract, held to it by oracle 8 —
    or, where no program could be built, the interpreter. *)
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

(** Per-cell field reader for the reduction layer ([Vm.Reduce]): [Interp]
    goes through [Buffer.get] (the bounds-checked reference path); [Jit]
    uses the precomputed base/stride flat addressing the compiled kernels
    use.  Both return the identical stored bits — a reduction only ever
    combines them in its canonical tree order, so the backends cannot
    diverge.  The reader is valid until the next buffer [swap]. *)
let cell_reader ?(component = 0) ~backend block (f : Fieldspec.t) =
  let buf = buffer block f in
  match backend with
  | Interp -> fun coords -> Buffer.get buf ~component coords
  | Jit ->
    let data = buf.Buffer.data in
    let stride = buf.Buffer.stride in
    let ghost = buf.Buffer.ghost in
    let cbase = component * buf.Buffer.comp_stride in
    fun coords ->
      let idx = ref cbase in
      for d = 0 to Array.length coords - 1 do
        idx := !idx + ((coords.(d) + ghost) * stride.(d))
      done;
      Array.unsafe_get data !idx

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

type binder = {
  param_slot : string -> int option;
  temp_slot : string -> int option;
  resolve : Fieldspec.access -> Buffer.t * int;  (* buffer, element delta *)
}

let rec compile (b : binder) (e : Expr.t) : ctx -> float =
  match e with
  | Expr.Num x -> fun _ -> x
  | Expr.Sym s -> (
    match b.temp_slot s with
    | Some i -> fun c -> Array.unsafe_get c.temps i
    | None -> (
      match b.param_slot s with
      | Some i -> fun c -> Array.unsafe_get c.params i
      | None -> invalid_arg ("Engine.compile: unbound symbol " ^ s)))
  | Expr.Coord d ->
    let pick : ctx -> int =
      match d with 0 -> (fun c -> c.cx) | 1 -> (fun c -> c.cy) | _ -> fun c -> c.cz
    in
    fun c -> (float_of_int (pick c) +. 0.5) *. c.dx
  | Expr.Access a ->
    let buf, delta = b.resolve a in
    fun c -> Array.unsafe_get buf.Buffer.data (c.base + delta)
  | Expr.Rand slot ->
    fun c ->
      let cell = ((c.cz * c.global_dims.(1)) + c.cy) * c.global_dims.(0) + c.cx in
      Philox.symmetric ~cell ~step:c.step ~slot
  | Expr.Diff _ -> invalid_arg "Engine.compile: Diff survived discretization"
  | Expr.Add [ x; y ] ->
    let fx = compile b x and fy = compile b y in
    fun c -> fx c +. fy c
  | Expr.Add [ x; y; z ] ->
    let fx = compile b x and fy = compile b y and fz = compile b z in
    fun c -> fx c +. fy c +. fz c
  | Expr.Add xs ->
    let fs = Array.of_list (List.map (compile b) xs) in
    fun c ->
      let acc = ref 0. in
      for i = 0 to Array.length fs - 1 do
        acc := !acc +. (Array.unsafe_get fs i) c
      done;
      !acc
  | Expr.Mul [ x; y ] ->
    let fx = compile b x and fy = compile b y in
    fun c -> fx c *. fy c
  | Expr.Mul [ x; y; z ] ->
    let fx = compile b x and fy = compile b y and fz = compile b z in
    fun c -> fx c *. fy c *. fz c
  | Expr.Mul xs ->
    let fs = Array.of_list (List.map (compile b) xs) in
    fun c ->
      let acc = ref 1. in
      for i = 0 to Array.length fs - 1 do
        acc := !acc *. (Array.unsafe_get fs i) c
      done;
      !acc
  | Expr.Pow (x, 2) ->
    let fx = compile b x in
    fun c ->
      let v = fx c in
      v *. v
  | Expr.Pow (x, -1) ->
    let fx = compile b x in
    fun c -> 1. /. fx c
  | Expr.Pow (x, -2) ->
    let fx = compile b x in
    fun c ->
      let v = fx c in
      1. /. (v *. v)
  | Expr.Pow (x, n) ->
    let fx = compile b x in
    let m = abs n in
    fun c ->
      let v = fx c in
      let rec go acc k = if k = 0 then acc else go (acc *. v) (k - 1) in
      let p = go 1. m in
      if n < 0 then 1. /. p else p
  | Expr.Fun (f, [ x ]) ->
    let fx = compile b x in
    let g : float -> float =
      match f with
      | Expr.Sqrt -> sqrt
      | Expr.Rsqrt -> fun v -> 1. /. sqrt v
      | Expr.Exp -> exp
      | Expr.Log -> log
      | Expr.Sin -> sin
      | Expr.Cos -> cos
      | Expr.Tanh -> tanh
      | Expr.Fabs -> abs_float
      | Expr.Fmin | Expr.Fmax -> invalid_arg "Engine.compile: unary min/max"
    in
    fun c -> g (fx c)
  | Expr.Fun (Expr.Fmin, [ x; y ]) ->
    let fx = compile b x and fy = compile b y in
    fun c -> Expr.c_fmin (fx c) (fy c)
  | Expr.Fun (Expr.Fmax, [ x; y ]) ->
    let fx = compile b x and fy = compile b y in
    fun c -> Expr.c_fmax (fx c) (fy c)
  | Expr.Fun _ -> invalid_arg "Engine.compile: bad function arity"
  | Expr.Select (cond, t, f) ->
    let ft = compile b t and ff = compile b f in
    let test : ctx -> bool =
      match cond with
      | Expr.Lt (x, y) ->
        let fx = compile b x and fy = compile b y in
        fun c -> fx c < fy c
      | Expr.Le (x, y) ->
        let fx = compile b x and fy = compile b y in
        fun c -> fx c <= fy c
    in
    fun c -> if test c then ft c else ff c

(* ------------------------------------------------------------------ *)
(* Kernel programs and bindings                                        *)
(* ------------------------------------------------------------------ *)

(** Everything a kernel's sweeps need that depends on the kernel alone:
    its lowering for one loop order, its parameter and temporary slots, the
    ghost width its sweep reads, and its {!Jit} memo key (forced by the
    first JIT sweep or plan that needs it).
    One program is built per (kernel, fastest axis, JIT target) and shared
    by every block, rank, job and tuning probe that binds the kernel — the
    paper's generate-once, run-on-every-block split. *)
type program = {
  kernel : Ir.Kernel.t;
  lowered : Ir.Lower.t;
  param_names : string array;
  param_slots : (string, int) Hashtbl.t;
  temp_slots : (string, int) Hashtbl.t;
  ghost_need : int;  (** ghost layers the sweep reads *)
  jit_target : Jit.target;
  jit_key : Digest.t Lazy.t;
}

(** The interpreter's closure tree for one (program, block): the lowering's
    depth groups compiled against the block's buffers. *)
type tree = {
  preheader : (ctx -> unit) array;        (* depth 0 *)
  per_loop : (ctx -> unit) array array;   (* depth 1 .. dim-1 *)
  body : (ctx -> unit) array;
}

(** Which part of the sweep to execute.  [Interior halo] covers only cells
    whose stencil reads — up to [halo] cells in every direction — stay
    inside the block's owned region, so the sweep is independent of ghost
    values and may run while a ghost exchange is in flight; [Shell halo] is
    the complement, swept after the exchange completes.  [Whole] is the
    classic full sweep.  [Interior h] ∪ [Shell h] visits every sweep cell
    exactly once, so splitting a sweep is bitwise invisible (oracle 10). *)
type region = Whole | Interior of int | Shell of int

(** A JIT sweep resolved once for one (binding, region, tile shape, pool
    width): everything a sweep needs that does not change between sweeps.
    A sweep refills the field table's data pointers from the buffer
    records (so it survives [Buffer.swap]), the parameter values and the
    time step in every tile's int table, and calls the tiles. *)
type resolved = {
  compiled : Jit.compiled;  (** the program the memo lookup returned *)
  region : region;
  tile : int array option;
  domains : int;
  fields : Buffer.t array;  (** aligned with [compiled.fields] *)
  datas : float array array;  (** the entry's field table *)
  pvals : float array;  (** [compiled.param_names] order, then [dx] *)
  mutable names : string array;
      (** the parameter list's names, in order, as last resolved: a list
          whose names are physically these is read by position *)
  mutable values : float array;  (** that list's values, by position *)
  mutable slot_pos : int array;
      (** per [pvals] slot, the list position it reads; [-1]: [dx] unbound *)
  ints : int array array;  (** per tile, {!Jit.tile_ints} *)
  run_tile : lane:int -> int -> unit;
      (** one tile: one [@@noalloc] call of the program's entry with the
          field table, the parameters and the tile's int table *)
}

(** A kernel bound to a block: the kernel's shared {!program} plus what
    depends on the block. *)
type bound = {
  kernel : Ir.Kernel.t;
  lowered : Ir.Lower.t;  (** the shared program's *)
  block : block;
  param_names : string array;
  n_temps : int;
  tree : tree Lazy.t;
      (** built by the binding's first interpreter sweep (or JIT sweep that
          falls back), never by a binding only the JIT sweeps; forced on the
          coordinating domain before the pool runs *)
  jit_target : Jit.target;  (** what the binding's JIT program is printed for *)
  jit_key : Digest.t Lazy.t;
      (** the shared program's {!Jit} memo key: digesting the whole body
          costs as much as a small block's sweep, so it is paid once per
          program, never per sweep or per block, and never by a kernel only
          the interpreter sweeps *)
  mutable sweeps : resolved list;
      (** the binding's resolved JIT sweeps, newest first, at most
          {!max_resolved}, all of one program *)
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

let slots names =
  let table = Hashtbl.create 64 in
  List.iteri (fun i s -> Hashtbl.replace table s i) names;
  table

let make_program ~fastest ~jit_target (kernel : Ir.Kernel.t) : program =
  Obs.Metrics.count "vm.bind.programs" 1;
  let lowered = Ir.Lower.run ~fastest kernel in
  let params = Ir.Kernel.parameters kernel in
  {
    kernel;
    lowered;
    param_names = Array.of_list params;
    param_slots = slots params;
    temp_slots = slots (Assignment.defined_temps kernel.Ir.Kernel.body);
    ghost_need = ghost_need kernel;
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

let compile_assignment binder (a : Assignment.t) : ctx -> unit =
  let rhs = compile binder a.rhs in
  match a.lhs with
  | Assignment.Temp s -> (
    match binder.temp_slot s with
    | Some i -> fun c -> Array.unsafe_set c.temps i (rhs c)
    | None -> assert false)
  | Assignment.Store acc ->
    let buf, delta = binder.resolve acc in
    fun c -> Array.unsafe_set buf.Buffer.data (c.base + delta) (Expr.canonical (rhs c))

let build_tree (p : program) block =
  Obs.Metrics.count "vm.bind.trees" 1;
  let binder =
    {
      param_slot = Hashtbl.find_opt p.param_slots;
      temp_slot = Hashtbl.find_opt p.temp_slots;
      resolve =
        (fun a ->
          let buf = buffer block a.Fieldspec.field in
          (buf, Buffer.access_delta buf a));
    }
  in
  let compile_list l = Array.of_list (List.map (compile_assignment binder) l) in
  let dim = p.kernel.Ir.Kernel.dim in
  let groups = Ir.Lower.groups p.lowered in
  {
    preheader = compile_list groups.(0);
    per_loop = Array.init (dim - 1) (fun i -> compile_list groups.(i + 1));
    body = compile_list groups.(dim);
  }

(** Bind [kernel] to [block]: the kernel's shared {!program} plus the
    block.  Only the ghost check runs per binding; the interpreter's
    closure tree waits for the first sweep that needs it. *)
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
    param_names = p.param_names;
    n_temps = Hashtbl.length p.temp_slots;
    tree = lazy (build_tree p block);
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

let run_group g c =
  for i = 0 to Array.length g - 1 do
    (Array.unsafe_get g i) c
  done

(* Sweep one tile: [lo]/[hi] are inclusive loop bounds indexed by loop
   depth, following the lowering's loop_order.  Each outer depth sets its
   coordinate and runs its hoisted group, then recurses; the innermost
   depth is one flat loop that steps the linear cell index by the fastest
   axis' stride.  A full sweep is the single tile spanning every range;
   cache blocking shrinks the outer depths. *)
let sweep_tile (b : bound) (t : tree) (c : ctx) ~(lo : int array) ~(hi : int array) =
  let order = b.lowered.Ir.Lower.loop_order in
  let inner = Array.length order - 1 in
  let block = b.block in
  let any_buf = snd (List.hd block.buffers) in
  let coords = Array.make (inner + 1) 0 in
  let set_coord ax v =
    coords.(ax) <- v;
    let g = v + block.offset.(ax) in
    match ax with 0 -> c.cx <- g | 1 -> c.cy <- g | _ -> c.cz <- g
  in
  let fastest = order.(inner) in
  let stride = any_buf.Buffer.stride.(fastest) in
  let rec depth d =
    if d = inner then begin
      set_coord fastest lo.(d);
      c.base <- Buffer.base_index any_buf coords;
      for i = lo.(d) to hi.(d) do
        set_coord fastest i;
        run_group t.body c;
        c.base <- c.base + stride
      done
    end
    else
      for i = lo.(d) to hi.(d) do
        set_coord order.(d) i;
        run_group t.per_loop.(d) c;
        depth (d + 1)
      done
  in
  depth 0

let make_ctx (b : bound) ~params ~step =
  let values =
    Array.map
      (fun name ->
        match List.assoc_opt name params with
        | Some v -> v
        | None -> invalid_arg ("Engine.run: missing parameter " ^ name))
      b.param_names
  in
  {
    params = values;
    temps = Array.make (max 1 b.n_temps) 0.;
    base = 0;
    cx = 0;
    cy = 0;
    cz = 0;
    step;
    dx = Option.value (List.assoc_opt "dx" params) ~default:1.;
    global_dims = b.block.global_dims;
  }

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
(* Resolved JIT sweeps                                                 *)
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
  let param_names = r.compiled.Jit.param_names in
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
  if not (same_names r 0 params) then bind_params r params;
  for s = 0 to Array.length r.slot_pos - 1 do
    let j = Array.unsafe_get r.slot_pos s in
    Array.unsafe_set r.pvals s (if j < 0 then 1. else Array.unsafe_get r.values j)
  done

let resolve (b : bound) (compiled : Jit.compiled) entry ~region ~tile ~num_domains ~params =
  let tiles = schedule b ~region ~tile ~num_domains in
  let any_buf = snd (List.hd b.block.buffers) in
  let fields = Array.map (buffer b.block) compiled.Jit.fields in
  let datas = Array.map (fun (f : Buffer.t) -> f.Buffer.data) fields in
  let pvals = Array.make (Array.length compiled.Jit.param_names + 1) 0. in
  let ints =
    Array.map
      (fun (t : Schedule.tile) ->
        Jit.tile_ints compiled ~stride:any_buf.Buffer.stride
          ~comp_stride:any_buf.Buffer.comp_stride ~ghost:b.block.ghost ~offset:b.block.offset
          ~global_dims:b.block.global_dims ~lo:t.Schedule.lo ~hi:t.Schedule.hi)
      tiles
  in
  let r =
    {
      compiled;
      region;
      tile;
      domains = num_domains;
      fields;
      datas;
      pvals;
      names = [||];
      values = [||];
      slot_pos = [||];
      ints;
      run_tile = (fun ~lane:_ ti -> Jit_cc.run entry datas pvals (Array.unsafe_get ints ti));
    }
  in
  bind_params r params;
  r

let rec find_resolved compiled ~region ~tile ~num_domains = function
  | [] -> raise Not_found
  | r :: rest ->
    if r.compiled == compiled && r.domains = num_domains && r.region = region && r.tile = tile
    then r
    else find_resolved compiled ~region ~tile ~num_domains rest

(* The binding's resolved sweep for this program and configuration, built
   on first use; resolutions of an older program are dropped. *)
let resolved (b : bound) compiled entry ~region ~tile ~num_domains ~params =
  match find_resolved compiled ~region ~tile ~num_domains b.sweeps with
  | r -> r
  | exception Not_found ->
    let r = resolve b compiled entry ~region ~tile ~num_domains ~params in
    let kept = List.filter (fun q -> q.compiled == compiled) b.sweeps in
    b.sweeps <- r :: List.filteri (fun i _ -> i < max_resolved - 1) kept;
    r

(* One sweep of a resolved program: refill the field table, the
   parameters and the step, then run the tiles. *)
let run_resolved ?wrap r ~step ~params =
  for i = 0 to Array.length r.fields - 1 do
    Array.unsafe_set r.datas i (Array.unsafe_get r.fields i).Buffer.data
  done;
  load_params r params;
  for i = 0 to Array.length r.ints - 1 do
    Jit.set_step r.compiled (Array.unsafe_get r.ints i) step
  done;
  Pool.run ?wrap ~domains:r.domains ~ntiles:(Array.length r.ints) r.run_tile

(* An interpreter sweep.  Every tile runs with a fresh [ctx]: the
   preheader and per-depth hoisted groups are deterministic functions of
   the parameters and loop coordinates (they are recomputed at every
   outer-loop iteration even in a serial sweep), so recomputing them per
   tile changes nothing — which is exactly why tiled, pooled execution is
   bitwise identical to serial. *)
let run_interp ?wrap ~region ~num_domains ~tile ~step ~params (b : bound) =
  let tiles = schedule b ~region ~tile ~num_domains in
  (* The closure tree is forced here, on the coordinating domain: OCaml 5
     raises when two domains force one lazy value, and every lane reads the
     tree. *)
  let tree = Lazy.force b.tree in
  Pool.run ?wrap ~domains:num_domains ~ntiles:(Array.length tiles) (fun ~lane:_ ti ->
      let t : Schedule.tile = tiles.(ti) in
      let c = make_ctx b ~params ~step in
      run_group tree.preheader c;
      sweep_tile b tree c ~lo:t.Schedule.lo ~hi:t.Schedule.hi)

(* The sweep skeleton, parameterized over [wrap], which brackets each pool
   lane's share of the tiles ([lane] 0 is the coordinating domain, [i > 0]
   the i-th persistent pool worker).  Instrumented and plain execution
   share this code so the two paths cannot drift. *)
let run_tiled ?wrap ~backend ~region ~num_domains ~tile ~step ~params (b : bound) =
  match backend with
  | Interp -> run_interp ?wrap ~region ~num_domains ~tile ~step ~params b
  | Jit -> (
    (* One memo lookup per sweep under the binding's precomputed key: a
       hit hashes a 16-byte digest, and the hit/miss counters are what the
       warm-cache gates watch.  A program the lookup returns for the first
       time (the first sweep, or a rebuild after [Jit.clear_cache]) is
       resolved for this configuration once. *)
    let comp = Jit.get ~target:b.jit_target (Lazy.force b.jit_key) b.kernel b.lowered in
    match comp.Jit.entry with
    | None -> run_interp ?wrap ~region ~num_domains ~tile ~step ~params b
    | Some entry ->
      run_resolved ?wrap
        (resolved b comp entry ~region ~tile ~num_domains ~params)
        ~step ~params)

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
