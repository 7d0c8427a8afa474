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

let buffer block (f : Fieldspec.t) =
  match List.find_opt (fun (g, _) -> Fieldspec.equal f g) block.buffers with
  | Some (_, b) -> b
  | None -> invalid_arg ("Engine.buffer: no buffer for field " ^ f.Fieldspec.name)

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
(* Kernel binding                                                      *)
(* ------------------------------------------------------------------ *)

type bound = {
  kernel : Ir.Kernel.t;
  lowered : Ir.Lower.t;
  block : block;
  param_names : string array;
  n_temps : int;
  preheader : (ctx -> unit) array;        (* depth 0 *)
  per_loop : (ctx -> unit) array array;   (* depth 1 .. dim-1 *)
  body : (ctx -> unit) array;
  uses_rand : bool;
  jit_target : Jit.target;  (** what the binding's JIT program is printed for *)
  jit_key : Digest.t Lazy.t;
      (** the binding's {!Jit} memo key, forced by its first JIT sweep:
          digesting the whole body costs as much as a small block's sweep,
          so it is paid once per binding, never per sweep, and never by
          interpreter-only bindings *)
}

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

let bind ?(fastest = 0) ?(jit_target = Jit.host_target ()) (kernel : Ir.Kernel.t)
    (block : block) =
  let required =
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
  in
  if required > block.ghost then
    invalid_arg
      (Printf.sprintf "Engine.bind: kernel %s needs ghost %d, block has %d"
         kernel.Ir.Kernel.name required block.ghost);
  let lowered = Ir.Lower.run ~fastest kernel in
  let temps = Assignment.defined_temps kernel.Ir.Kernel.body in
  let temp_table = Hashtbl.create 64 in
  List.iteri (fun i s -> Hashtbl.replace temp_table s i) temps;
  let params = Ir.Kernel.parameters kernel in
  let param_table = Hashtbl.create 16 in
  List.iteri (fun i s -> Hashtbl.replace param_table s i) params;
  let binder =
    {
      param_slot = Hashtbl.find_opt param_table;
      temp_slot = Hashtbl.find_opt temp_table;
      resolve =
        (fun a ->
          let buf = buffer block a.Fieldspec.field in
          (buf, Buffer.access_delta buf a));
    }
  in
  let compile_list l = Array.of_list (List.map (compile_assignment binder) l) in
  let dim = kernel.Ir.Kernel.dim in
  let groups = Ir.Lower.groups lowered in
  let uses_rand =
    List.exists
      (fun (a : Assignment.t) ->
        Expr.fold (fun u n -> u || match n with Expr.Rand _ -> true | _ -> false) false a.rhs)
      kernel.Ir.Kernel.body
  in
  {
    kernel;
    lowered;
    block;
    param_names = Array.of_list params;
    n_temps = List.length temps;
    preheader = compile_list groups.(0);
    per_loop = Array.init (dim - 1) (fun i -> compile_list groups.(i + 1));
    body = compile_list groups.(dim);
    uses_rand;
    jit_target;
    jit_key = lazy (Jit.fingerprint ~target:jit_target kernel lowered);
  }

(** Compile the JIT programs of [bounds] that the memo table lacks, in one
    compiler run ({!Jit.prepare}): a caller about to sweep several kernels
    pays one compiler start-up for all of them.  Forces each binding's
    memo key. *)
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

let run_group g c =
  for i = 0 to Array.length g - 1 do
    (Array.unsafe_get g i) c
  done

(* Sweep one tile (3D): [lo]/[hi] are inclusive loop bounds indexed by loop
   depth, following the lowering's loop_order.  A full sweep is the single
   tile spanning every range; cache blocking shrinks the outer depths. *)
let sweep_tile_3d (b : bound) (c : ctx) ~(lo : int array) ~(hi : int array) =
  let order = b.lowered.Ir.Lower.loop_order in
  let a0 = order.(0) and a1 = order.(1) and a2 = order.(2) in
  let block = b.block in
  let any_buf = snd (List.hd block.buffers) in
  let stride = any_buf.Buffer.stride in
  let coords = Array.make 3 0 in
  let set_coord ax v =
    coords.(ax) <- v;
    let g = v + block.offset.(ax) in
    match ax with 0 -> c.cx <- g | 1 -> c.cy <- g | _ -> c.cz <- g
  in
  for i0 = lo.(0) to hi.(0) do
    set_coord a0 i0;
    run_group b.per_loop.(0) c;
    for i1 = lo.(1) to hi.(1) do
      set_coord a1 i1;
      run_group b.per_loop.(1) c;
      set_coord a2 lo.(2);
      c.base <- Buffer.base_index any_buf coords;
      for i2 = lo.(2) to hi.(2) do
        set_coord a2 i2;
        run_group b.body c;
        c.base <- c.base + stride.(a2)
      done
    done
  done

let sweep_tile_2d (b : bound) (c : ctx) ~(lo : int array) ~(hi : int array) =
  let order = b.lowered.Ir.Lower.loop_order in
  let a0 = order.(0) and a1 = order.(1) in
  let block = b.block in
  let any_buf = snd (List.hd block.buffers) in
  let stride = any_buf.Buffer.stride in
  let coords = Array.make 2 0 in
  let set_coord ax v =
    coords.(ax) <- v;
    let g = v + block.offset.(ax) in
    match ax with 0 -> c.cx <- g | _ -> c.cy <- g
  in
  for i0 = lo.(0) to hi.(0) do
    set_coord a0 i0;
    run_group b.per_loop.(0) c;
    set_coord a1 lo.(1);
    c.base <- Buffer.base_index any_buf coords;
    for i1 = lo.(1) to hi.(1) do
      set_coord a1 i1;
      run_group b.body c;
      c.base <- c.base + stride.(a1)
    done
  done

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

(** Which part of the sweep to execute.  [Interior halo] covers only cells
    whose stencil reads — up to [halo] cells in every direction — stay
    inside the block's owned region, so the sweep is independent of ghost
    values and may run while a ghost exchange is in flight; [Shell halo] is
    the complement, swept after the exchange completes.  [Whole] is the
    classic full sweep.  [Interior h] ∪ [Shell h] visits every sweep cell
    exactly once, so splitting a sweep is bitwise invisible (oracle 10). *)
type region = Whole | Interior of int | Shell of int

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

(* The sweep skeleton, parameterized over [wrap], which brackets each pool
   lane's share of the tiles ([lane] 0 is the coordinating domain, [i > 0]
   the i-th persistent pool worker).  Instrumented and plain execution
   share this code so the two paths cannot drift.

   Every tile runs with a fresh [ctx]: the preheader and per-depth hoisted
   groups are deterministic functions of the parameters and loop
   coordinates (they are recomputed at every outer-loop iteration even in a
   serial sweep), so recomputing them per tile changes nothing — which is
   exactly why tiled, pooled execution is bitwise identical to serial. *)
let run_tiled ?wrap ?(backend = Interp) ?(region = Whole) ~num_domains ~tile ~step ~params
    (b : bound) =
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
        (* default parallel schedule: slice the outermost loop into about
           2x[num_domains] chunks so the atomic queue can balance lanes *)
        let lo0, hi0 = ranges.(0) in
        let n0 = hi0 - lo0 + 1 in
        let chunk = max 1 ((n0 + (2 * num_domains) - 1) / (2 * num_domains)) in
        Some (Array.init dim (fun d -> if d = 0 then chunk else 0))
      end
  in
  let tiles =
    match region with
    | Whole -> Schedule.make ~ranges ?shape ()
    | Interior halo | Shell halo ->
      let interior = interior_ranges b ~ranges ~halo in
      let inner, shell = Schedule.split_halo ~ranges ~interior ?shape () in
      (match region with Interior _ -> inner | _ -> shell)
  in
  let interp ~lane:_ ti =
    let t : Schedule.tile = tiles.(ti) in
    let c = make_ctx b ~params ~step in
    run_group b.preheader c;
    if dim = 3 then sweep_tile_3d b c ~lo:t.Schedule.lo ~hi:t.Schedule.hi
    else sweep_tile_2d b c ~lo:t.Schedule.lo ~hi:t.Schedule.hi
  in
  let exec =
    match backend with
    | Interp -> interp
    | Jit -> (
      (* One memo lookup per sweep under the binding's precomputed key:
         a hit hashes a 16-byte digest, and the hit/miss counters are what
         the warm-cache gates watch.  Field storage is re-resolved here —
         after the lookup, per sweep — so compiled programs survive
         Buffer.swap. *)
      let comp = Jit.get ~target:b.jit_target (Lazy.force b.jit_key) b.kernel b.lowered in
      match comp.Jit.entry with
      | None -> interp
      | Some entry ->
        let datas = Array.map (fun f -> (buffer b.block f).Buffer.data) comp.Jit.fields in
        let any_buf = snd (List.hd b.block.buffers) in
        fun ~lane:_ ti ->
          let t : Schedule.tile = tiles.(ti) in
          (* per tile, like make_ctx, so a missing binding surfaces from
             inside the pool exactly as the interpreter's does *)
          let pvals =
            Array.append
              (Array.map
                 (fun name ->
                   match List.assoc_opt name params with
                   | Some v -> v
                   | None -> invalid_arg ("Engine.run: missing parameter " ^ name))
                 comp.Jit.param_names)
              [| Option.value (List.assoc_opt "dx" params) ~default:1. |]
          in
          Jit.exec_tile comp entry ~datas ~pvals ~stride:any_buf.Buffer.stride
            ~comp_stride:any_buf.Buffer.comp_stride ~ghost:b.block.ghost ~offset:b.block.offset
            ~global_dims:b.block.global_dims ~step ~lo:t.Schedule.lo ~hi:t.Schedule.hi)
  in
  Pool.run ?wrap ~domains:num_domains ~ntiles:(Array.length tiles) exec

(** The uninstrumented sweep: no observability entry points at all.  The
    [obs] bench artifact measures [run] (sink disabled) against this to
    certify the disabled-instrumentation overhead. *)
let run_plain ?(num_domains = 1) ?tile ?(step = 0) ?backend ?region ~params (b : bound) =
  let backend = match backend with Some be -> be | None -> default_backend () in
  ignore (run_tiled ~backend ?region ~num_domains ~tile ~step ~params b)

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

(** Execute one sweep of the kernel over the block.

    [num_domains > 1] decomposes the sweep into cache-blocked tiles
    (shape [tile], indexed by loop depth; default: outermost-loop slices)
    and executes them on the persistent domain pool (shared buffers;
    disjoint writes).  The default [num_domains] is [Pool.default_domains]
    — the [PFGEN_DOMAINS] environment.  [params] must bind every free
    symbol of the kernel.

    When the observability sink is enabled, the sweep is wrapped in a
    [kernel:<name>] span, each pool lane's share gets its own
    [slice:<name>] span on its stable lane track, per-kernel cell/sweep
    counters plus an ns-per-cell histogram are updated, and pooled sweeps
    bump the global [vm.tiles]/[vm.steals] counters — all per sweep, never
    per cell, and all from the coordinating domain ([Obs.Metrics] is not
    thread-safe).  Disabled, the only cost is this one branch. *)
let run ?num_domains ?tile ?(step = 0) ?backend ?(region = Whole) ~params (b : bound) =
  let num_domains =
    match num_domains with Some n -> n | None -> Pool.default_domains ()
  in
  let backend = match backend with Some be -> be | None -> default_backend () in
  if not (Obs.Sink.enabled ()) then
    run_plain ~num_domains ?tile ~step ~backend ~region ~params b
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
