(** Kernel execution engine.

    Compiles the post-optimization assignment list — the *same* IR the C
    backend prints — into closures that each compute one node for a batch
    of cells, and sweeps it over a block, honoring the lowering result (loop
    order, hoisted loop-invariant assignments).  Multicore execution slices
    the outermost loop across OCaml domains, mirroring the generated code's
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

(** How sweeps execute: [Interp] runs the program's closure tree over
    batches of cells (the reference semantics); [Jit] calls the C program
    {!Jit} built from the same IR — bitwise identical by contract, held to
    it by oracle 8 — or, where no program could be built, the interpreter. *)
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
    use.  Both return the identical stored bits, and a reduction sums
    them exactly, so the backends cannot diverge.  The reader is valid
    until the next buffer [swap]. *)
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
(* Batched interpretation                                              *)
(* ------------------------------------------------------------------ *)

(** Cells one interpreter step serves per call.  The cells of a sweep are
    independent (the precondition the SIMD printer relies on, checked by
    {!program}), so a node can compute its value for a whole batch of them
    before the next node runs. *)
let width = 64

(** A pool lane's scratch, shared by every program the lane sweeps.  [v]
    holds the parameters and [dx], then [width]-float vectors:
    temporaries, node results, and the batch's field values and broadcast
    constants.
    [idx] holds each batch cell's linear index and [co] its global
    coordinates ([co.(axis * width + cell)]).  A tile writes everything it
    reads, so nothing carries over from one sweep to the next. *)
type arena = {
  mutable v : float array;
  idx : int array;
  co : int array;
  mutable n : int;  (** cells in the current batch *)
  mutable datas : float array array;  (** the binding's table: data per access *)
  mutable deltas : int array;  (** and element delta per access *)
  mutable step : int;
  mutable gd : int array;  (** global dims *)
}

let arena_key =
  Domain.DLS.new_key (fun () ->
      {
        v = [||];
        idx = Array.make width 0;
        co = Array.make (3 * width) 0;
        n = 0;
        datas = [||];
        deltas = [||];
        step = 0;
        gd = [||];
      })

(* The steps.  Each writes one node's value for the batch's cells into
   the vector at [t], from the vectors at its operands' offsets, with the
   per-cell arithmetic of [Expr]'s evaluation contract. *)

let[@inline] get (v : float array) i = Array.unsafe_get v i
let[@inline] set (v : float array) i x = Array.unsafe_set v i x

let gather t k ar =
  let v = ar.v and d = Array.unsafe_get ar.datas k and e = Array.unsafe_get ar.deltas k in
  for i = 0 to ar.n - 1 do
    set v (t + i) (get d (Array.unsafe_get ar.idx i + e))
  done

let broadcast t u ar =
  let v = ar.v in
  let x = get v u in
  for i = 0 to ar.n - 1 do
    set v (t + i) x
  done

let constant t (x : float) ar = Array.fill ar.v t ar.n x

let copy t a ar = Array.blit ar.v a ar.v t ar.n

let binary add t a b ar =
  let v = ar.v in
  if add then
    for i = 0 to ar.n - 1 do
      set v (t + i) (get v (a + i) +. get v (b + i))
    done
  else
    for i = 0 to ar.n - 1 do
      set v (t + i) (get v (a + i) *. get v (b + i))
    done

let ternary add t a b c ar =
  let v = ar.v in
  if add then
    for i = 0 to ar.n - 1 do
      set v (t + i) (get v (a + i) +. get v (b + i) +. get v (c + i))
    done
  else
    for i = 0 to ar.n - 1 do
      set v (t + i) (get v (a + i) *. get v (b + i) *. get v (c + i))
    done

(* A longer sum or product, folded left from [0.]/[1.]. *)
let fold add t (ops : int array) ar =
  let v = ar.v and n = ar.n in
  let u = if add then 0. else 1. in
  for i = 0 to n - 1 do
    set v (t + i) u
  done;
  for j = 0 to Array.length ops - 1 do
    let a = Array.unsafe_get ops j in
    if add then
      for i = 0 to n - 1 do
        set v (t + i) (get v (t + i) +. get v (a + i))
      done
    else
      for i = 0 to n - 1 do
        set v (t + i) (get v (t + i) *. get v (a + i))
      done
  done

(* Integer powers: the multiply chain from [1.] ([1. *. x] is [x]). *)
let pow n t a ar =
  let v = ar.v and m = abs n in
  for i = 0 to ar.n - 1 do
    let x = get v (a + i) in
    let p = ref (if m = 0 then 1. else x) in
    for _ = 2 to m do
      p := !p *. x
    done;
    set v (t + i) (if n < 0 then 1. /. !p else !p)
  done

let unary (f : Expr.fn) t a ar =
  let v = ar.v in
  for i = 0 to ar.n - 1 do
    let x = get v (a + i) in
    set v (t + i)
      (match f with
      | Expr.Sqrt -> sqrt x
      | Expr.Rsqrt -> 1. /. sqrt x
      | Expr.Exp -> exp x
      | Expr.Log -> log x
      | Expr.Sin -> sin x
      | Expr.Cos -> cos x
      | Expr.Tanh -> tanh x
      | Expr.Fabs -> abs_float x
      | Expr.Fmin | Expr.Fmax -> assert false)
  done

(* [Expr.c_fmin]/[c_fmax], inline: exact on NaN and on signed zeros. *)
let minmax max t a b ar =
  let v = ar.v in
  for i = 0 to ar.n - 1 do
    let x = get v (a + i) and y = get v (b + i) in
    set v (t + i)
      (if x <> x then y
       else if y <> y then x
       else if max then if x >= y then x else y
       else if x <= y then x
       else y)
  done

(* Both arms are computed already; each cell picks one. *)
let select le t p q x y ar =
  let v = ar.v in
  for i = 0 to ar.n - 1 do
    let a = get v (p + i) and b = get v (q + i) in
    set v (t + i) (get v ((if (if le then a <= b else a < b) then x else y) + i))
  done

let coord d ~dx t ar =
  let v = ar.v in
  let dx = get v dx in
  for i = 0 to ar.n - 1 do
    set v (t + i) ((float_of_int (Array.unsafe_get ar.co ((d * width) + i)) +. 0.5) *. dx)
  done

(* A kernel of [dim] axes reads only its own coordinates. *)
let rand ~dim slot t ar =
  let v = ar.v and co = ar.co and step = ar.step in
  let gd0 = ar.gd.(0) and gd1 = if dim > 2 then ar.gd.(1) else 0 in
  for i = 0 to ar.n - 1 do
    let cy = if dim > 1 then Array.unsafe_get co (width + i) else 0 in
    let cz = if dim > 2 then Array.unsafe_get co ((2 * width) + i) else 0 in
    let cell = ((((cz * gd1) + cy) * gd0) + Array.unsafe_get co i) in
    Philox.symmetric_into v (t + i) ~cell ~step ~slot
  done

let store k a ar =
  let v = ar.v and d = Array.unsafe_get ar.datas k and e = Array.unsafe_get ar.deltas k in
  for i = 0 to ar.n - 1 do
    let x = get v (a + i) and j = Array.unsafe_get ar.idx i + e in
    set d j x;
    if x <> x then set d j Expr.canonical_nan
  done

(* The compiler's state for one program.  Offsets into [v]: the
   parameters and [dx], one float each; then vectors, each taken from
   [free] or from [next].  A node's result goes back to [free] once its
   reader is emitted; a temporary keeps its vector, a hoisted one in its
   first lane.  A group gathers each access and broadcasts each constant,
   parameter and hoisted temporary once, at its first reader ([seen]). *)
type builder = {
  dim : int;
  params : (string, int) Hashtbl.t;
  dx : int;
  temps : (string, int * bool) Hashtbl.t;  (** vector, hoisted *)
  accesses : (Fieldspec.access, int) Hashtbl.t;
  mutable table : Fieldspec.access list;  (** the accesses, newest first *)
  seen : ([ `Num of int64 | `Uni of int | `Field of Fieldspec.access ], int) Hashtbl.t;
  mutable free : int list;
  mutable next : int;
  mutable steps : (arena -> unit) list;  (** the group's steps, newest first *)
}

let emit st f = st.steps <- f :: st.steps

let alloc st =
  match st.free with
  | t :: rest ->
    st.free <- rest;
    t
  | [] ->
    let t = st.next in
    st.next <- t + width;
    t

let access_index st a =
  match Hashtbl.find_opt st.accesses a with
  | Some k -> k
  | None ->
    let k = Hashtbl.length st.accesses in
    Hashtbl.replace st.accesses a k;
    st.table <- a :: st.table;
    k

(* The vector a leaf reads, gathered or broadcast at its group's first
   reader. *)
let leaf st (e : Expr.t) =
  let once key step =
    match Hashtbl.find_opt st.seen key with
    | Some t -> t
    | None ->
      let t = alloc st in
      emit st (step t);
      Hashtbl.replace st.seen key t;
      t
  in
  let uniform u = once (`Uni u) (fun t -> broadcast t u) in
  match e with
  | Expr.Num x -> once (`Num (Int64.bits_of_float x)) (fun t -> constant t x)
  | Expr.Sym s -> (
    match Hashtbl.find_opt st.temps s with
    | Some (t, false) -> t
    | Some (u, true) -> uniform u
    | None -> (
      match Hashtbl.find_opt st.params s with
      | Some u -> uniform u
      | None -> invalid_arg ("Engine.compile: unbound symbol " ^ s)))
  | Expr.Access a -> once (`Field a) (fun t -> gather t (access_index st a))
  | _ -> assert false

let rec compile st (e : Expr.t) t =
  match e with
  | Expr.Num _ | Expr.Sym _ | Expr.Access _ -> emit st (copy t (leaf st e))
  | Expr.Coord d ->
    if d >= st.dim then invalid_arg "Engine.compile: coordinate beyond the kernel's axes";
    emit st (coord d ~dx:st.dx t)
  | Expr.Rand slot -> emit st (rand ~dim:st.dim slot t)
  | Expr.Diff _ -> invalid_arg "Engine.compile: Diff survived discretization"
  | Expr.Add xs | Expr.Mul xs ->
    let add = match e with Expr.Add _ -> true | _ -> false in
    operands st xs (function
      | [| a; b |] -> binary add t a b
      | [| a; b; c |] -> ternary add t a b c
      | ops -> fold add t ops)
  | Expr.Pow (x, n) -> operands st [ x ] (fun ops -> pow n t ops.(0))
  | Expr.Fun (((Expr.Fmin | Expr.Fmax) as f), ([ _; _ ] as xs)) ->
    operands st xs (fun ops -> minmax (f = Expr.Fmax) t ops.(0) ops.(1))
  | Expr.Fun (f, [ x ]) when f <> Expr.Fmin && f <> Expr.Fmax ->
    operands st [ x ] (fun ops -> unary f t ops.(0))
  | Expr.Fun _ -> invalid_arg "Engine.compile: bad function arity"
  | Expr.Select (cond, x, y) ->
    let le, p, q = match cond with Expr.Lt (p, q) -> (false, p, q) | Expr.Le (p, q) -> (true, p, q) in
    operands st [ p; q; x; y ] (fun ops -> select le t ops.(0) ops.(1) ops.(2) ops.(3))

(* Emit [step ops] after the steps that compute [xs] (into fresh vectors,
   given back after it, unless they are leaves). *)
and operands st xs step =
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
  emit st (step ops);
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
    let k = access_index st acc in
    operands st [ a.rhs ] (fun ops -> store k ops.(0));
    Hashtbl.filter_map_inplace
      (fun key t ->
        match key with
        | `Field (a : Fieldspec.access) when Fieldspec.equal a.field acc.field -> None
        | _ -> Some t)
      st.seen

(* ------------------------------------------------------------------ *)
(* Kernel programs and bindings                                        *)
(* ------------------------------------------------------------------ *)

(** The interpreter's closure tree for one program: the lowering's depth
    groups as flat arrays of steps, shared by every block, job and lane
    that sweeps the program.  [batch_from] is the first loop depth with no
    hoisted group inside it or below: the cells of those loops are
    gathered into batches, and every shallower loop runs its hoisted group
    as a one-cell batch. *)
type tree = {
  groups : (arena -> unit) array array;  (** depth 0 .. dim: the steps of each group *)
  batch_from : int;
  size : int;  (** floats of [v] the tree uses *)
  accesses : Fieldspec.access array;  (** the binding table's entries *)
}

(** Everything a kernel's sweeps need that depends on the kernel alone:
    its lowering for one loop order, its parameter names, the ghost width
    its sweep reads, the interpreter's closure tree (built by the first
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
  ghost_need : int;  (** ghost layers the sweep reads *)
  tree : tree Lazy.t;
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
  params : pslots;  (** [compiled.param_names] *)
  ints : int array array;  (** per tile, {!Jit.tile_ints} *)
  run_tile : lane:int -> int -> unit;
      (** one tile: one [@@noalloc] call of the program's entry with the
          field table, the parameters and the tile's int table *)
}

(** What an interpreter sweep of one binding reads besides the tree: each
    access's buffer, data (refilled every sweep, so it survives
    [Buffer.swap]) and element delta, and the parameter slots. *)
type tables = {
  bufs : Buffer.t array;
  datas : float array array;
  deltas : int array;
  slots : pslots;
}

(** A kernel bound to a block: the kernel's shared {!program} plus what
    depends on the block. *)
type bound = {
  kernel : Ir.Kernel.t;
  lowered : Ir.Lower.t;  (** the shared program's *)
  block : block;
  program : program;
  tables : tables Lazy.t;
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

(* The lowering's groups compiled once for every binding. *)
let build_tree ~dim (lowered : Ir.Lower.t) param_names =
  Obs.Metrics.count "vm.bind.trees" 1;
  let groups = Ir.Lower.groups lowered in
  let np = Array.length param_names in
  let st =
    {
      dim;
      params = Hashtbl.create 64;
      dx = np;
      temps = Hashtbl.create 64;
      accesses = Hashtbl.create 64;
      table = [];
      seen = Hashtbl.create 64;
      free = [];
      next = np + 1;
      steps = [];
    }
  in
  Array.iteri (fun i s -> Hashtbl.replace st.params s i) param_names;
  let steps =
    Array.mapi
      (fun d g ->
        st.steps <- [];
        Hashtbl.reset st.seen;
        List.iter (compile_assignment st ~hoisted:(d < dim)) g;
        Array.of_list (List.rev st.steps))
      groups
  in
  let batch_from = ref 0 in
  for d = 1 to dim - 1 do
    if groups.(d) <> [] then batch_from := d
  done;
  {
    groups = steps;
    batch_from = !batch_from;
    size = st.next;
    accesses = Array.of_list (List.rev st.table);
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
  {
    kernel;
    lowered;
    param_names;
    ghost_need = ghost_need kernel;
    tree = lazy (build_tree ~dim:kernel.Ir.Kernel.dim lowered param_names);
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

let make_tables (p : program) block =
  let t = Lazy.force p.tree in
  let bufs = Array.map (fun (a : Fieldspec.access) -> buffer block a.Fieldspec.field) t.accesses in
  {
    bufs;
    datas = Array.map (fun (b : Buffer.t) -> b.Buffer.data) bufs;
    deltas = Array.map2 Buffer.access_delta bufs t.accesses;
    slots = pslots p.param_names;
  }

(** Bind [kernel] to [block]: the kernel's shared {!program} plus the
    block.  Only the ghost check runs per binding; the interpreter's
    tables wait for the first sweep that needs them. *)
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
    tables = lazy (make_tables p block);
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

(* Sweep one tile on a lane's arena: [lo]/[hi] are inclusive loop bounds
   indexed by loop depth, following the lowering's loop_order.  The tile's
   cells are gathered in sweep order — whole innermost rows, unless a row
   alone exceeds [width] — into batches that run the body.  A depth above
   the tree's [batch_from] first runs the batch it has gathered, then sets
   its coordinate in lane 0 and runs its hoisted group as a one-cell
   batch. *)
let sweep_batches (b : bound) (t : tree) ar ~(lo : int array) ~(hi : int array) =
  let order = b.lowered.Ir.Lower.loop_order in
  let inner = Array.length order - 1 in
  let block = b.block in
  let stride = (snd (List.hd block.buffers)).Buffer.stride in
  let g = block.ghost and off = block.offset in
  let fastest = order.(inner) in
  let pos = Array.make (inner + 1) 0 in
  let count = ref 0 in
  let flush () =
    if !count > 0 then begin
      ar.n <- !count;
      Array.iter (fun step -> step ar) t.groups.(inner + 1);
      count := 0
    end
  in
  let row () =
    if !count + hi.(inner) - lo.(inner) + 1 > width then flush ();
    pos.(fastest) <- lo.(inner);
    let at = ref 0 in
    for ax = 0 to inner do
      at := !at + ((pos.(ax) + g) * stride.(ax))
    done;
    for x = lo.(inner) to hi.(inner) do
      if !count = width then flush ();
      let i = !count in
      pos.(fastest) <- x;
      ar.idx.(i) <- !at;
      for ax = 0 to inner do
        ar.co.((ax * width) + i) <- pos.(ax) + off.(ax)
      done;
      at := !at + stride.(fastest);
      count := i + 1
    done
  in
  let rec depth d =
    if d = inner then row ()
    else
      for i = lo.(d) to hi.(d) do
        let ax = order.(d) in
        pos.(ax) <- i;
        if d < t.batch_from then begin
          flush ();
          ar.co.(ax * width) <- i + off.(ax);
          ar.n <- 1;
          Array.iter (fun step -> step ar) t.groups.(d + 1)
        end;
        depth (d + 1)
      done
  in
  ar.n <- 1;
  Array.iter (fun step -> step ar) t.groups.(0);
  depth 0;
  flush ()

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

let resolve (b : bound) (compiled : Jit.compiled) entry ~region ~tile ~num_domains ~params =
  let tiles = schedule b ~region ~tile ~num_domains in
  let any_buf = snd (List.hd b.block.buffers) in
  let fields = Array.map (buffer b.block) compiled.Jit.fields in
  let datas = Array.map (fun (f : Buffer.t) -> f.Buffer.data) fields in
  let slots = pslots compiled.Jit.param_names in
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
      params = slots;
      ints;
      run_tile =
        (fun ~lane:_ ti -> Jit_cc.run entry datas slots.pvals (Array.unsafe_get ints ti));
    }
  in
  bind_params slots params;
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
  load_params r.params params;
  for i = 0 to Array.length r.ints - 1 do
    Jit.set_step r.compiled (Array.unsafe_get r.ints i) step
  done;
  Pool.run ?wrap ~domains:r.domains ~ntiles:(Array.length r.ints) r.run_tile

(* An interpreter sweep: refill the binding's data table and parameter
   slots, then run the tiles, each on its lane's arena with the constants,
   parameters and [dx] loaded afresh.  The preheader and per-depth hoisted
   groups are deterministic functions of the parameters and loop
   coordinates (they are recomputed at every outer-loop iteration even in
   a serial sweep), so recomputing them per tile changes nothing — which
   is exactly why tiled, pooled execution is bitwise identical to
   serial. *)
let run_interp ?wrap ~region ~num_domains ~tile ~step ~params (b : bound) =
  let tiles = schedule b ~region ~tile ~num_domains in
  (* The tree and the tables are forced here, on the coordinating domain:
     OCaml 5 raises when two domains force one lazy value, and every lane
     reads them. *)
  let tree = Lazy.force b.program.tree in
  let tab = Lazy.force b.tables in
  for k = 0 to Array.length tab.bufs - 1 do
    Array.unsafe_set tab.datas k (Array.unsafe_get tab.bufs k).Buffer.data
  done;
  load_params tab.slots params;
  Pool.run ?wrap ~domains:num_domains ~ntiles:(Array.length tiles) (fun ~lane:_ ti ->
      let t : Schedule.tile = tiles.(ti) in
      let ar = Domain.DLS.get arena_key in
      if Array.length ar.v < tree.size then ar.v <- Array.create_float tree.size;
      Array.blit tab.slots.pvals 0 ar.v 0 (Array.length tab.slots.pvals);
      ar.datas <- tab.datas;
      ar.deltas <- tab.deltas;
      ar.step <- step;
      ar.gd <- b.block.global_dims;
      sweep_batches b tree ar ~lo:t.Schedule.lo ~hi:t.Schedule.hi)

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
