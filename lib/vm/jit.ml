(** JIT: closure-compiled kernel backend.

    The interpreter ([Engine.compile]) walks a closure tree per expression
    node per cell; this module instead compiles each post-CSE IR
    instruction once into a flat three-address program over a single SSA
    slot array (the Petalisp kernel-compiler idiom: compile the innermost
    body once, reuse it under the outer loops).  Per instruction the
    compiler emits a tape segment — packed [op, dst, a, b] quads into an
    int array — and wraps it in an OCaml closure over the runtime state;
    per loop depth the segments are fused into one tape executed by a
    single dispatch loop, so a cell costs one indirect call per depth
    group instead of one per expression node.

    Slot-array layout (all compile-time indices):

    {v
      [0 .. nc)                 interned literal constants (0.0 and 1.0
                                always present: fold seeds, Pow/Rsqrt)
      [nc .. nc+np)             kernel parameters, Kernel.parameters order
      [nc+np .. nc+np+nt)       SSA temporaries, definition order
      [nc+np+nt .. n_slots)     expression scratch, reset per instruction
    v}

    Bitwise contract: the emitted program replays the interpreter's exact
    arithmetic — the same association for n-ary [Add]/[Mul] (2- and 3-ary
    chains, larger folds seeded from 0.0 / 1.0), the same [Pow] special
    cases, [Rsqrt] as [1.0 /. sqrt], NaN-aware [c_fmin]/[c_fmax].  The only
    intentional divergence is [Select]: the interpreter evaluates the taken
    branch lazily, the tape evaluates both branches before selecting.
    Expressions are pure (stores happen only at the assignment root and
    [Rand] is counter-based Philox), so the extra evaluation cannot perturb
    any observable value — the differential oracle holds the JIT to that.

    Compiled programs never capture buffer storage: [Buffer.swap] swaps the
    [data] fields under us between sweeps, so field operands are indices
    into a per-sweep [datas] table resolved by the engine.  A program
    depends only on (kernel structure, loop order, interior dims, ghost
    width) — the digest of that tuple ({!fingerprint}) is the memo key, so
    every block of a forest with equal dims shares one compilation.  Each
    engine binding computes its key once and passes it to {!get}.  The
    unit of compilation is a batch of programs ({!prepare}): a time step
    builds every program it will sweep in one compiler run, because the
    compiler's fixed start-up cost, not the kernels, dominates a run. *)

open Symbolic
open Field

(* ------------------------------------------------------------------ *)
(* Runtime state and tape execution                                    *)
(* ------------------------------------------------------------------ *)

type st = {
  slots : float array;            (** the SSA slot array *)
  datas : float array array;      (** field storage, by operand-table index *)
  mutable base : int;             (** linear index of the current cell *)
  mutable cx : int;               (** global cell coordinates *)
  mutable cy : int;
  mutable cz : int;
  step : int;                     (** time step, keys the Philox streams *)
  dx : float;
  gd0 : int;                      (** global dims, for the Philox cell id *)
  gd1 : int;
}

type instr = st -> unit

(* Opcodes.  A quad is [op; dst; a; b]; [Select] carries a second quad
   [op_arg; 0; then_slot; else_slot] that the dispatch loop consumes
   together with the first. *)
let op_add = 0
let op_mul = 1
let op_div = 2
let op_mov = 3
let op_load = 4   (* dst <- datas.(a).(base + b) *)
let op_store = 5  (* datas.(a).(base + b) <- slots.(dst) *)
let op_coord = 6  (* dst <- (float coord_a + 0.5) * dx *)
let op_rand = 7   (* dst <- philox (cell, step, slot a) *)
let op_sqrt = 8
let op_exp = 9
let op_log = 10
let op_sin = 11
let op_cos = 12
let op_tanh = 13
let op_fabs = 14
let op_fmin = 15
let op_fmax = 16
let op_sellt = 17
let op_selle = 18
let op_arg = 19

let exec_tape (tape : int array) (st : st) =
  let v = st.slots in
  let n = Array.length tape in
  let i = ref 0 in
  while !i < n do
    let o = !i in
    let op = Array.unsafe_get tape o in
    let dst = Array.unsafe_get tape (o + 1) in
    let a = Array.unsafe_get tape (o + 2) in
    let b = Array.unsafe_get tape (o + 3) in
    (match op with
    | 0 -> Array.unsafe_set v dst (Array.unsafe_get v a +. Array.unsafe_get v b)
    | 1 -> Array.unsafe_set v dst (Array.unsafe_get v a *. Array.unsafe_get v b)
    | 2 -> Array.unsafe_set v dst (Array.unsafe_get v a /. Array.unsafe_get v b)
    | 3 -> Array.unsafe_set v dst (Array.unsafe_get v a)
    | 4 ->
      Array.unsafe_set v dst
        (Array.unsafe_get (Array.unsafe_get st.datas a) (st.base + b))
    | 5 ->
      Array.unsafe_set (Array.unsafe_get st.datas a) (st.base + b) (Array.unsafe_get v dst)
    | 6 ->
      let g = match a with 0 -> st.cx | 1 -> st.cy | _ -> st.cz in
      Array.unsafe_set v dst ((float_of_int g +. 0.5) *. st.dx)
    | 7 ->
      let cell = ((st.cz * st.gd1) + st.cy) * st.gd0 + st.cx in
      Array.unsafe_set v dst (Philox.symmetric ~cell ~step:st.step ~slot:a)
    | 8 -> Array.unsafe_set v dst (sqrt (Array.unsafe_get v a))
    | 9 -> Array.unsafe_set v dst (exp (Array.unsafe_get v a))
    | 10 -> Array.unsafe_set v dst (log (Array.unsafe_get v a))
    | 11 -> Array.unsafe_set v dst (sin (Array.unsafe_get v a))
    | 12 -> Array.unsafe_set v dst (cos (Array.unsafe_get v a))
    | 13 -> Array.unsafe_set v dst (tanh (Array.unsafe_get v a))
    | 14 -> Array.unsafe_set v dst (abs_float (Array.unsafe_get v a))
    | 15 ->
      Array.unsafe_set v dst (Expr.c_fmin (Array.unsafe_get v a) (Array.unsafe_get v b))
    | 16 ->
      Array.unsafe_set v dst (Expr.c_fmax (Array.unsafe_get v a) (Array.unsafe_get v b))
    | 17 ->
      let t = Array.unsafe_get tape (o + 6) and f = Array.unsafe_get tape (o + 7) in
      Array.unsafe_set v dst
        (if Array.unsafe_get v a < Array.unsafe_get v b then Array.unsafe_get v t
         else Array.unsafe_get v f);
      i := o + 4 (* consume the op_arg quad *)
    | 18 ->
      let t = Array.unsafe_get tape (o + 6) and f = Array.unsafe_get tape (o + 7) in
      Array.unsafe_set v dst
        (if Array.unsafe_get v a <= Array.unsafe_get v b then Array.unsafe_get v t
         else Array.unsafe_get v f);
      i := o + 4
    | _ -> ());
    i := !i + 4
  done

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type emitbuf = { mutable rev : int list; mutable len : int }

let push4 b op dst a c =
  b.rev <- c :: a :: dst :: op :: b.rev;
  b.len <- b.len + 4

(* Compile-time state.  Compilation runs in two passes over the same
   emitter: pass 1 with dummy slot bases only to count interned constants
   and the scratch high-water mark, pass 2 with the final layout.  Both
   passes traverse identically, so ordinals agree. *)
type cs = {
  const_tbl : (int64, int) Hashtbl.t;  (* float bits -> ordinal *)
  mutable rev_consts : float list;
  mutable n_consts : int;
  const_base : int;
  param_base : int;
  temp_base : int;
  scratch_base : int;
  mutable scratch : int;
  mutable max_scratch : int;
  param_tbl : (string, int) Hashtbl.t;
  temp_tbl : (string, int) Hashtbl.t;
  mutable fields : Fieldspec.t list;   (* operand table, first-use order *)
  stride : int array;
  comp_stride : int;
}

let const_slot cs x =
  let bits = Int64.bits_of_float x in
  match Hashtbl.find_opt cs.const_tbl bits with
  | Some i -> cs.const_base + i
  | None ->
    let i = cs.n_consts in
    Hashtbl.replace cs.const_tbl bits i;
    cs.rev_consts <- x :: cs.rev_consts;
    cs.n_consts <- i + 1;
    cs.const_base + i

let fresh cs =
  let s = cs.scratch in
  cs.scratch <- s + 1;
  if cs.scratch - cs.scratch_base > cs.max_scratch then
    cs.max_scratch <- cs.scratch - cs.scratch_base;
  s

let field_index cs (f : Fieldspec.t) =
  let rec go i = function
    | [] ->
      cs.fields <- cs.fields @ [ f ];
      i
    | g :: rest -> if Fieldspec.equal f g then i else go (i + 1) rest
  in
  go 0 cs.fields

(* Element delta of a relative access — [Buffer.access_delta] recomputed
   from (dims, ghost) alone, valid for every buffer of a block because all
   of them share padded dims (the shared-dims invariant). *)
let delta_of cs (a : Fieldspec.access) =
  let comp =
    if a.Fieldspec.face_axis >= 0 then
      (a.Fieldspec.component * a.Fieldspec.field.Fieldspec.dim) + a.Fieldspec.face_axis
    else a.Fieldspec.component
  in
  let d = ref (comp * cs.comp_stride) in
  Array.iteri (fun ax o -> d := !d + (o * cs.stride.(ax))) a.Fieldspec.offsets;
  !d

(* Emit code for [e]; the value ends up in the returned slot.  [?dst]
   requests that a compound root write its result directly into that slot
   (used so a temporary's defining instruction needs no trailing move);
   leaves ignore it and return their fixed slot. *)
let rec emit ?dst cs b (e : Expr.t) : int =
  let into () = match dst with Some s -> s | None -> fresh cs in
  let bin op x y =
    let sx = emit cs b x in
    let sy = emit cs b y in
    let d = into () in
    push4 b op d sx sy;
    d
  in
  (* left fold [acc op x1 op x2 ...] starting from slot [acc] — the
     interpreter's reference-cell fold for n-ary Add/Mul, same association *)
  let chain op acc xs =
    let rec go acc = function
      | [] -> acc
      | [ x ] ->
        let s = emit cs b x in
        let d = into () in
        push4 b op d acc s;
        d
      | x :: rest ->
        let s = emit cs b x in
        let d = fresh cs in
        push4 b op d acc s;
        go d rest
    in
    go acc xs
  in
  match e with
  | Expr.Num x -> const_slot cs x
  | Expr.Sym s -> (
    match Hashtbl.find_opt cs.temp_tbl s with
    | Some i -> cs.temp_base + i
    | None -> (
      match Hashtbl.find_opt cs.param_tbl s with
      | Some i -> cs.param_base + i
      | None -> invalid_arg ("Jit.compile: unbound symbol " ^ s)))
  | Expr.Coord d ->
    let dst = into () in
    push4 b op_coord dst d 0;
    dst
  | Expr.Access a ->
    let bi = field_index cs a.Fieldspec.field in
    let delta = delta_of cs a in
    let dst = into () in
    push4 b op_load dst bi delta;
    dst
  | Expr.Rand slot ->
    let dst = into () in
    push4 b op_rand dst slot 0;
    dst
  | Expr.Diff _ -> invalid_arg "Jit.compile: Diff survived discretization"
  | Expr.Add [ x; y ] -> bin op_add x y
  | Expr.Add [ x; y; z ] ->
    let sx = emit cs b x in
    let sy = emit cs b y in
    let t = fresh cs in
    push4 b op_add t sx sy;
    let sz = emit cs b z in
    let d = into () in
    push4 b op_add d t sz;
    d
  | Expr.Add xs -> chain op_add (const_slot cs 0.) xs
  | Expr.Mul [ x; y ] -> bin op_mul x y
  | Expr.Mul [ x; y; z ] ->
    let sx = emit cs b x in
    let sy = emit cs b y in
    let t = fresh cs in
    push4 b op_mul t sx sy;
    let sz = emit cs b z in
    let d = into () in
    push4 b op_mul d t sz;
    d
  | Expr.Mul xs -> chain op_mul (const_slot cs 1.) xs
  | Expr.Pow (x, 2) ->
    let s = emit cs b x in
    let d = into () in
    push4 b op_mul d s s;
    d
  | Expr.Pow (x, -1) ->
    let s = emit cs b x in
    let one = const_slot cs 1. in
    let d = into () in
    push4 b op_div d one s;
    d
  | Expr.Pow (x, -2) ->
    let s = emit cs b x in
    let t = fresh cs in
    push4 b op_mul t s s;
    let one = const_slot cs 1. in
    let d = into () in
    push4 b op_div d one t;
    d
  | Expr.Pow (x, n) ->
    (* the interpreter's repeated multiply: p = 1*v*v*...; negative
       exponents finish with 1/p *)
    let s = emit cs b x in
    let one = const_slot cs 1. in
    let m = abs n in
    let p = ref one in
    for k = 1 to m do
      let d = if k = m && n >= 0 then into () else fresh cs in
      push4 b op_mul d !p s;
      p := d
    done;
    if n < 0 then begin
      let d = into () in
      push4 b op_div d one !p;
      d
    end
    else !p
  | Expr.Fun (Expr.Rsqrt, [ x ]) ->
    let s = emit cs b x in
    let t = fresh cs in
    push4 b op_sqrt t s 0;
    let one = const_slot cs 1. in
    let d = into () in
    push4 b op_div d one t;
    d
  | Expr.Fun (f, [ x ]) ->
    let op =
      match f with
      | Expr.Sqrt -> op_sqrt
      | Expr.Exp -> op_exp
      | Expr.Log -> op_log
      | Expr.Sin -> op_sin
      | Expr.Cos -> op_cos
      | Expr.Fabs -> op_fabs
      | Expr.Tanh -> op_tanh
      | Expr.Rsqrt -> assert false
      | Expr.Fmin | Expr.Fmax -> invalid_arg "Jit.compile: unary min/max"
    in
    let s = emit cs b x in
    let d = into () in
    push4 b op d s 0;
    d
  | Expr.Fun (Expr.Fmin, [ x; y ]) -> bin op_fmin x y
  | Expr.Fun (Expr.Fmax, [ x; y ]) -> bin op_fmax x y
  | Expr.Fun _ -> invalid_arg "Jit.compile: bad function arity"
  | Expr.Select (cond, t, f) ->
    let ca, cb, opc =
      match cond with
      | Expr.Lt (x, y) ->
        let sx = emit cs b x in
        (sx, emit cs b y, op_sellt)
      | Expr.Le (x, y) ->
        let sx = emit cs b x in
        (sx, emit cs b y, op_selle)
    in
    let st_ = emit cs b t in
    let sf = emit cs b f in
    let d = into () in
    push4 b opc d ca cb;
    push4 b op_arg 0 st_ sf;
    d

(* One IR instruction -> one tape segment appended to [b].  Scratch slots
   are recycled across instructions (temporaries and constants have
   dedicated slots, so nothing live survives in scratch). *)
let emit_instruction cs b (a : Assignment.t) =
  cs.scratch <- cs.scratch_base;
  match a.Assignment.lhs with
  | Assignment.Temp s ->
    let slot = cs.temp_base + Hashtbl.find cs.temp_tbl s in
    let v = emit ~dst:slot cs b a.Assignment.rhs in
    if v <> slot then push4 b op_mov slot v 0
  | Assignment.Store acc ->
    let v = emit cs b a.Assignment.rhs in
    let bi = field_index cs acc.Fieldspec.field in
    push4 b op_store v bi (delta_of cs acc)

let tape_of cs instrs =
  let b = { rev = []; len = 0 } in
  List.iter (emit_instruction cs b) instrs;
  Array.of_list (List.rev b.rev)

(* ------------------------------------------------------------------ *)
(* Native code generation (tape -> OCaml source)                       *)
(* ------------------------------------------------------------------ *)

(* The tape caps out near 3 ns per quad: every operation pays dispatch
   plus two slot-array loads and a store.  For the big generated kernels
   (P1 phi-full is ~1100 quads per cell of almost pure add/mul) that is
   not enough headroom over the closure-compiled interpreter, so the
   default tier retranslates each tape into OCaml source in which every
   slot write becomes a fresh [let]-bound local — the SSA form ocamlopt
   register-allocates — and [Jit_native] compiles and dynlinks it.  The
   translation is quad-by-quad off the *same* tape, so evaluation order
   and therefore bits are identical to the tape tier by construction.

   Group protocol: one function per loop-depth group over the same state
   the tape sees, [slots datas base cx cy cz step dx gd0 gd1].  Within a
   group, slot reads bind the array element once and writes stay in
   locals; temporaries written by a non-body group are flushed back to
   the slot array at group end (deeper groups read them from there).
   The body group flushes nothing: nothing runs after it. *)

let native_sig =
  "float array -> float array array -> int -> int -> int -> int -> int -> float -> \
   int -> int -> unit"

type native_group =
  float array ->
  float array array ->
  int -> int -> int -> int -> int -> float -> int -> int -> unit

let float_lit x =
  if Float.is_nan x then "nan"
  else if x = infinity then "infinity"
  else if x = neg_infinity then "neg_infinity"
  else Printf.sprintf "(%h)" x

(* Exact replicas of the runtime helpers the generated module cannot
   link against: NaN-aware min/max (Expr.c_fmin/c_fmax) and the
   Philox-4x32-10 generator (Philox.symmetric) — same integer ops, same
   bits. *)
let helpers_prelude = {|
let c_fmin a b =
  if Float.is_nan a then b else if Float.is_nan b then a else if a <= b then a else b
let c_fmax a b =
  if Float.is_nan a then b else if Float.is_nan b then a else if a >= b then a else b
|}

let philox_prelude = {|
let mask32 = 0xFFFFFFFF
let mulhilo m x =
  let p = Int64.mul m (Int64.of_int (x land mask32)) in
  (Int64.to_int (Int64.shift_right_logical p 32) land mask32, Int64.to_int p land mask32)
let philox_symmetric cell step slot =
  let rec go n c0 c1 c2 c3 k0 k1 =
    if n = 0 then (c0, c1)
    else
      let hi0, lo0 = mulhilo 0xD2511F53L c0 in
      let hi1, lo1 = mulhilo 0xCD9E8D57L c2 in
      go (n - 1)
        (hi1 lxor c1 lxor k0) lo1 (hi0 lxor c3 lxor k1) lo0
        ((k0 + 0x9E3779B9) land mask32) ((k1 + 0xBB67AE85) land mask32)
  in
  let c0, c1 =
    go 10 (cell land mask32) ((cell lsr 32) land mask32) (step land mask32)
      (slot land mask32) 0x5eed 0xC0FFEE
  in
  let bits = ((c0 land mask32) lsl 21) lor ((c1 land mask32) lsr 11) in
  (2. *. (float_of_int bits /. 9007199254740992.0)) -. 1.
|}

(* One group function.  [cur] maps slot -> OCaml expression currently
   holding its value (a local name, or a literal for interned consts);
   [written] collects temp slots to flush on non-body groups. *)
let native_group_source buf ~name ~flush ~nc ~temp_base ~scratch_base ~template tape =
  let cur : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let written : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let dat : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let fresh =
    let k = ref 0 in
    fun () ->
      incr k;
      Printf.sprintf "v%d" !k
  in
  let line fmt = Printf.ksprintf (fun s -> Stdlib.Buffer.add_string buf ("  " ^ s ^ "\n")) fmt in
  Stdlib.Buffer.add_string buf
    (Printf.sprintf "let %s slots datas base cx cy cz step dx gd0 gd1 =\n" name);
  line "ignore slots; ignore datas; ignore base; ignore cx; ignore cy; ignore cz;";
  line "ignore step; ignore dx; ignore gd0; ignore gd1;";
  let read k =
    if k < nc then float_lit template.(k)
    else
      match Hashtbl.find_opt cur k with
      | Some e -> e
      | None ->
        let v = fresh () in
        line "let %s = Array.unsafe_get slots %d in" v k;
        Hashtbl.replace cur k v;
        v
  in
  let data bi =
    match Hashtbl.find_opt dat bi with
    | Some d -> d
    | None ->
      let d = Printf.sprintf "d%d" bi in
      line "let %s = Array.unsafe_get datas %d in" d bi;
      Hashtbl.replace dat bi d;
      d
  in
  let write k e =
    let v = fresh () in
    line "let %s = %s in" v e;
    Hashtbl.replace cur k v;
    if k >= temp_base && k < scratch_base then Hashtbl.replace written k ()
  in
  let n = Array.length tape in
  let i = ref 0 in
  while !i < n do
    let o = !i in
    let op = tape.(o) and dst = tape.(o + 1) and a = tape.(o + 2) and b = tape.(o + 3) in
    (match op with
    | 0 ->
      let x = read a in
      let y = read b in
      write dst (Printf.sprintf "%s +. %s" x y)
    | 1 ->
      let x = read a in
      let y = read b in
      write dst (Printf.sprintf "%s *. %s" x y)
    | 2 ->
      let x = read a in
      let y = read b in
      write dst (Printf.sprintf "%s /. %s" x y)
    | 3 ->
      (* mov: alias — locals are immutable, the expression stays valid *)
      let x = read a in
      Hashtbl.replace cur dst x;
      if dst >= temp_base && dst < scratch_base then Hashtbl.replace written dst ()
    | 4 -> write dst (Printf.sprintf "Array.unsafe_get %s (base + (%d))" (data a) b)
    | 5 ->
      let v = read dst in
      line "Array.unsafe_set %s (base + (%d)) %s;" (data a) b v
    | 6 ->
      let c = match a with 0 -> "cx" | 1 -> "cy" | _ -> "cz" in
      write dst (Printf.sprintf "(float_of_int %s +. 0.5) *. dx" c)
    | 7 ->
      write dst
        (Printf.sprintf "philox_symmetric ((((cz * gd1) + cy) * gd0) + cx) step %d" a)
    | 8 -> write dst (Printf.sprintf "sqrt %s" (read a))
    | 9 -> write dst (Printf.sprintf "exp %s" (read a))
    | 10 -> write dst (Printf.sprintf "log %s" (read a))
    | 11 -> write dst (Printf.sprintf "sin %s" (read a))
    | 12 -> write dst (Printf.sprintf "cos %s" (read a))
    | 13 -> write dst (Printf.sprintf "tanh %s" (read a))
    | 14 -> write dst (Printf.sprintf "abs_float %s" (read a))
    | 15 ->
      let x = read a in
      let y = read b in
      write dst (Printf.sprintf "c_fmin %s %s" x y)
    | 16 ->
      let x = read a in
      let y = read b in
      write dst (Printf.sprintf "c_fmax %s %s" x y)
    | 17 | 18 ->
      let x = read a in
      let y = read b in
      let t = read tape.(o + 6) in
      let f = read tape.(o + 7) in
      let cmp = if op = 17 then "<" else "<=" in
      write dst (Printf.sprintf "if %s %s %s then %s else %s" x cmp y t f);
      i := o + 4
    | _ -> ());
    i := !i + 4
  done;
  if flush then
    Hashtbl.iter
      (fun k () -> line "Array.unsafe_set slots %d %s;" k (Hashtbl.find cur k))
      written;
  line "()";
  Stdlib.Buffer.add_string buf "\n"

(* ------------------------------------------------------------------ *)
(* Compiled programs                                                   *)
(* ------------------------------------------------------------------ *)

type compiled = {
  fingerprint : Digest.t;
  dim : int;
  loop_order : int array;
  fields : Fieldspec.t array;  (** operand table; index = [datas] index *)
  param_names : string array;
  param_base : int;
  n_slots : int;
  template : float array;      (** constants preloaded, rest zero *)
  groups : instr array;        (** depth-indexed: [groups.(d)] at depth d,
                                   [groups.(dim)] is the per-cell body *)
  n_ops : int;                 (** total tape quads, for introspection *)
  stride : int array;
  ghost : int;
  native : bool;               (** groups are dynlinked machine code *)
  native_note : string;        (** "native", or why the tape tier is in use *)
}

(** A program to compile: its memo key ({!fingerprint}) and what the key
    digests. *)
type request = {
  key : Digest.t;
  dims : int array;
  ghost : int;
  kernel : Ir.Kernel.t;
  lowered : Ir.Lower.t;
}

let wrap_native (f : native_group) : instr =
 fun st -> f st.slots st.datas st.base st.cx st.cy st.cz st.step st.dx st.gd0 st.gd1

(* A program on the tape tier, with the slot layout its native source
   needs. *)
type laid_out = { prog : compiled; tapes : int array array; temp_base : int; scratch_base : int }

let lay_out (r : request) =
  let kernel = r.kernel and ghost = r.ghost in
  let dim = kernel.Ir.Kernel.dim in
  let padded = Array.map (fun n -> n + (2 * ghost)) r.dims in
  let stride = Array.make dim 1 in
  for d = 1 to dim - 1 do
    stride.(d) <- stride.(d - 1) * padded.(d - 1)
  done;
  let comp_stride = stride.(dim - 1) * padded.(dim - 1) in
  let temps = Assignment.defined_temps kernel.Ir.Kernel.body in
  let params = Ir.Kernel.parameters kernel in
  let np = List.length params and nt = List.length temps in
  let groups_src = Ir.Lower.groups r.lowered in
  let make_cs ~const_base ~param_base ~temp_base ~scratch_base =
    let param_tbl = Hashtbl.create 16 and temp_tbl = Hashtbl.create 64 in
    List.iteri (fun i s -> Hashtbl.replace param_tbl s i) params;
    List.iteri (fun i s -> Hashtbl.replace temp_tbl s i) temps;
    {
      const_tbl = Hashtbl.create 32;
      rev_consts = [];
      n_consts = 0;
      const_base;
      param_base;
      temp_base;
      scratch_base;
      scratch = scratch_base;
      max_scratch = 0;
      param_tbl;
      temp_tbl;
      fields = [];
      stride;
      comp_stride;
    }
  in
  (* pass 1: layout discovery only *)
  let cs1 = make_cs ~const_base:0 ~param_base:0 ~temp_base:0 ~scratch_base:0 in
  Array.iter (fun instrs -> ignore (tape_of cs1 instrs)) groups_src;
  let nc = cs1.n_consts in
  let cs = make_cs ~const_base:0 ~param_base:nc ~temp_base:(nc + np)
      ~scratch_base:(nc + np + nt)
  in
  let tapes = Array.map (tape_of cs) groups_src in
  assert (cs.n_consts = nc);
  let n_slots = max 1 (nc + np + nt + cs.max_scratch) in
  let template = Array.make n_slots 0. in
  List.iteri (fun i x -> template.(nc - 1 - i) <- x) cs.rev_consts;
  let prog =
    {
      fingerprint = r.key;
      dim;
      loop_order = r.lowered.Ir.Lower.loop_order;
      fields = Array.of_list cs.fields;
      param_names = Array.of_list params;
      param_base = nc;
      n_slots;
      template;
      groups = Array.map (fun tape -> fun st -> exec_tape tape st) tapes;
      n_ops = Array.fold_left (fun acc t -> acc + (Array.length t / 4)) 0 tapes;
      stride;
      ghost;
      native = false;
      native_note = "";
    }
  in
  { prog; tapes; temp_base = nc + np; scratch_base = nc + np + nt }

(** The generated module of one compiler run: helper preludes, one
    submodule per program with one function per depth group, and an
    initializer that hands every program's closures to the host in a
    single raise through [Dynlink] (see [Jit_native]).  Programs share
    the preludes and nothing else, so a program's functions are the same
    text whichever run compiles it. *)
let native_source programs =
  let buf = Stdlib.Buffer.create 65536 in
  let add = Stdlib.Buffer.add_string buf in
  add "(* generated by Vm.Jit — compiled at runtime, never stored *)\n";
  add (Printf.sprintf "exception Handoff of (%s) array array\n" native_sig);
  add helpers_prelude;
  let has_rand tape =
    let n = Array.length tape in
    let rec go i = i < n && (tape.(i) = op_rand || go (i + 4)) in
    go 0
  in
  if List.exists (fun p -> Array.exists has_rand p.tapes) programs then add philox_prelude;
  let handoff =
    List.mapi
      (fun i p ->
        let m = Printf.sprintf "P%d" i in
        add (Printf.sprintf "module %s = struct\n" m);
        let body = Array.length p.tapes - 1 in
        Array.iteri
          (fun g tape ->
            native_group_source buf ~name:(Printf.sprintf "g%d" g) ~flush:(g < body)
              ~nc:p.prog.param_base ~temp_base:p.temp_base ~scratch_base:p.scratch_base
              ~template:p.prog.template tape)
          p.tapes;
        add "end\n";
        Printf.sprintf "[| %s |]"
          (String.concat "; " (List.init (Array.length p.tapes) (Printf.sprintf "%s.g%d" m))))
      programs
  in
  add (Printf.sprintf "let () = raise (Handoff [| %s |])\n" (String.concat "; " handoff));
  Stdlib.Buffer.contents buf

(* Compile [requests] in one compiler run: the native tier retranslates
   every program's tapes into one module; if that run fails, every program
   keeps its portable tape closures and notes why. *)
let compile_all requests =
  let programs = List.map lay_out requests in
  let native =
    if not (Jit_native.available ()) then Error "native tier unavailable"
    else
      match
        Jit_native.load ~modname:(Jit_native.fresh_modname ()) ~source:(native_source programs)
      with
      | Ok payload ->
        let fns : native_group array list = Array.to_list (Obj.magic payload) in
        if
          List.compare_lengths fns programs = 0
          && List.for_all2 (fun f p -> Array.length f = Array.length p.tapes) fns programs
        then Ok fns
        else Error "native tier: group count mismatch"
      | Error reason -> Error reason
  in
  match native with
  | Ok fns ->
    List.map2
      (fun f p ->
        { p.prog with groups = Array.map wrap_native f; native = true; native_note = "native" })
      fns programs
  | Error note -> List.map (fun p -> { p.prog with native_note = note }) programs

(* ------------------------------------------------------------------ *)
(* Memo table                                                          *)
(* ------------------------------------------------------------------ *)

(* Structural fingerprint over everything the emitted code closes over:
   the full kernel body plus loop order, interior dims and ghost width.
   The body is digested via [Marshal] (the [Snapshot.fingerprint_of_params]
   idiom) rather than [Hashtbl.hash_param]: the hash traversal budget
   truncates large kernels, and model variants that differ only deep in
   the expression tree — the zoo's coefficient variants, for one — would
   collide and hand a program compiled for a *different* model back to
   the engine (bitwise divergence, caught by the oracle-8 zoo leg).
   Marshalling and digesting the body costs as much as a small block's
   sweep, so the engine computes it once per binding ([Engine.jit_key])
   and hands the result to [get]. *)
let fingerprint ~dims ~ghost (kernel : Ir.Kernel.t) (lowered : Ir.Lower.t) =
  Digest.string
    (Marshal.to_string
       ( kernel.Ir.Kernel.name,
         kernel.Ir.Kernel.dim,
         kernel.Ir.Kernel.ghost,
         kernel.Ir.Kernel.body,
         Array.to_list lowered.Ir.Lower.loop_order,
         Array.to_list dims,
         ghost )
       [])

let cache : (Digest.t, compiled) Hashtbl.t = Hashtbl.create 16
let hits = ref 0
let misses = ref 0

let cache_stats () = (!hits, !misses)

let clear_cache () =
  Hashtbl.reset cache;
  hits := 0;
  misses := 0

(** Compile every program of [requests] that the memo table lacks in one
    compiler run, and enter them all: the programs a time step's plan is
    about to sweep ([Core.Timestep]), or the one program a sweep missed
    ({!get}).  Each program compiled is one miss.  With the sink on, one
    [vm.jit.compile] span, carrying the program count, brackets the run,
    and [vm.jit.compile_ns] records its duration. *)
let prepare requests =
  match List.filter (fun r -> not (Hashtbl.mem cache r.key)) requests with
  | [] -> ()
  | fresh ->
    let n = List.length fresh in
    misses := !misses + n;
    Obs.Metrics.count "jit.miss" n;
    let build () = compile_all fresh in
    let programs =
      if not (Obs.Sink.enabled ()) then build ()
      else begin
        let programs, ns =
          Obs.Clock.time_ns (fun () ->
              Obs.Span.with_ ~cat:"vm" ~args:[ ("programs", float_of_int n) ] "vm.jit.compile"
                build)
        in
        Obs.Metrics.observe (Obs.Metrics.histogram "vm.jit.compile_ns") ns;
        programs
      end
    in
    List.iter (fun c -> Hashtbl.replace cache c.fingerprint c) programs

(** The compiled program for [kernel] on a block of [dims]/[ghost], looked
    up under [key], which must be [fingerprint ~dims ~ghost kernel lowered]
    (the caller computes it once and reuses it, so a lookup costs one
    digest hash, not a pass over the body).  A miss compiles the program
    alone through {!prepare}.  The engine looks up once per sweep, so
    [cache_stats] misses count programs compiled and hits count sweeps that
    found theirs, compiled by an earlier sweep or by a plan (the
    zero-recompile-after-warmup gate watches the miss count).  The
    [jit.hit]/[jit.miss] counters mirror them when the sink is on. *)
let get key ~dims ~ghost (kernel : Ir.Kernel.t) (lowered : Ir.Lower.t) =
  match Hashtbl.find_opt cache key with
  | Some c ->
    incr hits;
    Obs.Metrics.count "jit.hit" 1;
    c
  | None ->
    prepare [ { key; dims; ghost; kernel; lowered } ];
    Hashtbl.find cache key

(* ------------------------------------------------------------------ *)
(* Tile execution                                                      *)
(* ------------------------------------------------------------------ *)

let run_group (g : instr) st = g st

let base_index (c : compiled) coords =
  let idx = ref 0 in
  Array.iteri (fun d x -> idx := !idx + ((x + c.ghost) * c.stride.(d))) coords;
  !idx

(* The sweep skeletons mirror Engine.sweep_tile_3d/2d instruction for
   instruction: same loop order, same coordinate updates, same running
   base index.  [lo]/[hi] are inclusive loop-depth bounds. *)
let sweep3 (c : compiled) (st : st) ~offset ~(lo : int array) ~(hi : int array) =
  let a0 = c.loop_order.(0) and a1 = c.loop_order.(1) and a2 = c.loop_order.(2) in
  let g1 = c.groups.(1) and g2 = c.groups.(2) and body = c.groups.(3) in
  let stride2 = c.stride.(a2) in
  let coords = Array.make 3 0 in
  let set_coord ax v =
    coords.(ax) <- v;
    let g = v + offset.(ax) in
    match ax with 0 -> st.cx <- g | 1 -> st.cy <- g | _ -> st.cz <- g
  in
  for i0 = lo.(0) to hi.(0) do
    set_coord a0 i0;
    run_group g1 st;
    for i1 = lo.(1) to hi.(1) do
      set_coord a1 i1;
      run_group g2 st;
      set_coord a2 lo.(2);
      st.base <- base_index c coords;
      for i2 = lo.(2) to hi.(2) do
        set_coord a2 i2;
        run_group body st;
        st.base <- st.base + stride2
      done
    done
  done

let sweep2 (c : compiled) (st : st) ~offset ~(lo : int array) ~(hi : int array) =
  let a0 = c.loop_order.(0) and a1 = c.loop_order.(1) in
  let g1 = c.groups.(1) and body = c.groups.(2) in
  let stride1 = c.stride.(a1) in
  let coords = Array.make 2 0 in
  let set_coord ax v =
    coords.(ax) <- v;
    let g = v + offset.(ax) in
    match ax with 0 -> st.cx <- g | _ -> st.cy <- g
  in
  for i0 = lo.(0) to hi.(0) do
    set_coord a0 i0;
    run_group g1 st;
    set_coord a1 lo.(1);
    st.base <- base_index c coords;
    for i1 = lo.(1) to hi.(1) do
      set_coord a1 i1;
      run_group body st;
      st.base <- st.base + stride1
    done
  done

(** Execute one tile of the sweep.  [datas] is the per-sweep field storage
    table aligned with [compiled.fields] (resolved by the engine after any
    buffer swaps); [pvals] the parameter values in [param_names] order.
    Every tile runs on a fresh slot array, so pooled tiles share nothing
    but the (disjointly written) field storage. *)
let exec_tile (c : compiled) ~(datas : float array array) ~(pvals : float array) ~dx
    ~(offset : int array) ~(global_dims : int array) ~step ~lo ~hi =
  let slots = Array.copy c.template in
  Array.iteri (fun i v -> slots.(c.param_base + i) <- v) pvals;
  let st =
    {
      slots;
      datas;
      base = 0;
      cx = 0;
      cy = 0;
      cz = 0;
      step;
      dx;
      gd0 = global_dims.(0);
      gd1 = (if Array.length global_dims > 1 then global_dims.(1) else 1);
    }
  in
  run_group c.groups.(0) st;
  if c.dim = 3 then sweep3 c st ~offset ~lo ~hi else sweep2 c st ~offset ~lo ~hi
