(** Scalar C expression printing, shared by the C, SIMD and CUDA backends.

    Field accesses are rendered against a single running base index [_b]
    (all fields of a kernel share dims and ghost width, paper §3.4's
    base-pointer + linear-index form): [f[_b + o0 + o1*_s1 + c*_cs]].
    Small integer powers go through static-inline helpers so operands are
    evaluated once.

    The printed code follows the interpreter's evaluation contract
    ([Vm.Engine.compile]) operation for operation, so a build without
    floating-point contraction or fast-math computes the interpreter's bits:
    two- and three-term sums and products associate left, longer (or
    shorter) sums start from [0.0] — which turns a leading [-0.0] into
    [+0.0], as the interpreter's fold does — integer powers are the
    interpreter's left-to-right multiply chain, [Rsqrt] is [1.0/sqrt], and
    [fmin]/[fmax] are the NaN- and signed-zero-exact [pf_fmin]/[pf_fmax] of
    [Expr.c_fmin]/[c_fmax], and a store writes a NaN as
    [Expr.canonical_nan] ([pf_canon]).  The last rule is what makes NaN
    results reproducible at all: where two different NaNs meet in an
    addition or a multiplication, IEEE 754 leaves open which one survives,
    and gcc commutes such operands (and folds [-1.0*x] to [-x], and drops
    [fabs] of a square) without regard to a NaN's sign — so only a value's
    NaN-ness is reproducible, and that is all a store keeps. *)

open Symbolic

(** Approximate-operation policy: the user may mark divisions and (inverse)
    square roots for fast approximate evaluation (paper §3.5). *)
type approx = { fast_div : bool; fast_rsqrt : bool }

let exact = { fast_div = false; fast_rsqrt = false }

type dialect = C | Cuda

let ident s =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then c else '_') s

(* Exact for every double: integers print as [%.1f], other finite values
   round-trip through [%.17g], infinities use math.h's [INFINITY], and a
   NaN is rebuilt from its bits so its payload survives. *)
let float_lit x =
  if Float.is_nan x then Printf.sprintf "pf_f64(0x%LxULL)" (Int64.bits_of_float x)
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if x = Float.infinity then "INFINITY"
  else if x = Float.neg_infinity then "(-INFINITY)"
  else Printf.sprintf "%.17g" x

let access_index (a : Fieldspec.access) =
  let comp =
    if a.face_axis >= 0 then (a.component * a.field.Fieldspec.dim) + a.face_axis
    else a.component
  in
  let b = Buffer.create 32 in
  Buffer.add_string b "_b";
  Array.iteri
    (fun d o ->
      if o <> 0 then
        if d = 0 then Buffer.add_string b (Printf.sprintf " %s %d" (if o > 0 then "+" else "-") (abs o))
        else
          Buffer.add_string b
            (Printf.sprintf " %s %d*_s%d" (if o > 0 then "+" else "-") (abs o) d))
    a.offsets;
  if comp <> 0 then Buffer.add_string b (Printf.sprintf " + %d*_cs" comp);
  Buffer.contents b

let access_ref (a : Fieldspec.access) =
  Printf.sprintf "%s[%s]" (ident a.field.Fieldspec.name) (access_index a)

(* Coordinate value: physical position of the cell center.  The loop
   counters _i0.. are block-local; _off_d is the block's global offset. *)
let coord_ref d = Printf.sprintf "((double)(_i%d + _off_%d) + 0.5) * dx" d d

(** Whether any right-hand side contains a node satisfying [p]. *)
let body_has p (body : Field.Assignment.t list) =
  List.exists
    (fun (a : Field.Assignment.t) -> Expr.fold (fun u n -> u || p n) false a.Field.Assignment.rhs)
    body

let rec emit ?(dialect = C) ?(approx = exact) e =
  let go e = emit ~dialect ~approx e in
  let paren s = "(" ^ s ^ ")" in
  match e with
  | Expr.Num x -> float_lit x
  | Expr.Sym s -> ident s
  | Expr.Coord d -> paren (coord_ref d)
  | Expr.Access a -> access_ref a
  | Expr.Rand slot -> Printf.sprintf "pf_philox_sym(_cell, _step, %d)" slot
  | Expr.Diff _ -> invalid_arg "Cexpr.emit: Diff survived discretization"
  | Expr.Add ([ _; _ ] as xs) | Expr.Add ([ _; _; _ ] as xs) ->
    paren (String.concat " + " (List.map go xs))
  | Expr.Add xs -> paren (String.concat " + " ("0.0" :: List.map go xs))
  | Expr.Mul [] -> "1.0"
  | Expr.Mul xs -> paren (String.concat "*" (List.map go xs))
  | Expr.Pow (b, n) -> (
    let base = go b in
    let chain m =
      if m >= 2 && m <= 4 then Printf.sprintf "pf_pow%d(%s)" m base
      else Printf.sprintf "pf_powi(%s, %d)" base m
    in
    match n with
    | -1 -> emit_div ~dialect ~approx "1.0" base
    | n when n < 0 -> emit_div ~dialect ~approx "1.0" (chain (-n))
    | n -> chain n)
  | Expr.Fun (f, xs) -> (
    let args = List.map go xs in
    match (f, args) with
    | Expr.Sqrt, [ x ] -> Printf.sprintf "sqrt(%s)" x
    | Expr.Rsqrt, [ x ] ->
      if approx.fast_rsqrt && dialect = Cuda then Printf.sprintf "(double)__frsqrt_rn((float)(%s))" x
      else emit_div ~dialect ~approx "1.0" (Printf.sprintf "sqrt(%s)" x)
    | Expr.Exp, [ x ] -> Printf.sprintf "exp(%s)" x
    | Expr.Log, [ x ] -> Printf.sprintf "log(%s)" x
    | Expr.Sin, [ x ] -> Printf.sprintf "sin(%s)" x
    | Expr.Cos, [ x ] -> Printf.sprintf "cos(%s)" x
    | Expr.Tanh, [ x ] -> Printf.sprintf "tanh(%s)" x
    | Expr.Fabs, [ x ] -> Printf.sprintf "fabs(%s)" x
    | Expr.Fmin, [ x; y ] -> Printf.sprintf "pf_fmin(%s, %s)" x y
    | Expr.Fmax, [ x; y ] -> Printf.sprintf "pf_fmax(%s, %s)" x y
    | _ -> invalid_arg "Cexpr.emit: bad function arity")
  | Expr.Select (c, t, f) ->
    let cond =
      match c with
      | Expr.Lt (a, b) -> Printf.sprintf "%s < %s" (go a) (go b)
      | Expr.Le (a, b) -> Printf.sprintf "%s <= %s" (go a) (go b)
    in
    paren (Printf.sprintf "%s ? %s : %s" cond (go t) (go f))

and emit_div ~dialect ~approx num den =
  if approx.fast_div && dialect = Cuda then
    Printf.sprintf "(double)__fdividef((float)(%s), (float)(%s))" num den
  else Printf.sprintf "(%s/%s)" num den

(** The scalar helpers both C dialects share, after [qual] (CUDA's
    [__device__]): powers as the interpreter's multiply chain, C99 min/max
    with the interpreter's signed-zero choice, a double from its bits, and
    the Philox-4x32-10 generator keyed on (cell index, time step).  They
    are [pf_prelude.h] without its includes, [qual] put before each
    [static inline]; the VM's C stub includes the same file. *)
let helpers ~qual =
  let includes = "#include <math.h>\n#include <stdint.h>\n\n" in
  if not (String.starts_with ~prefix:includes Prelude_h.text) then
    invalid_arg "Cexpr.helpers: pf_prelude.h must start with its two includes";
  let body = String.sub Prelude_h.text (String.length includes)
      (String.length Prelude_h.text - String.length includes) in
  String.concat "\n"
    (List.map
       (fun line -> if String.starts_with ~prefix:"static inline" line then qual ^ line else line)
       (String.split_on_char '\n' body))

(** Shared C helper prelude: [pf_prelude.h] as it is. *)
let prelude = Prelude_h.text
