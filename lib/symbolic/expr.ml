(** Symbolic expressions.

    The single expression type used on every abstraction layer of the
    pipeline.  The continuous layers (energy functional, PDE) use [Diff] and
    [Coord] nodes; the discretization layer eliminates all [Diff] nodes and
    leaves only field [Access]es with integer offsets, which the IR layer and
    the backends consume.

    Expressions are kept in a normal form by the smart constructors:
    - [Add] is n-ary, flattened, like terms combined, numeric head first;
    - [Mul] is n-ary, flattened, like bases combined into integer powers,
      numeric coefficient first;
    - [Pow] has an integer exponent that is never 0 or 1; division is
      [Pow (x, -1)] inside a [Mul].

    This mirrors sympy's automatic normalization, which the paper's pipeline
    relies on for its "simplify individually, then CSE globally" workflow. *)

type fn =
  | Sqrt
  | Rsqrt  (** reciprocal square root; kept first-class because backends map
               it to approximate intrinsics ([_mm512_rsqrt14_pd], [frsqrt]) *)
  | Exp
  | Log
  | Sin
  | Cos
  | Tanh
  | Fabs
  | Fmin
  | Fmax

type cond =
  | Lt of t * t  (** strictly less *)
  | Le of t * t  (** less or equal *)

and t =
  | Num of float
  | Sym of string
  | Coord of int                 (** continuous spatial coordinate, axis 0..dim-1 *)
  | Access of Fieldspec.access   (** discrete field access *)
  | Diff of t * int              (** continuous spatial derivative along an axis *)
  | Rand of int                  (** uniform(-1,1) random value, stream slot *)
  | Add of t list
  | Mul of t list
  | Pow of t * int
  | Fun of fn * t list
  | Select of cond * t * t       (** piecewise with mandatory fallback; maps to
                                     SIMD blend / CUDA ternary *)

let compare = (Stdlib.compare : t -> t -> int)
let equal a b = compare a b = 0

let zero = Num 0.
let one = Num 1.
let num x = Num x
let int_num i = Num (float_of_int i)
let sym s = Sym s
let coord d = Coord d
let access a = Access a
let field ?component ?(offsets = [||]) f =
  let offsets = if Array.length offsets = 0 then Array.make f.Fieldspec.dim 0 else offsets in
  Access (Fieldspec.access ?component f offsets)
let rand slot = Rand slot

let is_num = function Num _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

(* Split an addend into (coefficient, symbolic rest).  The rest is [one] for
   pure numbers so that constants group together. *)
let as_term = function
  | Num c -> (c, one)
  | Mul (Num c :: fs) ->
    (c, match fs with [ f ] -> f | fs -> Mul fs)
  | e -> (1., e)

(* Split a factor into (base, integer exponent). *)
let as_factor = function Pow (b, n) -> (b, n) | e -> (e, 1)

let rec add xs =
  let rec flatten acc = function
    | [] -> acc
    | Add ys :: rest -> flatten (flatten acc ys) rest
    | x :: rest -> flatten (x :: acc) rest
  in
  let terms = List.map as_term (flatten [] xs) in
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) terms in
  let rec combine = function
    | (c1, r1) :: (c2, r2) :: rest when equal r1 r2 -> combine ((c1 +. c2, r1) :: rest)
    | t :: rest -> t :: combine rest
    | [] -> []
  in
  let combined = List.filter (fun (c, _) -> c <> 0.) (combine sorted) in
  let rebuild (c, r) =
    if equal r one then Num c
    else if c = 1. then r
    else
      match r with
      | Mul fs -> Mul (Num c :: fs)
      | r -> Mul [ Num c; r ]
  in
  (* numeric constant (rest = one) sorts first because Num is the first
     constructor; keep it at the head of the rebuilt list *)
  match List.map rebuild combined with
  | [] -> zero
  | [ x ] -> x
  | xs -> Add xs

and mul xs =
  let rec flatten acc = function
    | [] -> acc
    | Mul ys :: rest -> flatten (flatten acc ys) rest
    | x :: rest -> flatten (x :: acc) rest
  in
  let factors = flatten [] xs in
  if List.exists (function Num 0. -> true | _ -> false) factors then zero
  else
    let coeff = ref 1. in
    let symbolic =
      List.filter_map
        (fun f ->
          match as_factor f with
          | Num c, n ->
            coeff := !coeff *. (c ** float_of_int n);
            None
          | b, n -> Some (b, n))
        factors
    in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) symbolic in
    let rec combine = function
      | (b1, n1) :: (b2, n2) :: rest when equal b1 b2 -> combine ((b1, n1 + n2) :: rest)
      | f :: rest -> f :: combine rest
      | [] -> []
    in
    let rebuilt =
      List.filter_map
        (fun (b, n) -> if n = 0 then None else Some (pow b n))
        (combine sorted)
    in
    (* powers may have folded to numbers or re-expanded; re-extract numerics *)
    let rebuilt =
      List.filter_map
        (fun f ->
          match f with
          | Num c ->
            coeff := !coeff *. c;
            None
          | f -> Some f)
        rebuilt
    in
    if !coeff = 0. then zero
    else
      match rebuilt with
      | [] -> Num !coeff
      | [ x ] when !coeff = 1. -> x
      | xs -> if !coeff = 1. then Mul xs else Mul (Num !coeff :: xs)

and pow b n =
  if n = 0 then one
  else if n = 1 then b
  else
    match b with
    | Num x -> Num (x ** float_of_int n)
    | Pow (b2, m) -> pow b2 (n * m)
    | Mul fs -> mul (List.map (fun f -> pow f n) fs)
    | b -> Pow (b, n)

let sub a b = add [ a; mul [ Num (-1.); b ] ]
let neg a = mul [ Num (-1.); a ]
let div a b = mul [ a; pow b (-1) ]
let sq a = pow a 2

(* C99 fmin/fmax semantics, which the generated C and CUDA compute: when one
   operand is NaN the other is returned (NaN only when both are).  OCaml's
   [Stdlib.min]/[Float.min] disagree on NaN, so every layer that evaluates
   [Fmin]/[Fmax] numerically must go through these. *)
(** The NaN every kernel store writes in place of a NaN result, so stored
    bits never depend on which of two NaNs an addition or multiplication
    propagates — IEEE 754 leaves that open, and a C compiler may commute
    the operands (see [Backend.Cexpr]). *)
let canonical_nan = Int64.float_of_bits 0x7FF8000000000000L

let canonical x = if Float.is_nan x then canonical_nan else x

let c_fmin a b =
  if Float.is_nan a then b else if Float.is_nan b then a else if a <= b then a else b

let c_fmax a b =
  if Float.is_nan a then b else if Float.is_nan b then a else if a >= b then a else b

let fn f args =
  match (f, args) with
  | Sqrt, [ Num x ] when x >= 0. -> Num (sqrt x)
  | Rsqrt, [ Num x ] when x > 0. -> Num (1. /. sqrt x)
  | Exp, [ Num x ] -> Num (exp x)
  | Log, [ Num x ] when x > 0. -> Num (log x)
  | Sin, [ Num x ] -> Num (sin x)
  | Cos, [ Num x ] -> Num (cos x)
  | Tanh, [ Num x ] -> Num (tanh x)
  | Fabs, [ Num x ] -> Num (abs_float x)
  | Fmin, [ Num a; Num b ] -> Num (c_fmin a b)
  | Fmax, [ Num a; Num b ] -> Num (c_fmax a b)
  | _ -> Fun (f, args)

let sqrt_ x = fn Sqrt [ x ]
let rsqrt x = fn Rsqrt [ x ]
let fabs x = fn Fabs [ x ]
let fmin_ a b = fn Fmin [ a; b ]
let fmax_ a b = fn Fmax [ a; b ]

let select cond if_true if_false =
  let decided lhs rhs strict =
    match (lhs, rhs) with
    | Num a, Num b -> Some (if strict then a < b else a <= b)
    | _ -> None
  in
  let outcome =
    match cond with
    | Lt (a, b) -> decided a b true
    | Le (a, b) -> decided a b false
  in
  match outcome with
  | Some true -> if_true
  | Some false -> if_false
  | None -> if equal if_true if_false then if_true else Select (cond, if_true, if_false)

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

(** Direct children of a node (conditions included for [Select]). *)
let children = function
  | Num _ | Sym _ | Coord _ | Access _ | Rand _ -> []
  | Diff (e, _) -> [ e ]
  | Add xs | Mul xs | Fun (_, xs) -> xs
  | Pow (b, _) -> [ b ]
  | Select (Lt (a, b), t, f) | Select (Le (a, b), t, f) -> [ a; b; t; f ]

let rec fold f acc e = List.fold_left (fold f) (f acc e) (children e)

(** Bottom-up rebuild through the smart constructors: [g] is applied to every
    node after its children have been rewritten. *)
let rec map_bottom_up g e =
  let e' =
    match e with
    | Num _ | Sym _ | Coord _ | Access _ | Rand _ -> e
    | Diff (x, d) -> Diff (map_bottom_up g x, d)
    | Add xs -> add (List.map (map_bottom_up g) xs)
    | Mul xs -> mul (List.map (map_bottom_up g) xs)
    | Pow (b, n) -> pow (map_bottom_up g b) n
    | Fun (f, xs) -> fn f (List.map (map_bottom_up g) xs)
    | Select (c, t, f) ->
      let mc = function
        | Lt (a, b) -> Lt (map_bottom_up g a, map_bottom_up g b)
        | Le (a, b) -> Le (map_bottom_up g a, map_bottom_up g b)
      in
      select (mc c) (map_bottom_up g t) (map_bottom_up g f)
  in
  g e'

let subst pairs e =
  let table = pairs in
  map_bottom_up
    (fun node ->
      match List.find_opt (fun (from, _) -> equal from node) table with
      | Some (_, to_) -> to_
      | None -> node)
    e

let subst_syms pairs e =
  map_bottom_up
    (function
      | Sym s as node -> (
        match List.assoc_opt s pairs with Some v -> v | None -> node)
      | node -> node)
    e

let contains atom e = fold (fun found n -> found || equal n atom) false e

let count_nodes e = fold (fun n _ -> n + 1) 0 e

let free_syms e =
  fold
    (fun acc n -> match n with Sym s when not (List.mem s acc) -> s :: acc | _ -> acc)
    [] e
  |> List.sort Stdlib.compare

let accesses e =
  fold
    (fun acc n ->
      match n with
      | Access a when not (List.exists (Fieldspec.equal_access a) acc) -> a :: acc
      | _ -> acc)
    [] e
  |> List.rev

let fields e =
  List.fold_left
    (fun acc (a : Fieldspec.access) ->
      if List.exists (Fieldspec.equal a.field) acc then acc else a.field :: acc)
    [] (accesses e)
  |> List.rev

(** True when the expression's value varies across cells of a sweep: it reads
    a field, a coordinate, a derivative or a random stream. *)
let is_spatial e =
  fold
    (fun sp n ->
      sp || match n with Access _ | Coord _ | Diff _ | Rand _ -> true | _ -> false)
    false e

(* ------------------------------------------------------------------ *)
(* Differentiation                                                     *)
(* ------------------------------------------------------------------ *)

(** [diff e ~wrt] differentiates [e] with respect to the atom [wrt] (a
    symbol, field access, coordinate or [Diff] node), treating every other
    atom as a constant.  Differentiating with respect to [Diff] atoms is what
    makes variational derivatives expressible (sympy's [Derivative]-as-symbol
    trick). *)
let rec diff e ~wrt =
  if equal e wrt then one
  else
    match e with
    | Num _ | Sym _ | Coord _ | Access _ | Diff _ | Rand _ -> zero
    | Add xs -> add (List.map (diff ~wrt) xs)
    | Mul xs ->
      let rec terms before = function
        | [] -> []
        | x :: after -> mul (diff x ~wrt :: List.rev_append before after) :: terms (x :: before) after
      in
      add (terms [] xs)
    | Pow (b, n) -> mul [ int_num n; pow b (n - 1); diff b ~wrt ]
    | Fun (f, [ x ]) ->
      let dx = diff x ~wrt in
      if equal dx zero then zero
      else
        let outer =
          match f with
          | Sqrt -> mul [ num 0.5; pow (sqrt_ x) (-1) ]
          | Rsqrt -> mul [ num (-0.5); pow x (-1); rsqrt x ]
          | Exp -> fn Exp [ x ]
          | Log -> pow x (-1)
          | Sin -> fn Cos [ x ]
          | Cos -> neg (fn Sin [ x ])
          | Tanh -> sub one (sq (fn Tanh [ x ]))
          | Fabs -> select (Lt (x, zero)) (num (-1.)) one
          | Fmin | Fmax -> invalid_arg "Expr.diff: unary min/max"
        in
        mul [ outer; dx ]
    | Fun (Fmin, [ a; b ]) -> select (Le (a, b)) (diff a ~wrt) (diff b ~wrt)
    | Fun (Fmax, [ a; b ]) -> select (Le (a, b)) (diff b ~wrt) (diff a ~wrt)
    | Fun _ -> invalid_arg "Expr.diff: unsupported function arity"
    | Select (c, t, f) -> select c (diff t ~wrt) (diff f ~wrt)

(** Continuous spatial derivative [∂_axis e], pushed through sums and
    spatially-constant factors; what remains spatial is wrapped in a [Diff]
    node for the discretization layer. *)
let rec spatial_diff e axis =
  match e with
  | Num _ | Sym _ -> zero
  | Add xs -> add (List.map (fun x -> spatial_diff x axis) xs)
  | Mul xs ->
    let const, rest = List.partition (fun f -> not (is_spatial f)) xs in
    if rest = [] then zero
    else if const = [] then Diff (e, axis)
    else mul (const @ [ spatial_diff (mul rest) axis ])
  | e -> if is_spatial e then Diff (e, axis) else zero

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let fn_name = function
  | Sqrt -> "sqrt"
  | Rsqrt -> "rsqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Sin -> "sin"
  | Cos -> "cos"
  | Tanh -> "tanh"
  | Fabs -> "fabs"
  | Fmin -> "fmin"
  | Fmax -> "fmax"

let pp_float ppf x =
  if Float.is_integer x && abs_float x < 1e16 then Fmt.pf ppf "%.1f" x
  else Fmt.pf ppf "%.17g" x

let rec pp_prec prec ppf e =
  let paren p body = if prec > p then Fmt.pf ppf "(%t)" body else body ppf in
  match e with
  | Num x -> if x < 0. then paren 2 (fun ppf -> pp_float ppf x) else pp_float ppf x
  | Sym s -> Fmt.string ppf s
  | Coord d -> Fmt.pf ppf "x_%d" d
  | Access a -> Fieldspec.pp_access ppf a
  | Rand i -> Fmt.pf ppf "rand_%d" i
  | Diff (x, d) -> Fmt.pf ppf "D_%d[%a]" d (pp_prec 0) x
  | Add xs ->
    paren 1 (fun ppf ->
        List.iteri
          (fun i x ->
            match as_term x with
            | c, r when i > 0 && c < 0. ->
              Fmt.pf ppf " - %a" (pp_prec 2) (if c = -1. then r else mul [ Num (-.c); r ])
            | _ -> if i = 0 then pp_prec 2 ppf x else Fmt.pf ppf " + %a" (pp_prec 2) x)
          xs)
  | Mul xs ->
    paren 2 (fun ppf ->
        List.iteri
          (fun i x -> if i = 0 then pp_prec 3 ppf x else Fmt.pf ppf "*%a" (pp_prec 3) x)
          xs)
  | Pow (b, n) -> paren 3 (fun ppf -> Fmt.pf ppf "%a**%d" (pp_prec 4) b n)
  | Fun (f, xs) ->
    Fmt.pf ppf "%s(%a)" (fn_name f) (Fmt.list ~sep:(Fmt.any ", ") (pp_prec 0)) xs
  | Select (c, t, f) ->
    let op, a, b = match c with Lt (a, b) -> ("<", a, b) | Le (a, b) -> ("<=", a, b) in
    paren 0 (fun ppf ->
        Fmt.pf ppf "%a %s %a ? %a : %a" (pp_prec 1) a op (pp_prec 1) b (pp_prec 1) t
          (pp_prec 1) f)

let pp = pp_prec 0
let to_string e = Fmt.str "%a" pp e
