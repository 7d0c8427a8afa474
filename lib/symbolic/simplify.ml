(** Expression-level simplification passes.

    These implement the discretization layer's "terms are simplified
    individually by expansion or factoring" step (paper §3.3): polynomial
    expansion, collection of common factors, constant folding after
    compile-time parameter substitution, and a cheap cost model used to pick
    the better of the expanded / factored forms. *)

open Expr

(** Distribute products over sums and expand positive integer powers of
    sums.  Negative powers and function arguments are left in place.

    Distribution is budgeted: a product (or power) whose expansion would
    produce more than [budget] terms is left in factored form, so expansion
    of deeply nested interface terms cannot blow up. *)
(* Distribute a product of two already-expanded operands. *)
let distribute_pair a b =
  match (a, b) with
  | Add ts, Add us -> add (List.concat_map (fun t -> List.map (fun u -> mul [ t; u ]) us) ts)
  | Add ts, u | u, Add ts -> add (List.map (fun t -> mul [ t; u ]) ts)
  | a, b -> mul [ a; b ]

let rec expand ?(budget = 256) e =
  let expand_b = expand ~budget in
  let n_terms = function Add ts -> List.length ts | _ -> 1 in
  match e with
  | Num _ | Sym _ | Coord _ | Access _ | Rand _ -> e
  | Diff (x, d) -> spatial_diff (expand_b x) d
  | Add xs -> add (List.map expand_b xs)
  | Mul xs ->
    let xs = List.map expand_b xs in
    (* early-capped product of term counts: avoids overflow and blow-up *)
    let total =
      List.fold_left (fun acc x -> if acc > budget then acc else acc * n_terms x) 1 xs
    in
    if total > budget then mul xs
    else (match xs with [] -> one | x :: rest -> List.fold_left distribute_pair x rest)
  | Pow (b, n) when n > 1 -> (
    match expand_b b with
    | Add ts as eb ->
      let rec grow acc k =
        if acc > budget || k = 0 then acc else grow (acc * List.length ts) (k - 1)
      in
      if grow 1 n > budget then pow eb n
      else
        (* operands are already expanded: plain repeated distribution *)
        let rec power acc k = if k = 0 then acc else power (distribute_pair acc eb) (k - 1) in
        power one n
    | eb -> pow eb n)
  | Pow (b, n) -> pow (expand_b b) n
  | Fun (f, xs) -> fn f (List.map expand_b xs)
  | Select (c, t, f) ->
    let ec =
      match c with
      | Lt (a, b) -> Lt (expand_b a, expand_b b)
      | Le (a, b) -> Le (expand_b a, expand_b b)
    in
    select ec (expand_b t) (expand_b f)

(* Multiset intersection of factor lists (base, exp) with positive exps. *)
let factor_list t =
  match t with
  | Mul fs -> List.map as_factor fs
  | t -> [ as_factor t ]

let common_factors terms =
  match List.map factor_list terms with
  | [] -> []
  | first :: rest ->
    List.fold_left
      (fun common fs ->
        List.filter_map
          (fun (b, n) ->
            match List.find_opt (fun (b', _) -> equal b b') fs with
            | Some (_, n') when (n > 0) = (n' > 0) ->
              let m = if n > 0 then min n n' else max n n' in
              if m = 0 then None else Some (b, m)
            | _ -> None)
          common)
      first rest

(** Factor out the greatest common monomial of a sum:
    [a*x*y + b*x*z] becomes [x*(a*y + b*z)].  Applied recursively. *)
let rec factor_common e =
  match e with
  | Add xs -> (
    let xs = List.map factor_common xs in
    let common = List.filter (fun (b, _) -> not (is_num b)) (common_factors xs) in
    match common with
    | [] -> add xs
    | common ->
      let g = mul (List.map (fun (b, n) -> pow b n) common) in
      let reduced = List.map (fun t -> factor_common (div t g)) xs in
      mul [ g; add reduced ])
  | Mul xs -> mul (List.map factor_common xs)
  | Pow (b, n) -> pow (factor_common b) n
  | Fun (f, xs) -> fn f (List.map factor_common xs)
  | Diff (x, d) -> Diff (factor_common x, d)
  | Select (c, t, f) -> select c (factor_common t) (factor_common f)
  | e -> e

(** Abstract operation cost used to pick between rewritten forms; division
    and square roots are weighted like the paper's normalized FLOPs. *)
let cost e =
  fold
    (fun acc n ->
      acc
      +
      match n with
      | Add xs -> List.length xs - 1
      | Mul xs -> List.length xs - 1
      | Pow (_, n) -> if n < 0 then 16 + abs n - 1 else n - 1
      | Fun (Sqrt, _) -> 10
      | Fun (Rsqrt, _) -> 2
      | Fun ((Exp | Log | Sin | Cos | Tanh), _) -> 20
      | Fun ((Fabs | Fmin | Fmax), _) -> 1
      | Select _ -> 1
      | _ -> 0)
    0 e

(** Node budget of the expanded candidates: a term above it is not expanded,
    and an expansion above it is dropped. *)
let expand_limit = 1500

(* Whether [e], read as a tree, has at most [limit] nodes.  The walk stops
   as soon as the count passes the limit: [expand] shares subterms, so a
   DAG it builds in milliseconds can read as a tree of millions of nodes. *)
let nodes_within limit e =
  let exception Over in
  let rec go n e =
    let n = n + 1 in
    if n > limit then raise Over;
    List.fold_left go n (children e)
  in
  match go 0 e with _ -> true | exception Over -> false

(** Try both expansion and factoring and keep the cheaper form — the
    discretization layer's per-term simplification strategy.  Expansion is
    skipped for terms above [expand_limit] nodes, and its two candidates are
    dropped when the expansion itself exceeds the limit: [factor_common] and
    [cost] walk their input as a tree, and such expansions never win. *)
let simplify_term e =
  let expanded =
    if not (nodes_within expand_limit e) then None
    else
      let x = expand e in
      if nodes_within expand_limit x then Some x else None
  in
  let candidates =
    match expanded with
    | None -> [ factor_common e ]
    | Some x -> [ x; factor_common e; factor_common x ]
  in
  List.fold_left
    (fun (best, best_cost) c ->
      let k = cost c in
      if k < best_cost then (c, k) else (best, best_cost))
    (e, cost e) candidates
  |> fst

(** Substitute fixed model parameters by their numeric values and re-run the
    smart constructors, folding constants throughout ("the symbolic
    parameters which remain fixed during a simulation run are substituted by
    numeric values", §3.3). *)
let freeze_parameters bindings e = subst_syms (List.map (fun (s, v) -> (s, num v)) bindings) e
