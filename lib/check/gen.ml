(** Random well-typed inputs for the differential harness.

    Every generator comes with a shrinker so a failing oracle reports a
    minimized counterexample, not a 40-node expression dump.  Shrinking is
    measure-decreasing (node count, then summed constant magnitude), which
    guarantees termination even though candidates are rebuilt through the
    normalizing smart constructors. *)

open Symbolic

module G = QCheck.Gen

let ( let* ) = G.( >>= )

(* ------------------------------------------------------------------ *)
(* Scalar values                                                       *)
(* ------------------------------------------------------------------ *)

(* Bounded magnitudes: the oracles compare floating-point results up to a
   tolerance, so generated atoms stay small and special values (0, ±1, 1/2)
   that trigger smart-constructor folding are over-represented. *)
let value : float G.t =
  G.frequency
    [ (2, G.oneofl [ 0.; 1.; -1.; 0.5; -0.5; 2. ]); (3, G.float_range (-2.) 2.) ]

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let fn1 = G.oneofl Expr.[ Sqrt; Rsqrt; Exp; Log; Sin; Cos; Tanh; Fabs ]

(** Random well-typed expression over the given leaf generators.  [size]
    bounds the node budget; all inner nodes go through the smart
    constructors, so samples are always in normal form (exactly what the
    optimization passes receive in the real pipeline). *)
let expr ?(size = 10) ~(atoms : Expr.t G.t list) () : Expr.t G.t =
  let atom = G.oneof atoms in
  let rec go n =
    if n <= 1 then atom
    else
      let sub = go (n / 2) in
      G.frequency
        [
          (2, atom);
          (4, G.map Expr.add (G.list_size (G.int_range 2 3) sub));
          (4, G.map Expr.mul (G.list_size (G.int_range 2 3) sub));
          (2, G.map2 Expr.pow sub (G.oneofl [ -2; -1; 2; 3 ]));
          (1, G.map Expr.sq sub);
          (2, G.map2 (fun f x -> Expr.fn f [ x ]) fn1 sub);
          (1, G.map2 Expr.fmin_ sub sub);
          (1, G.map2 Expr.fmax_ sub sub);
          ( 1,
            let* a = sub in
            let* b = sub in
            let* t = sub in
            let* f = sub in
            let* strict = G.bool in
            G.return
              (Expr.select (if strict then Expr.Lt (a, b) else Expr.Le (a, b)) t f) );
        ]
  in
  let* n = G.int_range 1 size in
  go n

(* Summed magnitude of numeric leaves: the secondary shrink measure that
   lets constants shrink toward 0 without changing the node count. *)
let num_measure e =
  Expr.fold
    (fun acc n ->
      match n with Expr.Num x -> acc +. Float.min (Float.abs x) 1e6 | _ -> acc)
    0. e

let rec shrink_expr (e : Expr.t) yield =
  let n = Expr.count_nodes e in
  let m = num_measure e in
  let emit c =
    let nc = Expr.count_nodes c in
    if nc < n || (nc = n && num_measure c < m -. 1e-9) then yield c
  in
  (* shrink a numeric leaf toward zero *)
  (match e with
  | Expr.Num x when x <> 0. ->
    yield Expr.zero;
    let t = Float.of_int (Float.to_int x) in
    if t <> x then yield (Expr.num t)
    else if Float.abs x > 1. then yield (Expr.num (Float.of_int (Float.to_int (x /. 2.))))
  | _ -> ());
  let kids = Expr.children e in
  (* any strict subexpression is a candidate *)
  List.iter emit kids;
  (* drop one operand of an n-ary node *)
  (match e with
  | (Expr.Add xs | Expr.Mul xs) when List.length xs > 1 ->
    List.iteri
      (fun i _ -> emit (Cse.rebuild_with_children e (List.filteri (fun j _ -> j <> i) xs)))
      xs
  | _ -> ());
  (* shrink one child in place *)
  List.iteri
    (fun i k ->
      shrink_expr k (fun k' ->
          let kids' = List.mapi (fun j k0 -> if j = i then k' else k0) kids in
          emit (Cse.rebuild_with_children e kids')))
    kids

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

let sym_pool = [ "a"; "b"; "c" ]

let env_gen : (string * float) list G.t =
  G.map
    (fun vs -> List.map2 (fun s v -> (s, v)) sym_pool vs)
    (G.list_repeat (List.length sym_pool) value)

let shrink_env env yield =
  List.iteri
    (fun i (_, v) ->
      if v <> 0. then
        yield (List.mapi (fun j (s, v') -> if i = j then (s, 0.) else (s, v')) env))
    env

let pp_env ppf env =
  Fmt.list ~sep:(Fmt.any ", ")
    (fun ppf (s, v) -> Fmt.pf ppf "%s=%g" s v)
    ppf env

(* ------------------------------------------------------------------ *)
(* Oracle 1: scalar expression + environment                           *)
(* ------------------------------------------------------------------ *)

let scalar_atoms =
  [ G.map Expr.sym (G.oneofl sym_pool); G.map Expr.num value ]

let arb_scalar_expr_env : (Expr.t * (string * float) list) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (e, env) -> Fmt.str "@[<hov 2>%a@ where %a@]" Expr.pp e pp_env env)
    ~shrink:(fun (e, env) yield ->
      shrink_expr e (fun e' -> yield (e', env));
      shrink_env env (fun env' -> yield (e, env')))
    (G.pair (expr ~size:12 ~atoms:scalar_atoms ()) env_gen)

(* ------------------------------------------------------------------ *)
(* Oracles 2/4: random stencil kernels                                 *)
(* ------------------------------------------------------------------ *)

(** Field spec with a random component count (dimension fixed at 2 — the
    engine/interpreter comparison is about addressing and evaluation, which
    the third axis would only slow down). *)
let fieldspec ~name : Fieldspec.t G.t =
  let* components = G.int_range 1 3 in
  G.return (Fieldspec.create ~dim:2 ~components name)

type kernel_sample = {
  src : Fieldspec.t;
  dst : Fieldspec.t;
  body : Field.Assignment.t list;  (** SSA temps followed by one store per
                                       dst component; reads only [src] *)
  params : (string * float) list;  (** alpha, beta, dx *)
  seed : int;                      (** keys the data fill and Rand streams *)
}

let param_pool = [ "alpha"; "beta" ]

let kernel_atoms ~(src : Fieldspec.t) ~temps ~with_rand =
  let acc =
    let* component = G.int_bound (src.Fieldspec.components - 1) in
    let* ox = G.int_range (-2) 2 in
    let* oy = G.int_range (-2) 2 in
    G.return (Expr.access (Fieldspec.access ~component src [| ox; oy |]))
  in
  let weighted =
    [
      (2, G.map Expr.num value);
      (2, G.map Expr.sym (G.oneofl param_pool));
      (1, G.map Expr.coord (G.int_bound 1));
      (4, acc);
    ]
    @ (if temps = [] then [] else [ (2, G.map Expr.sym (G.oneofl temps)) ])
    @ (if with_rand then [ (1, G.map Expr.rand (G.int_bound 1)) ] else [])
  in
  [ G.frequency weighted ]

let kernel_sample ?(with_rand = true) () : kernel_sample G.t =
  let* src = fieldspec ~name:"src" in
  let* dst = fieldspec ~name:"dst" in
  let* n_temps = G.int_bound 3 in
  let rec gen_temps i acc temps =
    if i = n_temps then G.return (List.rev acc, List.rev temps)
    else
      let name = Printf.sprintf "t%d" i in
      let* rhs = expr ~size:8 ~atoms:(kernel_atoms ~src ~temps ~with_rand) () in
      gen_temps (i + 1) (Field.Assignment.assign_temp name rhs :: acc) (name :: temps)
  in
  let* temp_asgns, temps = gen_temps 0 [] [] in
  let rec gen_stores c acc =
    if c = dst.Fieldspec.components then G.return (List.rev acc)
    else
      let* rhs = expr ~size:10 ~atoms:(kernel_atoms ~src ~temps ~with_rand) () in
      gen_stores (c + 1) (Field.Assignment.store (Fieldspec.center ~component:c dst) rhs :: acc)
  in
  let* stores = gen_stores 0 [] in
  let* va = value in
  let* vb = value in
  let* dx = G.oneofl [ 0.5; 1.0; 2.0 ] in
  let* seed = G.int_bound 1000 in
  G.return
    {
      src;
      dst;
      body = temp_asgns @ stores;
      params = [ ("alpha", va); ("beta", vb); ("dx", dx) ];
      seed;
    }

let shrink_kernel (s : kernel_sample) yield =
  (* shrink one right-hand side in place *)
  List.iteri
    (fun i (a : Field.Assignment.t) ->
      shrink_expr a.rhs (fun rhs' ->
          yield
            {
              s with
              body =
                List.mapi
                  (fun j a0 -> if i = j then { a0 with Field.Assignment.rhs = rhs' } else a0)
                  s.body;
            }))
    s.body;
  (* drop an unused temp, or a surplus store *)
  let used =
    List.concat_map (fun (a : Field.Assignment.t) -> Expr.free_syms a.rhs) s.body
  in
  let n_stores =
    List.length (List.filter (fun a -> match a.Field.Assignment.lhs with
      | Field.Assignment.Store _ -> true | _ -> false) s.body)
  in
  List.iteri
    (fun i (a : Field.Assignment.t) ->
      let droppable =
        match a.Field.Assignment.lhs with
        | Field.Assignment.Temp t -> not (List.mem t used)
        | Field.Assignment.Store _ -> n_stores > 1
      in
      if droppable then yield { s with body = List.filteri (fun j _ -> j <> i) s.body })
    s.body;
  (* zero one parameter *)
  List.iteri
    (fun i (p, v) ->
      if v <> 0. && p <> "dx" then
        yield
          {
            s with
            params = List.mapi (fun j (p', v') -> if i = j then (p', 0.) else (p', v')) s.params;
          })
    s.params

let pp_kernel ppf (s : kernel_sample) =
  Fmt.pf ppf "@[<v 2>kernel (src^%d -> dst^%d, seed %d, %a):@ %a@]"
    s.src.Fieldspec.components s.dst.Fieldspec.components s.seed pp_env s.params
    Field.Assignment.pp_list s.body

let arb_kernel ?(with_rand = true) () : kernel_sample QCheck.arbitrary =
  QCheck.make
    ~print:(Fmt.str "%a" pp_kernel)
    ~shrink:shrink_kernel
    (kernel_sample ~with_rand ())

(** A batch of random kernels for the fast-tier oracle, built in one
    compiler run: half with [Rand] atoms (printed as scalar C), half
    without (printed with intrinsics). *)
let arb_kernel_batch ~size : kernel_sample list QCheck.arbitrary =
  QCheck.make
    ~print:(fun l -> String.concat "\n" (List.map (Fmt.str "%a" pp_kernel) l))
    ~shrink:(QCheck.Shrink.list ~shrink:shrink_kernel)
    (G.list_size (G.return size)
       (let* with_rand = G.bool in
        kernel_sample ~with_rand ()))

(* ------------------------------------------------------------------ *)
(* Oracle 3: continuous divergence right-hand sides                    *)
(* ------------------------------------------------------------------ *)

(** The continuous scalar field the fluxes read. *)
let phi_c = Fieldspec.scalar ~dim:2 "phi"

type flux_sample = {
  rhs : Expr.t;        (** continuous RHS: divergence terms + remainder *)
  kappa : float;
  fdx : float;
  fseed : int;
}

let flux_coeff_atoms =
  [
    G.frequency
      [
        (3, G.return (Expr.field phi_c));
        (2, G.map Expr.num value);
        (2, G.return (Expr.sym "kappa"));
      ];
  ]

(* One flux along [axis]: coeff * D_{d'} phi (+ optional non-derivative
   part).  Keeping exactly one Diff level matches what the energy layer
   emits and keeps ghost requirements within the block's 2 layers. *)
let flux _axis : Expr.t G.t =
  let* d' = G.int_bound 1 in
  let* coeff = expr ~size:4 ~atoms:flux_coeff_atoms () in
  let* with_extra = G.bool in
  let* extra = expr ~size:3 ~atoms:flux_coeff_atoms () in
  let base = Expr.mul [ coeff; Expr.Diff (Expr.field phi_c, d') ] in
  G.return (if with_extra then Expr.add [ base; extra ] else base)

let flux_sample : flux_sample G.t =
  let* f0 = flux 0 in
  let* f1 = flux 1 in
  let* remainder = expr ~size:4 ~atoms:flux_coeff_atoms () in
  let* kappa = G.float_range 0.1 2. in
  let* fdx = G.oneofl [ 0.5; 1.0 ] in
  let* fseed = G.int_bound 1000 in
  G.return
    { rhs = Expr.add [ Expr.Diff (f0, 0); Expr.Diff (f1, 1); remainder ]; kappa; fdx; fseed }

let shrink_flux (s : flux_sample) yield =
  shrink_expr s.rhs (fun rhs' -> yield { s with rhs = rhs' })

let arb_flux : flux_sample QCheck.arbitrary =
  QCheck.make
    ~print:(fun s ->
      Fmt.str "@[<hov 2>%a@ where kappa=%g dx=%g seed=%d@]" Expr.pp s.rhs s.kappa s.fdx
        s.fseed)
    ~shrink:shrink_flux flux_sample

(* ------------------------------------------------------------------ *)
(* Oracle 9: farm-scheduled execution vs. solo                         *)
(* ------------------------------------------------------------------ *)

type farm_sample = {
  fm_seed : int;      (** workload seed *)
  fm_jobs : int;      (** batch size *)
  fm_quantum : int;   (** timesteps per scheduler slice *)
  fm_active : int;    (** resident-job cap *)
  fm_park : int;      (** preempt after this many quanta; 0 = never *)
  fm_crash : bool;    (** mix in fault-injected 2-rank jobs *)
}

let pp_farm ppf (s : farm_sample) =
  Fmt.pf ppf "workload seed %d, %d job(s), quantum %d, %d active, park after %d%s"
    s.fm_seed s.fm_jobs s.fm_quantum s.fm_active s.fm_park
    (if s.fm_crash then ", crash injection" else "")

(* Shrink toward one uninterrupted job: fewer jobs first, then no crashes,
   no preemption, single residency, unit quantum. *)
let shrink_farm (s : farm_sample) yield =
  if s.fm_jobs > 1 then yield { s with fm_jobs = s.fm_jobs - 1 };
  if s.fm_crash then yield { s with fm_crash = false };
  if s.fm_park > 0 then yield { s with fm_park = 0 };
  if s.fm_active > 1 then yield { s with fm_active = s.fm_active - 1 };
  if s.fm_quantum > 1 then yield { s with fm_quantum = s.fm_quantum - 1 }

let arb_farm : farm_sample QCheck.arbitrary =
  QCheck.make
    ~print:(Fmt.str "%a" pp_farm)
    ~shrink:shrink_farm
    (let* fm_seed = G.int_bound 10_000 in
     let* fm_jobs = G.int_range 2 5 in
     let* fm_quantum = G.int_range 1 3 in
     let* fm_active = G.int_range 1 3 in
     let* fm_park = G.oneofl [ 0; 1; 2 ] in
     let* fm_crash = G.bool in
     G.return { fm_seed; fm_jobs; fm_quantum; fm_active; fm_park; fm_crash })

(* ------------------------------------------------------------------ *)
(* Model runs: one case over every model family                        *)
(* ------------------------------------------------------------------ *)

type family = Curvature | P1 | P2 | Eutectic | Pfc | Gray_scott

let families = [ Curvature; P1; P2; Eutectic; Pfc; Gray_scott ]

let family_name = function
  | Curvature -> "curvature"
  | P1 -> "P1"
  | P2 -> "P2"
  | Eutectic -> "eutectic"
  | Pfc -> "pfc"
  | Gray_scott -> "gray-scott"

(** The families built by the energy combinators (the model zoo); the
    paper's curvature, P1 and P2 models are the others. *)
let is_zoo = function Eutectic | Pfc | Gray_scott -> true | Curvature | P1 | P2 -> false

(** How a run executes: nothing here may change a bit of the result. *)
type exec = {
  jit : bool;         (** JIT backend instead of the interpreter *)
  domains : int;      (** pool width: 1, 2 or 4 *)
  tile : int array;   (** loop-depth tile shape; 0 = full extent *)
  overlap : bool;     (** overlapped φ_dst exchange (a no-op without μ) *)
  grid : int array;   (** ranks per axis of a forest *)
}

(** What the simulated network does to a forest's messages. *)
type faults = {
  plan_seed : int;  (** keys the Philox fault-decision streams *)
  drop : float;
  delay : float;
  duplicate : float;
  crash : (int * int) option;  (** rank, and the step it dies entering *)
  ckpt_every : int;            (** checkpoint cadence of the recovery *)
}

type case = {
  family : family;
  coef : int;         (** coefficient variant 0..2 (eutectic, PFC, Gray–Scott) *)
  dims : int array;   (** cells per block; a single block holds the forest's domain *)
  split : bool;       (** split (staggered-precompute) kernel variants *)
  exec : exec;
  faults : faults;
  steps : int;
  seed : int;         (** keys the initial condition *)
}

let dim_of = function P1 | P2 -> 3 | Curvature | Eutectic | Pfc | Gray_scott -> 2

(** The family's parameters at the case's coefficient variant.  Every
    variant stays inside the stable regime of its family (the oracles
    compare execution paths, so the state must stay finite, not
    physical). *)
let params (c : case) : Pfcore.Params.t =
  let v = c.coef mod 3 in
  match c.family with
  | Curvature -> Pfcore.Params.curvature ()
  | P1 -> Pfcore.Params.p1 ()
  | P2 -> Pfcore.Params.p2 ()
  | Eutectic ->
    let p = Pfcore.Params.eutectic () in
    let scale = [| 1.0; 0.8; 1.2 |].(v) in
    {
      p with
      Pfcore.Params.name = Printf.sprintf "eutectic-z%d" v;
      gamma = Array.map (Array.map (fun g -> g *. scale)) p.Pfcore.Params.gamma;
    }
  | Pfc ->
    let p = Pfcore.Params.pfc () in
    {
      p with
      Pfcore.Params.name = Printf.sprintf "pfc-z%d" v;
      family = Pfcore.Params.Pfc { r = [| 0.25; 0.15; 0.35 |].(v) };
    }
  | Gray_scott ->
    let p = Pfcore.Params.gray_scott () in
    let feed, kill = [| (0.035, 0.065); (0.03, 0.062); (0.025, 0.055) |].(v) in
    {
      p with
      Pfcore.Params.name = Printf.sprintf "gray-scott-z%d" v;
      family =
        (match p.Pfcore.Params.family with
        | Pfcore.Params.Gray_scott g -> Pfcore.Params.Gray_scott { g with feed; kill }
        | f -> f);
    }

let ranks (e : exec) = Array.fold_left ( * ) 1 e.grid

(** The serial interpreted executor on the case's rank grid. *)
let reference (e : exec) =
  { e with jit = false; domains = 1; tile = Array.map (fun _ -> 0) e.tile; overlap = false }

let no_faults =
  { plan_seed = 0; drop = 0.; delay = 0.; duplicate = 0.; crash = None; ckpt_every = 1 }

(** One clean, serial, interpreted step of [family] from seed 0. *)
let base family =
  let dim = dim_of family in
  {
    family;
    coef = 0;
    dims = Array.make dim (if dim = 2 then 6 else 4);
    split = false;
    exec =
      reference
        { jit = false; domains = 1; tile = Array.make dim 0; overlap = false;
          grid = Array.init dim (fun d -> if d = 0 then 2 else 1) };
    faults = no_faults;
    steps = 1;
    seed = 0;
  }

let ints a = String.concat "x" (Array.to_list (Array.map string_of_int a))

let pp_case ppf (c : case) =
  let e = c.exec and f = c.faults in
  Fmt.pf ppf
    "%s coef %d, seed %d, %s, %s blocks on %s ranks, %d step(s); %s, %d domain(s), tile %s%s; \
     plan %d (drop %.2f delay %.2f dup %.2f)%s"
    (family_name c.family) c.coef c.seed
    (if c.split then "split" else "full")
    (ints c.dims) (ints e.grid) c.steps
    (if e.jit then "jit" else "interp")
    e.domains (ints e.tile)
    (if e.overlap then ", overlapped" else "")
    f.plan_seed f.drop f.delay f.duplicate
    (match f.crash with
    | Some (r, k) -> Printf.sprintf ", rank %d dies at step %d, checkpoint every %d" r k f.ckpt_every
    | None -> "")

(* Shrink toward one clean, serial, interpreted, full-variant step on the
   smallest grid.  The family is never shrunk: a counterexample must be
   one of the family that failed. *)
let shrink_case (c : case) yield =
  let e = c.exec and f = c.faults in
  let exec e' = yield { c with exec = e' } and faults f' = yield { c with faults = f' } in
  if f.crash <> None then faults { f with crash = None };
  if f.drop > 0. then faults { f with drop = 0. };
  if f.delay > 0. then faults { f with delay = 0. };
  if f.duplicate > 0. then faults { f with duplicate = 0. };
  if e.jit then exec { e with jit = false };
  if e.overlap then exec { e with overlap = false };
  if c.steps > (match f.crash with Some (_, k) -> k + 1 | None -> 1) then
    yield { c with steps = c.steps - 1 };
  if e.domains > 1 then exec { e with domains = 1 };
  Array.iteri
    (fun d x ->
      if x > 0 then exec { e with tile = Array.mapi (fun d' x' -> if d' = d then 0 else x') e.tile })
    e.tile;
  if ranks e > 2 then
    yield
      {
        c with
        exec = { e with grid = Array.mapi (fun d _ -> if d = 0 then 2 else 1) e.grid };
        faults = { f with crash = Option.map (fun (r, k) -> (r mod 2, k)) f.crash };
      };
  if c.dims.(0) > 4 && dim_of c.family = 3 then
    yield { c with dims = Array.map (fun n -> n - 1) c.dims };
  if f.ckpt_every > 1 then faults { f with ckpt_every = 1 };
  if c.coef > 0 then yield { c with coef = 0 };
  if c.split then yield { c with split = false };
  if c.seed > 0 then yield { c with seed = c.seed / 2 }

let case_gen family : case G.t =
  let dim = dim_of family in
  let* coef = if is_zoo family then G.int_bound 2 else G.return 0 in
  let* edge = if dim = 2 then G.return 6 else G.int_range 4 6 in
  let* split = G.bool in
  let* jit = G.bool in
  let* domains = G.oneofl [ 1; 2; 4 ] in
  (* degenerate tiles included on purpose: every decomposition must give
     the same bits, not just the fast ones *)
  let* tile = G.array_size (G.return dim) (G.oneofl [ 0; 1; 2; 3; 5 ]) in
  let* overlap = G.bool in
  let* grid =
    G.oneofl
      (if dim = 2 then [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |] ]
       else [ [| 2; 1; 1 |]; [| 1; 2; 1 |]; [| 1; 1; 2 |]; [| 2; 2; 1 |] ])
  in
  let* plan_seed = G.int_bound 1000 in
  let* drop = G.oneofl [ 0.; 0.05; 0.1 ] in
  let* delay = G.oneofl [ 0.; 0.08; 0.15 ] in
  let* duplicate = G.oneofl [ 0.; 0.05; 0.1 ] in
  let* crashes = G.bool in
  let* crash_rank = G.int_bound 1000 in
  let* crash_step = G.int_range 1 2 in
  let* ckpt_every = G.int_range 1 2 in
  let* tail = G.int_range 1 2 in
  let* steps = G.int_range 1 3 in
  let* seed = G.int_bound 10_000 in
  let exec = { jit; domains; tile; overlap; grid } in
  G.return
    {
      family;
      coef;
      dims = Array.make dim edge;
      split;
      exec;
      faults =
        {
          plan_seed;
          drop;
          delay;
          duplicate;
          crash = (if crashes then Some (crash_rank mod ranks exec, crash_step) else None);
          ckpt_every;
        };
      steps = (if crashes then crash_step + tail else steps);
      seed;
    }

(** Cases of one family: every model-level oracle draws from these. *)
let arb_case family : case QCheck.arbitrary =
  QCheck.make ~print:(Fmt.str "%a" pp_case) ~shrink:shrink_case (case_gen family)


(* ------------------------------------------------------------------ *)
(* Oracle 12: random free-energy functionals                           *)
(* ------------------------------------------------------------------ *)

(** One term of a randomly assembled free-energy density.  Component
    indices are taken modulo the sample's component count at build time,
    so shrinking [fn_comps] keeps every term well-typed. *)
type zterm =
  | Zwell of float * int      (** w * u^2 (1-u)^2 *)
  | Zgrad of float * int      (** kappa/2 * |grad u|^2 *)
  | Zcouple of float          (** c * sum phi_a^2 phi_b^2 over pairs *)
  | Zdrive of float * int     (** m * u *)
  | Zcrystal of float * int   (** Swift-Hohenberg: -r/2 u^2 + ((1+lap)u)^2/2 + u^4/4 *)

type func_sample = {
  fn_terms : zterm list;  (** non-empty *)
  fn_comps : int;         (** field components, 1..3 *)
  fn_seed : int;          (** keys the smooth probe state *)
  fn_cell : int;          (** probe cell (mod interior cells) *)
  fn_comp : int;          (** component whose variation is probed (mod fn_comps) *)
}

let pp_zterm ppf = function
  | Zwell (w, c) -> Fmt.pf ppf "well(%g, u%d)" w c
  | Zgrad (k, c) -> Fmt.pf ppf "grad(%g, u%d)" k c
  | Zcouple c -> Fmt.pf ppf "couple(%g)" c
  | Zdrive (m, c) -> Fmt.pf ppf "drive(%g, u%d)" m c
  | Zcrystal (r, c) -> Fmt.pf ppf "crystal(%g, u%d)" r c

let pp_func ppf (s : func_sample) =
  Fmt.pf ppf "%d component(s), seed %d, probe cell %d comp %d: %a" s.fn_comps s.fn_seed
    s.fn_cell s.fn_comp
    Fmt.(list ~sep:(any " + ") pp_zterm)
    s.fn_terms

let zterm_coef = function
  | Zwell (c, _) | Zgrad (c, _) | Zcouple c | Zdrive (c, _) | Zcrystal (c, _) -> c

let zterm_with_coef c = function
  | Zwell (_, i) -> Zwell (c, i)
  | Zgrad (_, i) -> Zgrad (c, i)
  | Zcouple _ -> Zcouple c
  | Zdrive (_, i) -> Zdrive (c, i)
  | Zcrystal (_, i) -> Zcrystal (c, i)

(* Shrink by dropping terms, then snapping coefficients to 1, then
   reducing the component count (term indices re-wrap, so this stays
   well-typed).  All moves are measure-decreasing. *)
let shrink_func (s : func_sample) yield =
  let n = List.length s.fn_terms in
  if n > 1 then
    for i = 0 to n - 1 do
      yield { s with fn_terms = List.filteri (fun j _ -> j <> i) s.fn_terms }
    done;
  List.iteri
    (fun i t ->
      if zterm_coef t <> 1. then
        yield
          {
            s with
            fn_terms = List.mapi (fun j t' -> if j = i then zterm_with_coef 1. t else t') s.fn_terms;
          })
    s.fn_terms;
  if s.fn_comps > 1 then yield { s with fn_comps = s.fn_comps - 1 };
  if s.fn_cell > 0 then yield { s with fn_cell = 0 };
  if s.fn_comp > 0 then yield { s with fn_comp = 0 };
  if s.fn_seed > 0 then yield { s with fn_seed = s.fn_seed / 2 }

let arb_func : func_sample QCheck.arbitrary =
  let coef = G.oneofl [ 1.; 0.5; 2.; 0.3; 1.5 ] in
  let term =
    let* c = coef in
    let* comp = G.int_bound 2 in
    G.frequency
      [
        (3, G.return (Zwell (c, comp)));
        (3, G.return (Zgrad (c, comp)));
        (1, G.return (Zcouple c));
        (2, G.return (Zdrive (c, comp)));
        (1, G.return (Zcrystal (c, comp)));
      ]
  in
  QCheck.make
    ~print:(Fmt.str "%a" pp_func)
    ~shrink:shrink_func
    (let* fn_terms = G.list_size (G.int_range 1 4) term in
     let* fn_comps = G.int_range 1 3 in
     let* fn_seed = G.int_bound 10_000 in
     let* fn_cell = G.int_bound 1_000 in
     let* fn_comp = G.int_bound 2 in
     G.return { fn_terms; fn_comps; fn_seed; fn_cell; fn_comp })
