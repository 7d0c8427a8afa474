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
(* Oracle 5: random model runs                                         *)
(* ------------------------------------------------------------------ *)

(** The model of oracle 6's single-block snapshot roundtrip. *)
type block_model =
  | Curvature_block  (** 12x12, no μ *)
  | P1_block  (** 6^3 *)
  | P2_block  (** 6^3: φ draws Philox fluctuations keyed on the step *)

type model_sample = {
  mseed : int;
  split : bool;
  steps : int;
  block : block_model;  (** oracle 6's single block; oracle 5 ignores it *)
}

let block_model_name = function
  | Curvature_block -> "curvature"
  | P1_block -> "P1"
  | P2_block -> "P2"

let arb_model : model_sample QCheck.arbitrary =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "seed %d, %s kernels, %d steps, %s block" s.mseed
        (if s.split then "split" else "full")
        s.steps (block_model_name s.block))
    ~shrink:(fun s yield ->
      if s.steps > 1 then yield { s with steps = s.steps - 1 };
      if s.block <> Curvature_block then yield { s with block = Curvature_block })
    (let* mseed = G.int_bound 10_000 in
     let* split = G.bool in
     let* steps = G.int_range 1 3 in
     let* block = G.oneofl [ Curvature_block; P1_block; P2_block ] in
     G.return { mseed; split; steps; block })

(* ------------------------------------------------------------------ *)
(* Oracle 6: random fault schedules and checkpoint cadences            *)
(* ------------------------------------------------------------------ *)

type resilience_sample = {
  rseed : int;        (** initial-condition seed *)
  plan_seed : int;    (** keys the Philox fault-decision streams *)
  drop : float;
  delay : float;
  duplicate : float;
  crash_rank : int;
  crash_step : int;   (** the rank dies entering this step *)
  ckpt_every : int;
  rsteps : int;       (** total steps the protected run must complete *)
}

let pp_resilience ppf (s : resilience_sample) =
  Fmt.pf ppf
    "seed %d, plan %d (drop %.2f delay %.2f dup %.2f), rank %d dies at step %d, \
     checkpoint every %d, %d steps"
    s.rseed s.plan_seed s.drop s.delay s.duplicate s.crash_rank s.crash_step
    s.ckpt_every s.rsteps

let shrink_resilience (s : resilience_sample) yield =
  if s.rsteps > s.crash_step + 1 then yield { s with rsteps = s.rsteps - 1 };
  if s.crash_step > 1 then
    yield { s with crash_step = s.crash_step - 1; rsteps = s.rsteps - 1 };
  if s.drop > 0. then yield { s with drop = 0. };
  if s.delay > 0. then yield { s with delay = 0. };
  if s.duplicate > 0. then yield { s with duplicate = 0. };
  if s.ckpt_every > 1 then yield { s with ckpt_every = s.ckpt_every - 1 }

let arb_resilience : resilience_sample QCheck.arbitrary =
  QCheck.make
    ~print:(Fmt.str "%a" pp_resilience)
    ~shrink:shrink_resilience
    (let* rseed = G.int_bound 10_000 in
     let* plan_seed = G.int_bound 1000 in
     let* drop = G.oneofl [ 0.; 0.05; 0.1 ] in
     let* delay = G.oneofl [ 0.; 0.08; 0.15 ] in
     let* duplicate = G.oneofl [ 0.; 0.05; 0.1 ] in
     let* crash_rank = G.int_bound 3 in
     let* crash_step = G.int_range 1 3 in
     let* tail = G.int_range 1 3 in
     let* ckpt_every = G.int_range 1 3 in
     G.return
       {
         rseed;
         plan_seed;
         drop;
         delay;
         duplicate;
         crash_rank;
         crash_step;
         ckpt_every;
         rsteps = crash_step + tail;
       })

(* ------------------------------------------------------------------ *)
(* Oracle 7: pooled tiled execution vs. serial                         *)
(* ------------------------------------------------------------------ *)

type pool_sample = {
  pl_p2 : bool;         (** false = P1, true = P2 *)
  pl_variant : int;     (** index into φ then μ [Timestep] candidates: 0..3 *)
  pl_n : int;           (** cubic grid edge *)
  pl_tile : int array;  (** loop-depth tile shape; 0 = full extent *)
  pl_domains : int;     (** pool width: 1, 2 or 4 *)
}

let pp_pool ppf (s : pool_sample) =
  Fmt.pf ppf "%s variant %d, %d^3 grid, tile %s, %d domain(s)"
    (if s.pl_p2 then "P2" else "P1")
    s.pl_variant s.pl_n
    (String.concat "x" (Array.to_list (Array.map string_of_int s.pl_tile)))
    s.pl_domains

(* Shrink toward the smallest failing grid first, then toward trivial
   tiles and fewer lanes. *)
let shrink_pool (s : pool_sample) yield =
  if s.pl_n > 4 then yield { s with pl_n = s.pl_n - 1 };
  Array.iteri
    (fun d x ->
      if x > 0 then begin
        let t = Array.copy s.pl_tile in
        t.(d) <- 0;
        yield { s with pl_tile = t }
      end)
    s.pl_tile;
  if s.pl_domains = 4 then yield { s with pl_domains = 2 };
  if s.pl_domains = 2 then yield { s with pl_domains = 1 };
  if s.pl_variant > 0 then yield { s with pl_variant = 0 }

let arb_pool : pool_sample QCheck.arbitrary =
  QCheck.make
    ~print:(Fmt.str "%a" pp_pool)
    ~shrink:shrink_pool
    (let* pl_p2 = G.bool in
     let* pl_variant = G.int_bound 3 in
     let* pl_n = G.int_range 4 8 in
     (* tile extents may exceed the grid or block the innermost depth:
        determinism must hold for every shape, not just the fast ones *)
     let* pl_tile = G.array_size (G.return 3) (G.oneofl [ 0; 1; 2; 3; 5 ]) in
     let* pl_domains = G.oneofl [ 1; 2; 4 ] in
     G.return { pl_p2; pl_variant; pl_n; pl_tile; pl_domains })

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
(* Oracle 10: overlapped exchange vs. sequential                       *)
(* ------------------------------------------------------------------ *)

type overlap_sample = {
  ov_seed : int;        (** initial-condition seed *)
  ov_p2 : bool;         (** false = P1, true = P2 *)
  ov_split : bool;      (** kernel variant for both families *)
  ov_n : int;           (** cubic block edge per rank *)
  ov_grid : int array;  (** ranks per axis *)
  ov_tile : int array;  (** loop-depth tile shape; 0 = full extent *)
  ov_domains : int;     (** pool width of the overlapped run *)
  ov_jit : bool;        (** overlapped run uses the JIT backend *)
  ov_steps : int;
  ov_plan_seed : int;   (** keys the Philox fault-decision streams *)
  ov_drop : float;
  ov_delay : float;
  ov_dup : float;
  ov_crash : bool;      (** kill a rank mid-run; recovery must roll back *)
  ov_crash_rank : int;
  ov_crash_step : int;
  ov_ckpt_every : int;
}

let pp_overlap ppf (s : overlap_sample) =
  Fmt.pf ppf
    "%s %s, %d^3 blocks on %s grid, tile %s, %d domain(s), %s backend, %d step(s), \
     seed %d, plan %d (drop %.2f delay %.2f dup %.2f)%s"
    (if s.ov_p2 then "P2" else "P1")
    (if s.ov_split then "split" else "full")
    s.ov_n
    (String.concat "x" (Array.to_list (Array.map string_of_int s.ov_grid)))
    (String.concat "x" (Array.to_list (Array.map string_of_int s.ov_tile)))
    s.ov_domains
    (if s.ov_jit then "jit" else "interp")
    s.ov_steps s.ov_seed s.ov_plan_seed s.ov_drop s.ov_delay s.ov_dup
    (if s.ov_crash then
       Printf.sprintf ", rank %d dies at step %d, checkpoint every %d" s.ov_crash_rank
         s.ov_crash_step s.ov_ckpt_every
     else "")

(* Shrink toward one clean interpreted step on the smallest grid. *)
let shrink_overlap (s : overlap_sample) yield =
  if s.ov_crash then yield { s with ov_crash = false };
  if s.ov_drop > 0. then yield { s with ov_drop = 0. };
  if s.ov_delay > 0. then yield { s with ov_delay = 0. };
  if s.ov_dup > 0. then yield { s with ov_dup = 0. };
  if s.ov_jit then yield { s with ov_jit = false };
  if (not s.ov_crash) && s.ov_steps > 1 then yield { s with ov_steps = s.ov_steps - 1 };
  if s.ov_n > 4 then yield { s with ov_n = s.ov_n - 1 };
  Array.iteri
    (fun d x ->
      if x > 0 then begin
        let t = Array.copy s.ov_tile in
        t.(d) <- 0;
        yield { s with ov_tile = t }
      end)
    s.ov_tile;
  if s.ov_domains > 1 then yield { s with ov_domains = 1 };
  if Array.fold_left ( * ) 1 s.ov_grid > 2 then yield { s with ov_grid = [| 2; 1; 1 |] };
  if s.ov_p2 then yield { s with ov_p2 = false };
  if s.ov_split then yield { s with ov_split = false }

let arb_overlap : overlap_sample QCheck.arbitrary =
  QCheck.make
    ~print:(Fmt.str "%a" pp_overlap)
    ~shrink:shrink_overlap
    (let* ov_seed = G.int_bound 10_000 in
     let* ov_p2 = G.bool in
     let* ov_split = G.bool in
     let* ov_n = G.int_range 4 6 in
     let* ov_grid = G.oneofl [ [| 2; 1; 1 |]; [| 1; 2; 1 |]; [| 1; 1; 2 |]; [| 2; 2; 1 |] ] in
     (* degenerate shapes included on purpose: interior/shell tiles must be
        bitwise-stable for every decomposition, not just the fast ones *)
     let* ov_tile = G.array_size (G.return 3) (G.oneofl [ 0; 1; 2; 3; 5 ]) in
     let* ov_domains = G.oneofl [ 1; 2; 4 ] in
     let* ov_jit = G.bool in
     let* ov_plan_seed = G.int_bound 1000 in
     let* ov_drop = G.oneofl [ 0.; 0.05; 0.1 ] in
     let* ov_delay = G.oneofl [ 0.; 0.08; 0.15 ] in
     let* ov_dup = G.oneofl [ 0.; 0.05; 0.1 ] in
     let* ov_crash = G.bool in
     let* ov_crash_step = G.int_range 1 2 in
     let* tail = G.int_range 1 2 in
     let* ov_ckpt_every = G.int_range 1 2 in
     let* steps = G.int_range 1 3 in
     let* crash_rank_u = G.int_bound 1000 in
     let ranks = Array.fold_left ( * ) 1 ov_grid in
     G.return
       {
         ov_seed;
         ov_p2;
         ov_split;
         ov_n;
         ov_grid;
         ov_tile;
         ov_domains;
         ov_jit;
         ov_steps = (if ov_crash then ov_crash_step + tail else steps);
         ov_plan_seed;
         ov_drop;
         ov_delay;
         ov_dup;
         ov_crash;
         ov_crash_rank = crash_rank_u mod ranks;
         ov_crash_step;
         ov_ckpt_every;
       })

(* ------------------------------------------------------------------ *)
(* Oracle 11: deterministic reductions                                 *)
(* ------------------------------------------------------------------ *)

type reduce_sample = {
  rd_seed : int;        (** initial-condition seed *)
  rd_grid : int array;  (** rank grid of the forest leg *)
  rd_tile : int array;  (** loop-depth tile shape; 0 = full extent *)
  rd_domains : int;     (** pool width: 1, 2 or 4 *)
  rd_jit : bool;        (** subject legs read cells through the JIT path *)
  rd_op : int;          (** 0 = Sum, 1 = Min, 2 = Max *)
  rd_cell : int;        (** 0/1 = Component, 2 = Interface, 3 = Custom NaN *)
  rd_steps : int;       (** steps to evolve before reducing *)
  rd_plan_seed : int;   (** keys the Philox fault-decision streams *)
  rd_drop : float;
  rd_delay : float;
  rd_dup : float;
}

let pp_reduce ppf (s : reduce_sample) =
  Fmt.pf ppf
    "seed %d, %s rank grid, tile %s, %d domain(s), %s reader, op %d, cellfn %d, \
     %d step(s), plan %d (drop %.2f delay %.2f dup %.2f)"
    s.rd_seed
    (String.concat "x" (Array.to_list (Array.map string_of_int s.rd_grid)))
    (String.concat "x" (Array.to_list (Array.map string_of_int s.rd_tile)))
    s.rd_domains
    (if s.rd_jit then "jit" else "interp")
    s.rd_op s.rd_cell s.rd_steps s.rd_plan_seed s.rd_drop s.rd_delay s.rd_dup

(* Shrink toward an unfaulted serial interpreted sum of component 0 on a
   single rank. *)
let shrink_reduce (s : reduce_sample) yield =
  if s.rd_drop > 0. then yield { s with rd_drop = 0. };
  if s.rd_delay > 0. then yield { s with rd_delay = 0. };
  if s.rd_dup > 0. then yield { s with rd_dup = 0. };
  if s.rd_jit then yield { s with rd_jit = false };
  if s.rd_steps > 0 then yield { s with rd_steps = s.rd_steps - 1 };
  if s.rd_domains > 1 then yield { s with rd_domains = 1 };
  Array.iteri
    (fun d x ->
      if x > 0 then begin
        let t = Array.copy s.rd_tile in
        t.(d) <- 0;
        yield { s with rd_tile = t }
      end)
    s.rd_tile;
  if Array.fold_left ( * ) 1 s.rd_grid > 1 then yield { s with rd_grid = [| 1; 1 |] };
  if s.rd_cell > 0 then yield { s with rd_cell = 0 };
  if s.rd_op > 0 then yield { s with rd_op = 0 }

let arb_reduce : reduce_sample QCheck.arbitrary =
  QCheck.make
    ~print:(Fmt.str "%a" pp_reduce)
    ~shrink:shrink_reduce
    (let* rd_seed = G.int_bound 10_000 in
     let* rd_grid = G.oneofl [ [| 1; 1 |]; [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |] ] in
     (* degenerate tiles included on purpose: exact partials must make
        every decomposition give the same bits *)
     let* rd_tile = G.array_size (G.return 2) (G.oneofl [ 0; 1; 2; 3; 5 ]) in
     let* rd_domains = G.oneofl [ 1; 2; 4 ] in
     let* rd_jit = G.bool in
     let* rd_op = G.int_bound 2 in
     let* rd_cell = G.int_bound 3 in
     let* rd_steps = G.int_bound 2 in
     let* rd_plan_seed = G.int_bound 1000 in
     let* rd_drop = G.oneofl [ 0.; 0.05; 0.1 ] in
     let* rd_delay = G.oneofl [ 0.; 0.08; 0.15 ] in
     let* rd_dup = G.oneofl [ 0.; 0.05; 0.1 ] in
     G.return
       {
         rd_seed;
         rd_grid;
         rd_tile;
         rd_domains;
         rd_jit;
         rd_op;
         rd_cell;
         rd_steps;
         rd_plan_seed;
         rd_drop;
         rd_delay;
         rd_dup;
       })

(* ------------------------------------------------------------------ *)
(* Oracle 5 extension: adaptive block forests                          *)
(* ------------------------------------------------------------------ *)

type adaptive_sample = {
  ad_seed : int;         (** keys the sharp-disc initial condition *)
  ad_bgrid : int array;  (** blocks per axis; every block is 6x6 cells *)
  ad_ranks : int;        (** simulated ranks the blocks are balanced over *)
  ad_static : bool;      (** Static mode: refine once after prime *)
  ad_adapt_every : int;
  ad_steps : int;
  ad_jit : bool;
  ad_domains : int;
  ad_tile : int array;
  ad_plan_seed : int;
  ad_drop : float;
  ad_delay : float;
  ad_dup : float;
  ad_crash : bool;       (** kill a rank mid-run; recovery must roll back *)
  ad_crash_rank : int;
  ad_crash_step : int;
  ad_ckpt_every : int;
}

let pp_adaptive ppf (s : adaptive_sample) =
  Fmt.pf ppf
    "seed %d, %s blocks of 6x6 on %d rank(s), %s mode (every %d), %d step(s), \
     tile %s, %d domain(s), %s backend, plan %d (drop %.2f delay %.2f dup %.2f)%s"
    s.ad_seed
    (String.concat "x" (Array.to_list (Array.map string_of_int s.ad_bgrid)))
    s.ad_ranks
    (if s.ad_static then "static" else "adapt")
    s.ad_adapt_every s.ad_steps
    (String.concat "x" (Array.to_list (Array.map string_of_int s.ad_tile)))
    s.ad_domains
    (if s.ad_jit then "jit" else "interp")
    s.ad_plan_seed s.ad_drop s.ad_delay s.ad_dup
    (if s.ad_crash then
       Printf.sprintf ", rank %d dies at step %d, checkpoint every %d" s.ad_crash_rank
         s.ad_crash_step s.ad_ckpt_every
     else "")

(* Shrink toward one clean interpreted serial step on the smallest forest. *)
let shrink_adaptive (s : adaptive_sample) yield =
  if s.ad_crash then yield { s with ad_crash = false };
  if s.ad_drop > 0. then yield { s with ad_drop = 0. };
  if s.ad_delay > 0. then yield { s with ad_delay = 0. };
  if s.ad_dup > 0. then yield { s with ad_dup = 0. };
  if s.ad_jit then yield { s with ad_jit = false };
  if (not s.ad_crash) && s.ad_steps > 1 then yield { s with ad_steps = s.ad_steps - 1 };
  if s.ad_domains > 1 then yield { s with ad_domains = 1 };
  Array.iteri
    (fun d x ->
      if x > 0 then begin
        let t = Array.copy s.ad_tile in
        t.(d) <- 0;
        yield { s with ad_tile = t }
      end)
    s.ad_tile;
  if (not s.ad_crash) && s.ad_ranks > 1 then yield { s with ad_ranks = 1 };
  if Array.fold_left ( * ) 1 s.ad_bgrid > 4 then yield { s with ad_bgrid = [| 2; 2 |] };
  if s.ad_adapt_every > 1 then yield { s with ad_adapt_every = 1 };
  if not s.ad_static then yield { s with ad_static = true }

let arb_adaptive : adaptive_sample QCheck.arbitrary =
  QCheck.make
    ~print:(Fmt.str "%a" pp_adaptive)
    ~shrink:shrink_adaptive
    (let* ad_seed = G.int_bound 10_000 in
     let* ad_bgrid = G.oneofl [ [| 2; 2 |]; [| 4; 2 |]; [| 2; 4 |] ] in
     let* ad_ranks = G.int_range 1 4 in
     let* ad_static = G.bool in
     let* ad_adapt_every = G.int_range 1 2 in
     let* ad_jit = G.bool in
     let* ad_domains = G.oneofl [ 1; 2; 4 ] in
     let* ad_tile = G.array_size (G.return 2) (G.oneofl [ 0; 1; 2; 3; 5 ]) in
     let* ad_plan_seed = G.int_bound 1000 in
     let* ad_drop = G.oneofl [ 0.; 0.05; 0.1 ] in
     let* ad_delay = G.oneofl [ 0.; 0.08; 0.15 ] in
     let* ad_dup = G.oneofl [ 0.; 0.05; 0.1 ] in
     let* ad_crash = G.bool in
     let* ad_crash_step = G.int_range 1 2 in
     let* tail = G.int_range 1 2 in
     let* ad_ckpt_every = G.int_range 1 2 in
     let* steps = G.int_range 1 3 in
     let* crash_rank_u = G.int_bound 1000 in
     let ranks = if ad_crash then max 2 ad_ranks else ad_ranks in
     G.return
       {
         ad_seed;
         ad_bgrid;
         ad_ranks = ranks;
         ad_static;
         ad_adapt_every;
         ad_steps = (if ad_crash then ad_crash_step + tail else steps);
         ad_jit;
         ad_domains;
         ad_tile;
         ad_plan_seed;
         ad_drop;
         ad_delay;
         ad_dup;
         ad_crash;
         ad_crash_rank = crash_rank_u mod ranks;
         ad_crash_step;
         ad_ckpt_every;
       })

(* ------------------------------------------------------------------ *)
(* Model zoo: families with randomized coefficients                    *)
(* ------------------------------------------------------------------ *)

(** One zoo model at a discrete coefficient variant.  The coefficient
    index (rather than raw floats) keys a process-wide kernel cache in
    the oracles: code generation costs seconds per model, so samples
    draw from a small set of regenerable configurations while the seed,
    decomposition and backend vary freely. *)
type zoo_sample = {
  zf : int;          (** family: 0 = eutectic, 1 = pfc, 2 = gray-scott *)
  zcoef : int;       (** coefficient variant, 0..2; keys the kernel cache *)
  zseed : int;       (** initial-condition seed *)
  zsplit : bool;     (** run the split operator variant *)
  zsteps : int;
  zdomains : int;
  ztile : int array;
  zjit : bool;
}

let zoo_family_name = function
  | 0 -> "eutectic"
  | 1 -> "pfc"
  | _ -> "gray-scott"

(** Family preset at the sample's coefficient variant.  Every variant
    stays inside the stable regime of its family (the oracles compare
    execution paths, so the state must stay finite, not physical). *)
let zoo_params (s : zoo_sample) : Pfcore.Params.t =
  let v = s.zcoef mod 3 in
  match s.zf mod 3 with
  | 0 ->
    let p = Pfcore.Params.eutectic () in
    let scale = [| 1.0; 0.8; 1.2 |].(v) in
    {
      p with
      Pfcore.Params.name = Printf.sprintf "eutectic-z%d" v;
      gamma = Array.map (Array.map (fun g -> g *. scale)) p.Pfcore.Params.gamma;
    }
  | 1 ->
    let p = Pfcore.Params.pfc () in
    {
      p with
      Pfcore.Params.name = Printf.sprintf "pfc-z%d" v;
      family = Pfcore.Params.Pfc { r = [| 0.25; 0.15; 0.35 |].(v) };
    }
  | _ ->
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

let pp_zoo ppf (s : zoo_sample) =
  Fmt.pf ppf "%s coef %d, seed %d, %s variant, %d step(s), %d domain(s), tile %s, %s backend"
    (zoo_family_name (s.zf mod 3))
    (s.zcoef mod 3) s.zseed
    (if s.zsplit then "split" else "full")
    s.zsteps s.zdomains
    (String.concat "x" (Array.to_list (Array.map string_of_int s.ztile)))
    (if s.zjit then "jit" else "interp")

(* Shrink toward one interpreted full-variant serial step with the default
   coefficients.  The family index is deliberately not shrunk: changing
   family mid-shrink would report a counterexample for a different model
   than the one that failed. *)
let shrink_zoo (s : zoo_sample) yield =
  if s.zjit then yield { s with zjit = false };
  if s.zsplit then yield { s with zsplit = false };
  if s.zsteps > 1 then yield { s with zsteps = s.zsteps - 1 };
  if s.zdomains > 1 then yield { s with zdomains = 1 };
  Array.iteri
    (fun d x ->
      if x > 0 then begin
        let t = Array.copy s.ztile in
        t.(d) <- 0;
        yield { s with ztile = t }
      end)
    s.ztile;
  if s.zcoef mod 3 > 0 then yield { s with zcoef = 0 };
  if s.zseed > 0 then yield { s with zseed = s.zseed / 2 }

let arb_zoo : zoo_sample QCheck.arbitrary =
  QCheck.make
    ~print:(Fmt.str "%a" pp_zoo)
    ~shrink:shrink_zoo
    (let* zf = G.int_bound 2 in
     let* zcoef = G.int_bound 2 in
     let* zseed = G.int_bound 10_000 in
     let* zsplit = G.bool in
     let* zsteps = G.int_range 1 3 in
     let* zdomains = G.oneofl [ 1; 2; 4 ] in
     let* ztile = G.array_size (G.return 2) (G.oneofl [ 0; 1; 2; 3; 5 ]) in
     let* zjit = G.bool in
     G.return { zf; zcoef; zseed; zsplit; zsteps; zdomains; ztile; zjit })

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
