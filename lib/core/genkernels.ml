(** Kernel generation: PDE layer → discretization → optimized kernels.

    Produces the four kernel variants of the paper ("φ-full", "φ-split",
    "μ-full", "μ-split", Algorithm 1) plus the simplex-projection kernel,
    running the full optimization pipeline: per-term simplification,
    compile-time parameter freezing with constant folding, and global CSE. *)

open Symbolic
open Field

type pair = { stag : Ir.Kernel.t; main : Ir.Kernel.t }

type t = {
  params : Params.t;
  fields : Model.fields;
  phi_full : Ir.Kernel.t;
  phi_split : pair;
  mu_full : Ir.Kernel.t option;
  mu_split : pair option;
  projection : Ir.Kernel.t option;
      (** [None] for families whose fields are not simplex-constrained *)
  bindings : (string * float) list;
      (** parameter values; kernel arguments when generated symbolically,
          already folded into the code otherwise *)
}

type options = {
  symbolic_params : bool;  (** keep model parameters as runtime arguments *)
  simplify : bool;         (** per-term expand-or-factor pass *)
  cse : bool;              (** global common subexpression elimination *)
}

let default_options = { symbolic_params = false; simplify = true; cse = true }

let guard_bindings = [ ("q_eps", 1e-12) ]

let optimize (opts : options) ~bindings body =
  let body = if opts.simplify then Assignment.simplify body else body in
  let body =
    if opts.symbolic_params then Assignment.freeze_parameters guard_bindings body
    else Assignment.freeze_parameters (guard_bindings @ bindings) body
  in
  let body = if opts.cse then Assignment.cse body else body in
  body

let scheme_of (opts : options) (p : Params.t) =
  let dx = if opts.symbolic_params then Expr.sym "dx" else Expr.num p.dx in
  Fd.Discretize.create ~dx ~dim:p.dim ()

(* dst_α = src_α + dt * rhs_α for every component *)
let euler_stores ctx (p : Params.t) ~src ~dst rhs_list =
  let dt = Model.scalar ctx "dt" p.dt in
  List.mapi
    (fun comp rhs ->
      let src_acc = Fieldspec.center ~component:comp src in
      let dst_acc = Fieldspec.center ~component:comp dst in
      Fd.Discretize.explicit_euler ~dt ~src:src_acc ~dst:dst_acc rhs)
    rhs_list

let make_full opts ctx p ~name ~src ~dst rhs_continuous =
  let scheme = scheme_of opts p in
  let rhs = List.map (Fd.Discretize.discretize scheme) rhs_continuous in
  let body = optimize opts ~bindings:ctx.Model.bindings (euler_stores ctx p ~src ~dst rhs) in
  Ir.Kernel.make ~name ~dim:p.dim body

let make_split opts ctx p ~name ~src ~dst ~stag_field rhs_continuous =
  let scheme = scheme_of opts p in
  let registry = Fd.Discretize.make_registry stag_field in
  let rhs = List.map (Fd.Discretize.discretize_split scheme ~registry) rhs_continuous in
  let stag_body =
    optimize opts ~bindings:ctx.Model.bindings (Fd.Discretize.registry_kernel_body registry)
  in
  let main_body = optimize opts ~bindings:ctx.Model.bindings (euler_stores ctx p ~src ~dst rhs) in
  let axes = List.init p.dim Fun.id in
  {
    stag =
      Ir.Kernel.make ~iteration:(Ir.Kernel.StaggeredSweep axes) ~name:(name ^ "_stag")
        ~dim:p.dim stag_body;
    main = Ir.Kernel.make ~name:(name ^ "_main") ~dim:p.dim main_body;
  }

(** Gibbs-simplex projection run in place on the updated phase field:
    clip to [0,∞) and renormalize the sum to 1 (the obstacle potential is
    only valid inside the simplex). *)
let projection_kernel (p : Params.t) (f : Model.fields) =
  let open Expr in
  let n = p.n_phases in
  let clipped =
    List.init n (fun a ->
        Assignment.assign_temp
          (Printf.sprintf "clip_%d" a)
          (fmax_ (field ~component:a f.phi_dst) zero))
  in
  let inv_sum =
    Assignment.assign_temp "inv_sum"
      (pow (fmax_ (add (List.init n (fun a -> sym (Printf.sprintf "clip_%d" a)))) (num 1e-12))
         (-1))
  in
  let stores =
    List.init n (fun a ->
        Assignment.store
          (Fieldspec.center ~component:a f.phi_dst)
          (mul [ sym (Printf.sprintf "clip_%d" a); sym "inv_sum" ]))
  in
  Ir.Kernel.make ~name:"projection" ~dim:p.dim (clipped @ [ inv_sum ] @ stores)

(** Generate all kernels of a model instance. *)
let generate ?(opts = default_options) (p : Params.t) =
  let f = Model.make_fields p in
  let ctx = Model.make_ctx ~symbolic:opts.symbolic_params in
  let phi_rhs = Array.to_list (Model.phi_rhs ctx p f) in
  let phi_full = make_full opts ctx p ~name:"phi_full" ~src:f.phi_src ~dst:f.phi_dst phi_rhs in
  let phi_split =
    make_split opts ctx p ~name:"phi_split" ~src:f.phi_src ~dst:f.phi_dst
      ~stag_field:f.phi_stag phi_rhs
  in
  let mu_rhs = Array.to_list (Model.mu_rhs ctx p f) in
  let mu_full, mu_split =
    if mu_rhs = [] then (None, None)
    else
      ( Some (make_full opts ctx p ~name:"mu_full" ~src:f.mu_src ~dst:f.mu_dst mu_rhs),
        Some
          (make_split opts ctx p ~name:"mu_split" ~src:f.mu_src ~dst:f.mu_dst
             ~stag_field:f.mu_stag mu_rhs) )
  in
  {
    params = p;
    fields = f;
    phi_full;
    phi_split;
    mu_full;
    mu_split;
    projection = (if Model.needs_projection p then Some (projection_kernel p f) else None);
    bindings = guard_bindings @ ctx.Model.bindings;
  }

(** Operation counts of a kernel body (paper Table 1 rows). *)
let counts (k : Ir.Kernel.t) = Opcount.of_assignments k.Ir.Kernel.body
