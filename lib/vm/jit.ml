(** JIT: the fast tier, the kernels the paper prints, built with the
    system C compiler at run time.

    A program is one kernel under one loop order, printed for one target —
    AVX-512 or AVX2 intrinsics ({!Backend.Simd}), or scalar C
    ({!Backend.Ccode}) — exactly as [pfgen gen-c] prints it, plus the
    fixed-ABI entry [Backend.Ccode.entry].  {!prepare} builds a batch of
    programs in one compiler run ({!Jit_cc}); a sweep then calls one
    program entry per tile through one [@@noalloc] stub call, with the
    whole loop nest inside the C function.

    Bitwise contract: the printers follow the interpreter's evaluation
    contract (see {!Backend.Cexpr}) and the build neither contracts nor
    reassociates, so a program writes the interpreter's bits — oracle 8,
    the fast-tier fuzz oracle and the [jit] suite hold it to that.  The
    interpreter ([Engine.compile]) stays the reference.

    Fallback: when the fast tier is off ([PFGEN_JIT_NATIVE=0]), gcc is
    missing, or a build fails, every program of the batch records why, the
    gated [jit.fallback] counter counts it, and its sweeps run the
    interpreter.

    A program never captures buffer storage: [Buffer.swap] swaps the [data]
    fields under us between sweeps, so the engine resolves the field arrays
    per sweep.  Sizes, strides and ghost width are arguments, so a program
    depends only on (kernel structure, loop order, target) — the digest of
    that tuple ({!fingerprint}) is the memo key, and one program serves
    every block size.  Each engine binding computes its key once and
    passes it to {!get}.  The unit of compilation is a batch of programs
    ({!prepare}): a time step builds every program it will sweep in one
    compiler run, because the compiler's fixed start-up cost dominates a
    run. *)

open Symbolic

(** What a program is printed for: a vector ISA, or [None] for scalar C. *)
type target = Backend.Simd.isa option

(** The target the engine's programs use on this host ({!Jit_cc.host_isa}). *)
let host_target () : target = Jit_cc.host_isa ()

let target_label : target -> string = function
  | Some isa -> String.lowercase_ascii (Backend.Simd.isa_name isa)
  | None -> "scalar"

type compiled = {
  fingerprint : Digest.t;
  dim : int;
  fields : Fieldspec.t array;  (** [Ir.Kernel.fields] order: the entry's field table *)
  param_names : string array;  (** [Ir.Kernel.parameters]; the entry takes [dx] after them *)
  entry : nativeint option;    (** [None]: the build failed, sweeps run the interpreter *)
  tier : string;               (** the target built ({!target_label}), or
                                   ["fallback: <why>"] *)
}

(** A program to compile: its memo key ({!fingerprint}) and what the key
    digests. *)
type request = { key : Digest.t; target : target; kernel : Ir.Kernel.t; lowered : Ir.Lower.t }

(* The target a request is printed for: vector code only where the
   printer vectorizes. *)
let effective (r : request) =
  match r.target with Some _ when Backend.Simd.vectorizes r.lowered -> r.target | _ -> None

let program_source i (r : request) =
  let name = Printf.sprintf "pf_k%d" i in
  let kernel =
    match effective r with
    | Some isa -> Backend.Simd.emit_kernel ~isa ~openmp:false ~static:true ~name r.lowered
    | None -> Backend.Ccode.emit ~openmp:false ~static:true ~name r.lowered
  in
  Printf.sprintf "/* %s */\n%s%s" r.kernel.Ir.Kernel.name kernel
    (Backend.Ccode.entry ~name:(Printf.sprintf "pf_e%d" i) ~kernel:name r.lowered)

(** The translation unit of one compiler run, and the ISA flags it needs. *)
let source requests =
  let isas = List.sort_uniq compare (List.filter_map effective requests) in
  let best = List.fold_left (fun b isa -> max b (Some isa)) None isas in
  let header =
    (if isas = [] then "" else Jit_cc.intrinsics_header)
    ^ Backend.Cexpr.prelude
    ^ String.concat "" (List.map Backend.Simd.prelude isas)
  in
  ( String.concat "\n"
      (("/* generated by Vm.Jit */\n" ^ header) :: List.mapi program_source requests),
    best )

(* Build [requests] in one compiler run; if it fails, every program falls
   back to the interpreter and notes why. *)
let compile_all ?cc requests =
  let src, isa = source requests in
  let entries = List.mapi (fun i _ -> Printf.sprintf "pf_e%d" i) requests in
  let built = Jit_cc.build ?cc ~isa ~source:src entries in
  (match built with
  | Error _ -> Obs.Metrics.count "jit.fallback" (List.length requests)
  | Ok _ -> ());
  List.mapi
    (fun i (r : request) ->
      let k = r.kernel in
      let entry, tier =
        match built with
        | Ok fns -> (Some fns.(i), target_label (effective r))
        | Error why -> (None, "fallback: " ^ why)
      in
      {
        fingerprint = r.key;
        dim = k.Ir.Kernel.dim;
        fields = Array.of_list (Ir.Kernel.fields k);
        param_names = Array.of_list (Ir.Kernel.parameters k);
        entry;
        tier;
      })
    requests

(* ------------------------------------------------------------------ *)
(* Memo table                                                          *)
(* ------------------------------------------------------------------ *)

(* Structural fingerprint over everything the printed code depends on:
   the full kernel body plus loop order and target.  The body is digested
   via [Marshal] (the [Snapshot.fingerprint_of_params] idiom) rather than
   [Hashtbl.hash_param]: the hash traversal budget truncates large
   kernels, and model variants that differ only deep in the expression
   tree — the zoo's coefficient variants, for one — would collide and
   hand a program compiled for a *different* model back to the engine
   (bitwise divergence, caught by the oracle-8 zoo leg).  Marshalling and
   digesting the body costs as much as a small block's sweep, so the
   engine computes it once per binding ([Engine.jit_key]) and hands the
   result to [get]. *)
let fingerprint ?(target = host_target ()) (kernel : Ir.Kernel.t) (lowered : Ir.Lower.t) =
  Digest.string
    (Marshal.to_string
       ( kernel.Ir.Kernel.name,
         kernel.Ir.Kernel.dim,
         kernel.Ir.Kernel.ghost,
         kernel.Ir.Kernel.body,
         Array.to_list lowered.Ir.Lower.loop_order,
         target_label target )
       [])

let cache : (Digest.t, compiled) Hashtbl.t = Hashtbl.create 16
let hits = ref 0
let misses = ref 0

let cache_stats () = (!hits, !misses)

let clear_cache () =
  Hashtbl.reset cache;
  hits := 0;
  misses := 0

(** The programs in the memo table, counted per tier ({!compiled.tier}). *)
let tiers () =
  let all = Hashtbl.fold (fun _ c acc -> c.tier :: acc) cache [] in
  List.map
    (fun t -> (t, List.length (List.filter (String.equal t) all)))
    (List.sort_uniq compare all)

(** Compile every program of [requests] that the memo table lacks in one
    compiler run, and enter them all: the programs a time step's plan is
    about to sweep ([Core.Timestep]), or the one program a sweep missed
    ({!get}).  Each program compiled is one miss.  With the sink on, one
    [vm.jit.compile] span, carrying the program count, brackets the run,
    and [vm.jit.compile_ns] records its duration.  [cc] replaces the
    compiler command (tests). *)
let prepare ?cc requests =
  let fresh =
    List.fold_left
      (fun acc r ->
        if Hashtbl.mem cache r.key || List.exists (fun q -> q.key = r.key) acc then acc
        else r :: acc)
      [] requests
    |> List.rev
  in
  match fresh with
  | [] -> ()
  | fresh ->
    let n = List.length fresh in
    misses := !misses + n;
    Obs.Metrics.count "jit.miss" n;
    let build () = compile_all ?cc fresh in
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

(** The compiled program for [kernel], looked up under [key], which must be
    [fingerprint ~target kernel lowered] (the caller computes it once and
    reuses it, so a lookup costs one digest hash, not a pass over the
    body).  A
    miss compiles the program alone through {!prepare}.  The engine looks
    up once per sweep, so [cache_stats] misses count programs compiled and
    hits count sweeps that found theirs, compiled by an earlier sweep or by
    a plan (the zero-recompile-after-warmup gate watches the miss count).
    The [jit.hit]/[jit.miss] counters mirror them when the sink is on. *)
let get ?(target = host_target ()) key (kernel : Ir.Kernel.t) (lowered : Ir.Lower.t) =
  match Hashtbl.find_opt cache key with
  | Some c ->
    incr hits;
    Obs.Metrics.count "jit.hit" 1;
    c
  | None ->
    prepare [ { key; target; kernel; lowered } ];
    Hashtbl.find cache key

(** Execute one tile through [entry]: [datas] is the per-sweep field
    storage table aligned with [fields], [pvals] the parameter values in
    [param_names] order followed by [dx], [lo]/[hi] the inclusive loop
    bounds per depth.  [stride] and [comp_stride] are the block's buffer
    layout (shared by every field). *)
let exec_tile (c : compiled) entry ~datas ~pvals ~(stride : int array) ~comp_stride ~ghost
    ~(offset : int array) ~(global_dims : int array) ~step ~(lo : int array) ~(hi : int array)
    =
  let dim = c.dim in
  let a = Array.make (Backend.Ccode.abi_ints ~dim) 0 in
  for d = 0 to dim - 1 do
    a.(2 * d) <- lo.(d);
    a.((2 * d) + 1) <- hi.(d) + 1;
    a.((2 * dim) + d) <- stride.(d);
    a.((3 * dim) + 2 + d) <- offset.(d);
    a.((4 * dim) + 2 + d) <- global_dims.(d)
  done;
  a.(3 * dim) <- comp_stride;
  a.((3 * dim) + 1) <- ghost;
  a.((5 * dim) + 2) <- step;
  Jit_cc.run entry datas pvals a
