(** JIT: the fast tier, the kernels the paper prints, built with the
    system C compiler at run time.

    A program is one kernel under one loop order, printed for one target —
    AVX-512 or AVX2 intrinsics ({!Backend.Simd}), or scalar C
    ({!Backend.Ccode}) — exactly as [pfgen gen-c] prints it, plus the
    fixed-ABI entry [Backend.Ccode.entry].  {!prepare} builds a batch of
    programs in one fan-out of compiler runs, one per translation unit, and
    loads them as one object ({!Jit_cc}); a sweep then calls one program
    entry per tile through one [@@noalloc] stub call, with the whole loop
    nest inside the C function.

    Bitwise contract: the printers follow the interpreter's evaluation
    contract (see {!Backend.Cexpr}) and the build neither contracts nor
    reassociates, so a program writes the interpreter's bits — oracle 8,
    the fast-tier fuzz oracle and the [jit] suite hold it to that.  The
    interpreter ([Engine.compile]) stays the reference.

    Fallback: when the fast tier is off ([PFGEN_JIT_NATIVE=0]) or gcc is
    missing, every program of the batch records why; when a unit's compile
    fails or times out, every program of that unit does (a failed link,
    every program compiled).  The gated [jit.fallback] counter counts them,
    and their sweeps run the interpreter.

    A program never captures buffer storage: [Buffer.swap] swaps the [data]
    fields under us between sweeps, so the engine keeps the buffer records
    and reads their arrays per sweep.  Sizes, strides and ghost width are
    arguments, so a program depends only on (kernel structure, loop order,
    target) — the digest of that tuple ({!fingerprint}) is the memo key,
    and one program serves every block size.  The engine computes a kernel's key once, in its
    shared program, and passes it to {!get}.  The unit of compilation is a
    batch of programs ({!prepare}): the farm builds every program its
    batch will sweep before the batch's first quantum, and a time step
    every program it will sweep before its first sweep, because the
    compiler's fixed start-up cost dominates a small run; the batch is
    split over the host's cores, because one compiler run uses one. *)

(** What a program is printed for: a vector ISA, or [None] for scalar C. *)
type target = Backend.Simd.isa option

(** The target the engine's programs use on this host ({!Jit_cc.host_isa}). *)
let host_target () : target = Jit_cc.host_isa ()

let target_label : target -> string = function
  | Some isa -> String.lowercase_ascii (Backend.Simd.isa_name isa)
  | None -> "scalar"

(** A built program.  Its entry reads the field table in [Ir.Kernel.fields]
    order and the values of [Ir.Kernel.parameters] followed by [dx], the
    tables the engine's resolved sweep holds for either executor. *)
type compiled = {
  fingerprint : Digest.t;
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

(* One translation unit: the header its programs' ISAs need, then the
   programs, each printed with its batch index [i] ({!program_source}). *)
let source_unit programs =
  let requests = List.map (fun (_, r, _) -> r) programs in
  let isas = List.sort_uniq compare (List.filter_map effective requests) in
  let header =
    (if isas = [] then "" else Jit_cc.intrinsics_header)
    ^ Backend.Cexpr.prelude
    ^ String.concat "" (List.map Backend.Simd.prelude isas)
  in
  {
    Jit_cc.isa = List.fold_left (fun b isa -> max b (Some isa)) None isas;
    source =
      String.concat "\n"
        (("/* generated by Vm.Jit */\n" ^ header) :: List.map (fun (_, _, src) -> src) programs);
    entries = List.map (fun (i, _, _) -> Printf.sprintf "pf_e%d" i) programs;
  }

(* Deal the printed programs into [units] translation units: longest
   source first, each to the unit with the least source so far (the lower
   unit on a tie), so the units' compiles end close together.  A unit
   keeps its programs in batch order. *)
let split ~units programs =
  let bins = Array.make units (0, []) in
  List.stable_sort
    (fun (_, _, a) (_, _, b) -> compare (String.length b) (String.length a))
    programs
  |> List.iter (fun ((_, _, src) as p) ->
         let k = ref 0 in
         Array.iteri (fun j (size, _) -> if size < fst bins.(!k) then k := j) bins;
         let size, members = bins.(!k) in
         bins.(!k) <- (size + String.length src, p :: members));
  Array.to_list bins
  |> List.map (fun (_, members) -> List.sort (fun (i, _, _) (j, _, _) -> compare i j) members)

(* Build [requests] as [units] translation units in one fan-out
   ({!Jit_cc.build}); the programs of a unit that fails fall back to the
   interpreter and note why. *)
let compile_all ?cc ?timeout_s ~units requests =
  let units = split ~units (List.mapi (fun i r -> (i, r, program_source i r)) requests) in
  let built = Jit_cc.build ?cc ?timeout_s (List.map source_unit units) in
  List.concat_map
    (fun (members, result) ->
      if Result.is_error result then Obs.Metrics.count "jit.fallback" (List.length members);
      List.mapi
        (fun j (_, (r : request), _) ->
          let entry, tier =
            match result with
            | Ok fns -> (Some fns.(j), target_label (effective r))
            | Error why -> (None, "fallback: " ^ why)
          in
          { fingerprint = r.key; entry; tier })
        members)
    (List.combine units built)

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
   engine computes it once per kernel program ([Engine.program]) and hands
   the result to [get]. *)
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

(** Compile every program of [requests] that the memo table lacks, and
    enter them all: the programs of the jobs a farm batch is about to run
    ([Serve.Scheduler]), of a time step's plan ([Core.Timestep]), or the
    one program a sweep missed ({!get}).  The fresh programs are dealt,
    longest printed source first, into at most [units] translation units
    (default: [Domain.recommended_domain_count ()], the host's cores — the
    compiler runs in child processes while this domain waits, so the
    fan-out counts cores, not the pool's width), compiled at once and
    loaded as one object ({!Jit_cc.build}).  Each program compiled is one
    miss.  With the sink on, one [vm.jit.compile] span, carrying the
    program and unit counts, brackets the build, and
    [vm.jit.compile_ns] records its duration.  [cc] replaces the compiler
    command and [timeout_s] its time limit (tests). *)
let prepare ?cc ?units ?timeout_s requests =
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
    let units =
      max 1 (min n (Option.value units ~default:(Domain.recommended_domain_count ())))
    in
    let build () = compile_all ?cc ?timeout_s ~units fresh in
    let programs =
      if not (Obs.Sink.enabled ()) then build ()
      else begin
        let programs, ns =
          Obs.Clock.time_ns (fun () ->
              Obs.Span.with_ ~cat:"vm"
                ~args:[ ("programs", float_of_int n); ("units", float_of_int units) ]
                "vm.jit.compile" build)
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
  match Hashtbl.find cache key with
  | c ->
    incr hits;
    Obs.Metrics.count "jit.hit" 1;
    c
  | exception Not_found ->
    prepare [ { key; target; kernel; lowered } ];
    Hashtbl.find cache key

(** The entry's int table for one tile ([Backend.Ccode.abi_ints]), read
    by a JIT program's entry and by the VM alike: [lo]/[hi] the inclusive
    loop bounds per depth, [stride] and [comp_stride] the block's buffer
    layout (shared by every field), the ghost width, and the block's global
    offset and extent.  The time step, the table's last slot, is the one
    that changes between sweeps of a tile: {!set_step} writes it. *)
let tile_ints ~dim ~(stride : int array) ~comp_stride ~ghost ~(offset : int array)
    ~(global_dims : int array) ~(lo : int array) ~(hi : int array) =
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
  a

let set_step ints step = Array.unsafe_set ints (Array.length ints - 1) step
