(* JIT backend battery (mirrors test_pool.ml): compile-cache hit/miss
   accounting through Obs counters, recompilation on fingerprint changes,
   the engine edge cases (empty interior, tile larger than the sweep) under
   the compiled backend, exception safety of pooled compiled sweeps, the
   tuner's backend decision, one compiler fan-out per time-step plan kept
   out of the kernel spans, a batch split into translation units (bitwise,
   and a failed or hung unit falling back alone), the compiler's scratch
   files and children, and the golden JIT trace with its vm.jit.compile
   span. *)

open Symbolic
open Expr

let with_obs f =
  Obs.Metrics.reset ();
  Obs.Sink.clear ();
  Obs.Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.disable ();
      Obs.Sink.clear ();
      Obs.Metrics.reset ())
    f

let f2 = Fieldspec.scalar ~dim:2 "f"
let g2 = Fieldspec.scalar ~dim:2 "g"

let avg_kernel ?(coeff = 0.2) () =
  let acc d k = access (Fieldspec.shift (Fieldspec.center f2) d k) in
  let rhs = mul [ num coeff; add [ field f2; acc 0 1; acc 0 (-1); acc 1 1; acc 1 (-1) ] ] in
  Ir.Kernel.make ~name:"avg" ~dim:2 [ Field.Assignment.store (Fieldspec.center g2) rhs ]

let run_avg ?tile ?(backend = Vm.Engine.Jit) ?(ghost = 1) ?coeff ~num_domains ~dims () =
  let block = Vm.Engine.make_block ~ghost ~dims [ f2; g2 ] in
  let fbuf = Vm.Engine.buffer block f2 in
  Vm.Buffer.init fbuf (fun c _ -> float_of_int ((c.(0) * 3) + (c.(1) * 7)));
  Vm.Buffer.periodic fbuf;
  Vm.Engine.run ?tile ~num_domains ~backend ~params:[]
    (Vm.Engine.bind (avg_kernel ?coeff ()) block);
  block

let buffers_bits_equal a b =
  List.for_all2
    (fun (_, (x : Vm.Buffer.t)) (_, (y : Vm.Buffer.t)) ->
      let ok = ref true in
      Array.iteri
        (fun i v ->
          if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float y.Vm.Buffer.data.(i)))
          then ok := false)
        x.Vm.Buffer.data;
      !ok)
    a.Vm.Engine.buffers b.Vm.Engine.buffers

(* ---- compile cache accounting ---- *)

(* One sweep compiles, every further sweep is a memo hit; the jit.hit /
   jit.miss counters mirror Jit.cache_stats exactly. *)
let test_cache_counters () =
  with_obs (fun () ->
      Vm.Jit.clear_cache ();
      ignore (run_avg ~num_domains:1 ~dims:[| 8; 6 |] ());
      let h1, m1 = Vm.Jit.cache_stats () in
      Alcotest.(check int) "first sweep is the only miss" 1 m1;
      Alcotest.(check int) "first sweep has no hit" 0 h1;
      for _ = 1 to 5 do
        ignore (run_avg ~num_domains:1 ~dims:[| 8; 6 |] ())
      done;
      let h2, m2 = Vm.Jit.cache_stats () in
      Alcotest.(check int) "no recompilation across warm sweeps" 1 m2;
      Alcotest.(check int) "every warm sweep hits the memo table" 5 h2;
      let s = Obs.Metrics.snapshot () in
      let v name = Option.value ~default:0 (Obs.Metrics.counter_value s name) in
      Alcotest.(check int) "jit.miss counter mirrors cache_stats" m2 (v "jit.miss");
      Alcotest.(check int) "jit.hit counter mirrors cache_stats" h2 (v "jit.hit"))

(* A changed kernel body is a new fingerprint and must recompile; sizes,
   strides and ghost width are arguments of the program, so changed dims or
   a changed ghost width reuse it — bit for bit the interpreter's result —
   and re-running the original still hits. *)
let test_recompile_on_fingerprint_change () =
  Vm.Jit.clear_cache ();
  ignore (run_avg ~num_domains:1 ~dims:[| 8; 6 |] ());
  Alcotest.(check int) "baseline compiled once" 1 (snd (Vm.Jit.cache_stats ()));
  (* changed coefficient -> deep body hash differs *)
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 8; 6 |] [ f2; g2 ] in
  Vm.Engine.run_plain ~backend:Vm.Engine.Jit ~params:[]
    (Vm.Engine.bind (avg_kernel ~coeff:0.25 ()) block);
  Alcotest.(check int) "changed coefficient recompiles" 2 (snd (Vm.Jit.cache_stats ()));
  (* changed dims or ghost -> same program, the interpreter's bits *)
  List.iter
    (fun (ghost, dims) ->
      let jit = run_avg ~ghost ~num_domains:1 ~dims () in
      let interp = run_avg ~backend:Vm.Engine.Interp ~ghost ~num_domains:1 ~dims () in
      Alcotest.(check bool)
        (Printf.sprintf "ghost %d, %dx%d: reused program = interp (bitwise)" ghost dims.(0)
           dims.(1))
        true (buffers_bits_equal interp jit))
    [ (1, [| 6; 6 |]); (2, [| 8; 6 |]); (3, [| 13; 4 |]) ];
  Alcotest.(check int) "changed dims or ghost reuse the program" 2
    (snd (Vm.Jit.cache_stats ()));
  (* the original is still cached *)
  ignore (run_avg ~num_domains:1 ~dims:[| 8; 6 |] ());
  Alcotest.(check int) "original program still cached" 2 (snd (Vm.Jit.cache_stats ()))

(* Two kernels whose bodies agree on a long prefix (hundreds of terms, far
   past any hash traversal budget) and differ only in the canonically-last
   term.  The terms are sines of distinct multiples of f, which the
   simplifier cannot merge, so the bodies really are that long.  A
   truncated hash of the body collides here, and the memo table would hand
   variant B the program compiled for variant A — exactly how the zoo's
   coefficient variants of the large eutectic kernel bit the oracle-8
   battery.  The full-body digest, which every kernel program computes once
   and reuses as its memo key, must keep the variants apart, and each
   compiled run must match its own interpreter run bitwise. *)
let deep_variant_kernel ~tail =
  let term c = fn Sin [ mul [ num c; field f2 ] ] in
  let prefix = List.init 600 (fun i -> term (0.001 *. float_of_int (i + 1))) in
  (* [tail] exceeds every prefix coefficient, so the canonical Add sort
     keeps the differing term last — beyond a truncated traversal. *)
  let rhs = add (term tail :: prefix) in
  Ir.Kernel.make ~name:"deep" ~dim:2 [ Field.Assignment.store (Fieldspec.center g2) rhs ]

let run_deep ~backend k =
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 6; 5 |] [ f2; g2 ] in
  let fbuf = Vm.Engine.buffer block f2 in
  Vm.Buffer.init fbuf (fun c _ -> float_of_int ((c.(0) * 3) + (c.(1) * 7)));
  Vm.Buffer.periodic fbuf;
  Vm.Engine.run_plain ~backend ~params:[] (Vm.Engine.bind k block);
  block

let test_no_collision_on_deep_variants () =
  let ka = deep_variant_kernel ~tail:100. and kb = deep_variant_kernel ~tail:200. in
  Alcotest.(check bool) "the simplifier keeps all 601 terms" true
    (Expr.count_nodes (List.hd ka.Ir.Kernel.body).Field.Assignment.rhs > 601);
  Alcotest.(check int) "a truncated hash cannot tell the bodies apart"
    (Hashtbl.hash ka.Ir.Kernel.body) (Hashtbl.hash kb.Ir.Kernel.body);
  let fp k = Vm.Jit.fingerprint k (Ir.Lower.run k) in
  Alcotest.(check bool) "deep variants fingerprint apart" false (fp ka = fp kb);
  Vm.Jit.clear_cache ();
  let ja = run_deep ~backend:Vm.Engine.Jit ka in
  let jb = run_deep ~backend:Vm.Engine.Jit kb in
  Alcotest.(check int) "each variant compiles its own program" 2
    (snd (Vm.Jit.cache_stats ()));
  let ia = run_deep ~backend:Vm.Engine.Interp ka in
  let ib = run_deep ~backend:Vm.Engine.Interp kb in
  Alcotest.(check bool) "variant A jit = interp (bitwise)" true (buffers_bits_equal ia ja);
  Alcotest.(check bool) "variant B jit = interp (bitwise)" true (buffers_bits_equal ib jb)

(* ---- a warm sweep pays for its cells, not for its kernel body ---- *)

let curvature_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()))
let eutectic_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.eutectic ()))

(* The memo key digests the whole marshalled body, so a sweep that
   recomputed it would allocate at least the body's marshalled size.  A
   warm JIT sweep of eutectic φ-full on a 2x2 block — four cells, so the
   fixed cost is all there is — must allocate less than that: the key is
   computed once per kernel program, by its first JIT sweep. *)
let test_warm_sweep_independent_of_body () =
  let sim =
    Pfcore.Timestep.create ~backend:Vm.Engine.Jit ~num_domains:1 ~dims:[| 2; 2 |]
      (Lazy.force eutectic_gen)
  in
  let bound = List.hd sim.Pfcore.Timestep.phi in
  let params = Pfcore.Timestep.runtime_params sim in
  let sweep () = Vm.Engine.run ~num_domains:1 ~backend:Vm.Engine.Jit ~params bound in
  sweep ();
  sweep ();
  let minor0, _, major0 = Gc.counters () in
  sweep ();
  let minor1, _, major1 = Gc.counters () in
  let words = int_of_float (minor1 -. minor0 +. (major1 -. major0)) in
  let body_words =
    String.length (Marshal.to_string bound.Vm.Engine.kernel.Ir.Kernel.body [])
    / (Sys.word_size / 8)
  in
  Alcotest.(check bool)
    (Printf.sprintf "warm sweep allocates %d words < %d-word marshalled body" words
       body_words)
    true (words < body_words)

(* The key is the kernel's program's, forced by its first JIT sweep only:
   interpreter sweeps compute nothing, and a later binding of the kernel
   finds it computed.  The kernel is private to this test: programs are
   shared process-wide, so any other test's JIT sweep of a shared kernel
   would already have forced its key. *)
let test_key_computed_by_jit_sweeps_only () =
  let k = avg_kernel ~coeff:0.37 () in
  let block () = Vm.Engine.make_block ~ghost:1 ~dims:[| 6; 5 |] [ f2; g2 ] in
  let b = Vm.Engine.bind k (block ()) in
  let forced (b : Vm.Engine.bound) = Lazy.is_val b.Vm.Engine.jit_key in
  Vm.Engine.run ~num_domains:1 ~backend:Vm.Engine.Interp ~params:[] b;
  Vm.Engine.run ~num_domains:1 ~backend:Vm.Engine.Interp ~params:[] b;
  Alcotest.(check bool) "interpreter sweeps compute no key" false (forced b);
  Vm.Engine.run ~num_domains:1 ~backend:Vm.Engine.Jit ~params:[] b;
  Alcotest.(check bool) "the first jit sweep computes it" true (forced b);
  Alcotest.(check bool) "a new binding finds it computed" true
    (forced (Vm.Engine.bind k (block ())))

(* Binding a kernel whose program exists costs a ghost check and a record,
   not a pass over the kernel: binding eutectic φ-full to a fresh block
   allocates fewer words than its marshalled body. *)
let test_rebind_independent_of_body () =
  let k = (Lazy.force eutectic_gen).Pfcore.Genkernels.phi_full in
  let block () = Pfcore.Timestep.probe_block (Lazy.force eutectic_gen) ~dims:[| 2; 2 |] in
  ignore (Vm.Engine.bind k (block ()));
  let fresh = block () in
  let minor0, _, major0 = Gc.counters () in
  let b = Vm.Engine.bind k fresh in
  let minor1, _, major1 = Gc.counters () in
  let words = int_of_float (minor1 -. minor0 +. (major1 -. major0)) in
  let body_words =
    String.length (Marshal.to_string k.Ir.Kernel.body []) / (Sys.word_size / 8)
  in
  Alcotest.(check bool)
    (Printf.sprintf "rebinding allocates %d words < %d-word marshalled body" words body_words)
    true (words < body_words);
  Alcotest.(check bool) "and resolves no sweep" true (b.Vm.Engine.sweeps = [])

(* The vm.bind.codes counter over two steps of freshly generated kernels:
   an interpreted step builds one VM program per distinct program; a
   second job of the same kernels, on a block of other dims, builds none
   and sweeps the same VM programs; a JIT step whose programs are built
   builds none. *)
let test_codes_only_when_interpreted () =
  let run ?(dims = [| 6; 6 |]) backend g =
    let sim = Pfcore.Timestep.create ~backend ~num_domains:1 ~dims g in
    Pfcore.Simulation.init_smooth sim;
    let codes =
      with_obs (fun () ->
          Pfcore.Timestep.run sim ~steps:2;
          Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "vm.bind.codes")
    in
    let bounds =
      sim.Pfcore.Timestep.phi @ Option.to_list sim.Pfcore.Timestep.projection
      @ sim.Pfcore.Timestep.mu
    in
    (Option.value ~default:0 codes, List.map (fun (b : Vm.Engine.bound) -> b.Vm.Engine.program) bounds)
  in
  let fresh () = Pfcore.Genkernels.generate (Pfcore.Params.eutectic ()) in
  let built (p : Vm.Engine.program) = Lazy.is_val p.Vm.Engine.code in
  let g = fresh () in
  let codes, programs = run Vm.Engine.Interp g in
  let distinct = List.fold_left (fun acc p -> if List.memq p acc then acc else p :: acc) [] programs in
  Alcotest.(check int) "interp: one VM program per distinct program" (List.length distinct) codes;
  Alcotest.(check bool) "interp: every program holds its VM program" true (List.for_all built programs);
  let codes, again = run ~dims:[| 5; 7 |] Vm.Engine.Interp g in
  Alcotest.(check int) "a second block of the same kernels builds none" 0 codes;
  Alcotest.(check bool) "and sweeps the same VM programs" true
    (List.for_all2
       (fun (p : Vm.Engine.program) (q : Vm.Engine.program) ->
         Lazy.force p.Vm.Engine.code == Lazy.force q.Vm.Engine.code)
       programs again);
  if Lazy.force Vm.Jit_cc.gcc && not (Vm.Jit_cc.disabled ()) then begin
    let codes, programs = run Vm.Engine.Jit (fresh ()) in
    Alcotest.(check int) "jit: no VM program built" 0 codes;
    Alcotest.(check bool) "jit: no program holds a VM program" false (List.exists built programs)
  end

(* A fresh binding's first sweep runs on three domains with 2x2 tiles: the
   VM program every lane reads is built once, on the coordinating domain,
   both for the interpreter and for a JIT sweep that falls back to it (a
   failed build); each equals the serial sweep bitwise. *)
let test_first_pooled_sweep_builds_code_once () =
  let serial = run_avg ~backend:Vm.Engine.Interp ~num_domains:1 ~dims:[| 8; 6 |] () in
  let pooled =
    run_avg ~backend:Vm.Engine.Interp ~tile:[| 2; 2 |] ~num_domains:3 ~dims:[| 8; 6 |] ()
  in
  Alcotest.(check bool) "interp: first pooled sweep = serial (bitwise)" true
    (buffers_bits_equal serial pooled);
  Vm.Jit.clear_cache ();
  let k = avg_kernel () in
  let lowered = Ir.Lower.run k in
  Vm.Jit.prepare ~cc:"false"
    [
      {
        Vm.Jit.key = Vm.Jit.fingerprint k lowered;
        target = Vm.Jit.host_target ();
        kernel = k;
        lowered;
      };
    ];
  let fallback = run_avg ~tile:[| 2; 2 |] ~num_domains:3 ~dims:[| 8; 6 |] () in
  Vm.Jit.clear_cache ();
  Alcotest.(check bool) "jit fallback: first pooled sweep = serial (bitwise)" true
    (buffers_bits_equal serial fallback)

(* ---- engine edge cases under the compiled backend ---- *)

let test_empty_interior () =
  let block = run_avg ~num_domains:4 ~dims:[| 5; 0 |] () in
  Array.iter
    (fun v -> Alcotest.(check (float 0.)) "nothing written" 0. v)
    (Vm.Engine.buffer block g2).Vm.Buffer.data

let test_tile_larger_than_sweep () =
  let serial = run_avg ~backend:Vm.Engine.Interp ~num_domains:1 ~dims:[| 8; 6 |] () in
  let jit = run_avg ~tile:[| 64; 64 |] ~num_domains:2 ~dims:[| 8; 6 |] () in
  let tiny = run_avg ~tile:[| 3; 2 |] ~num_domains:4 ~dims:[| 2; 2 |] () in
  let tiny_serial = run_avg ~backend:Vm.Engine.Interp ~num_domains:1 ~dims:[| 2; 2 |] () in
  Alcotest.(check bool) "jit giant tile = interp serial (bitwise)" true
    (buffers_bits_equal serial jit);
  Alcotest.(check bool) "jit on grid smaller than tile = interp serial (bitwise)" true
    (buffers_bits_equal tiny_serial tiny)

(* ---- exception inside a compiled tile ---- *)

(* A compiled sweep whose parameters are unbound raises when the sweep is
   resolved, before any tile runs (the interpreter's raises from inside
   the first tile, in make_ctx); the pool must stay balanced and usable,
   for both backends. *)
let test_exception_in_compiled_body () =
  with_obs (fun () ->
      let k =
        Ir.Kernel.make ~name:"needs_alpha" ~dim:2
          [ Field.Assignment.store (Fieldspec.center g2) (mul [ sym "alpha"; field f2 ]) ]
      in
      let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 8; 6 |] [ f2; g2 ] in
      let bound = Vm.Engine.bind k block in
      let raised =
        try
          Vm.Engine.run ~num_domains:3 ~tile:[| 2; 2 |] ~backend:Vm.Engine.Jit ~params:[]
            bound;
          false
        with Invalid_argument _ -> true
      in
      Alcotest.(check bool) "unbound parameter raises through the pool" true raised;
      Alcotest.(check bool) "span stream balanced after jit exception" true
        (Check.Obs_props.stream_well_formed (Obs.Sink.events ()));
      (* the pool still runs compiled work after the failure *)
      let after = run_avg ~num_domains:3 ~dims:[| 8; 6 |] () in
      let reference = run_avg ~backend:Vm.Engine.Interp ~num_domains:1 ~dims:[| 8; 6 |] () in
      Alcotest.(check bool) "pool usable after exception (bitwise vs interp)" true
        (buffers_bits_equal reference after))

(* ---- end-to-end simulate equivalence ---- *)

(* Several full time steps through Timestep (projection, exchanges, buffer
   swaps — the swap is the interesting part: compiled programs must follow
   the data pointers, not capture them). *)
let test_simulate_backend_bitwise () =
  let g = Lazy.force curvature_gen in
  let run ~backend ~num_domains ?tile () =
    let sim = Pfcore.Timestep.create ~backend ~num_domains ?tile ~dims:[| 12; 12 |] g in
    Pfcore.Simulation.init_smooth sim;
    Pfcore.Timestep.run sim ~steps:3;
    sim
  in
  let interp = run ~backend:Vm.Engine.Interp ~num_domains:1 () in
  let jit = run ~backend:Vm.Engine.Jit ~num_domains:1 () in
  let jit_pooled =
    run ~backend:Vm.Engine.Jit ~num_domains:4 ~tile:(Vm.Schedule.shape_of_string "3x2") ()
  in
  Alcotest.(check bool) "3 jit steps = interp steps (bitwise)" true
    (buffers_bits_equal interp.Pfcore.Timestep.block jit.Pfcore.Timestep.block);
  Alcotest.(check bool) "3 pooled tiled jit steps = interp steps (bitwise)" true
    (buffers_bits_equal interp.Pfcore.Timestep.block jit_pooled.Pfcore.Timestep.block)

(* ---- the fast tier ---- *)

let p2_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p2 ()))

(* Two P2 steps through the fast tier write the interpreter's bits — P2's
   φ kernel calls the printed Philox generator for its fluctuation term,
   so the stream is checked too. *)
let test_fast_tier_bitwise () =
  let g = Lazy.force p2_gen in
  let run backend =
    let sim = Pfcore.Timestep.create ~backend ~num_domains:1 ~dims:[| 6; 6; 6 |] g in
    Pfcore.Simulation.init_smooth sim;
    Pfcore.Timestep.run sim ~steps:2;
    sim
  in
  Vm.Jit.clear_cache ();
  let jit = run Vm.Engine.Jit in
  let interp = run Vm.Engine.Interp in
  Vm.Jit.clear_cache ();
  Alcotest.(check bool) "fast tier and interpreter write identical bits" true
    (buffers_bits_equal interp.Pfcore.Timestep.block jit.Pfcore.Timestep.block)

(* With gcc on PATH (and the tier not switched off), a program is really
   built: it has an entry, and its tier names the host's target. *)
let test_fast_tier_engaged () =
  if (not (Lazy.force Vm.Jit_cc.gcc)) || Vm.Jit_cc.disabled () then Alcotest.skip ()
  else begin
    Vm.Jit.clear_cache ();
    let k = avg_kernel () in
    let lowered = Ir.Lower.run k in
    let c = Vm.Jit.get (Vm.Jit.fingerprint k lowered) k lowered in
    Vm.Jit.clear_cache ();
    Alcotest.(check string) "tier is the host's target"
      (Vm.Jit.target_label (Vm.Jit.host_target ())) c.Vm.Jit.tier;
    Alcotest.(check bool) "the program has an entry" true (c.Vm.Jit.entry <> None)
  end

(* A build that fails falls back: every program of the batch records why
   and is counted in jit.fallback, and its sweeps run the interpreter —
   bit for bit the reference. *)
let test_failed_build_falls_back () =
  with_obs (fun () ->
      Vm.Jit.clear_cache ();
      let k = avg_kernel () in
      let lowered = Ir.Lower.run k in
      let key = Vm.Jit.fingerprint k lowered in
      Vm.Jit.prepare ~cc:"false"
        [ { Vm.Jit.key; target = Vm.Jit.host_target (); kernel = k; lowered } ];
      let c = Vm.Jit.get key k lowered in
      Alcotest.(check bool) "no entry" true (c.Vm.Jit.entry = None);
      Alcotest.(check bool)
        (Printf.sprintf "reason recorded (%s)" c.Vm.Jit.tier)
        true
        (String.starts_with ~prefix:"fallback: " c.Vm.Jit.tier
        && String.length c.Vm.Jit.tier > String.length "fallback: ");
      let s = Obs.Metrics.snapshot () in
      Alcotest.(check (option int)) "jit.fallback counts the program" (Some 1)
        (Obs.Metrics.counter_value s "jit.fallback");
      let jit = run_avg ~num_domains:1 ~dims:[| 8; 6 |] () in
      let reference = run_avg ~backend:Vm.Engine.Interp ~num_domains:1 ~dims:[| 8; 6 |] () in
      Vm.Jit.clear_cache ();
      Alcotest.(check bool) "fallback sweep = interp (bitwise)" true
        (buffers_bits_equal reference jit))

(* ---- one compiler run per plan ---- *)

let p1_gen = lazy (Pfcore.Genkernels.generate (Pfcore.Params.p1 ()))

(* End events of the spans called [name]: they carry the span's args. *)
let span_ends name events =
  List.filter (fun (e : Obs.Sink.event) -> e.Obs.Sink.phase = Obs.Sink.E && e.name = name) events

let traced_steps sims =
  with_obs (fun () ->
      List.iter Pfcore.Timestep.step sims;
      Obs.Sink.events ())

(* The first JIT step of a Timestep compiles every program its variants
   sweep — φ-full, the projection, μ-full — in one compiler run, counted
   as three misses.  Another block of the same dims finds all three
   cached, and an interpreter block compiles nothing. *)
let test_one_compile_per_plan () =
  let g = Lazy.force p1_gen in
  let make backend =
    let sim = Pfcore.Timestep.create ~backend ~num_domains:1 ~dims:[| 4; 4; 4 |] g in
    Pfcore.Simulation.init_smooth sim;
    sim
  in
  Vm.Jit.clear_cache ();
  let sim = make Vm.Engine.Jit in
  let compiles = span_ends "vm.jit.compile" (traced_steps [ sim ]) in
  Alcotest.(check int) "the first step builds once" 1 (List.length compiles);
  Alcotest.(check (float 0.)) "that build compiles the plan's 3 programs" 3.
    (List.assoc "programs" (List.hd compiles).Obs.Sink.args);
  Alcotest.(check (float 0.)) "as one unit per core, at most one per program"
    (float_of_int (min 3 (Domain.recommended_domain_count ())))
    (List.assoc "units" (List.hd compiles).Obs.Sink.args);
  let _, misses = Vm.Jit.cache_stats () in
  Alcotest.(check int) "misses rise by 3" 3 misses;
  let again = make Vm.Engine.Jit and interp = make Vm.Engine.Interp in
  let compiles = span_ends "vm.jit.compile" (traced_steps [ again; interp ]) in
  Alcotest.(check int) "a second block of the same dims, and an interp block, compile nothing"
    0 (List.length compiles);
  Alcotest.(check int) "no further miss" 3 (snd (Vm.Jit.cache_stats ()))

(* Every vm.jit.compile span sits inside a phase:phi span and outside
   every kernel:* span, so vm.<kernel>.ns_per_cell never includes a
   compile; vm.jit.compile_ns records one sample per compiler run.  Split
   variants and a forest (whose later blocks find the plan cached) take
   the same path. *)
let test_compile_outside_kernel_spans () =
  let g = Lazy.force curvature_gen in
  Vm.Jit.clear_cache ();
  let split =
    Pfcore.Timestep.create ~variant_phi:Pfcore.Timestep.Split ~backend:Vm.Engine.Jit
      ~num_domains:1 ~dims:[| 6; 6 |] g
  in
  Pfcore.Simulation.init_smooth split;
  let forest =
    Blocks.Forest.create ~backend:Vm.Engine.Jit ~num_domains:1 ~grid:[| 2; 2 |]
      ~block_dims:[| 5; 5 |] g
  in
  Array.iter Pfcore.Simulation.init_smooth forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  let events, histogram =
    with_obs (fun () ->
        Pfcore.Timestep.run split ~steps:2;
        Blocks.Forest.run forest ~steps:2;
        let s = Obs.Metrics.snapshot () in
        (Obs.Sink.events (), List.assoc_opt "vm.jit.compile_ns" s.Obs.Metrics.s_histograms))
  in
  (* open spans per (lane, track), innermost first *)
  let stacks = Hashtbl.create 8 in
  let misplaced = ref 0 and runs = ref 0 in
  List.iter
    (fun (e : Obs.Sink.event) ->
      let track = (e.Obs.Sink.pid, e.Obs.Sink.tid) in
      let open_ = Option.value ~default:[] (Hashtbl.find_opt stacks track) in
      match e.Obs.Sink.phase with
      | Obs.Sink.B ->
        if e.Obs.Sink.name = "vm.jit.compile" then begin
          incr runs;
          let in_kernel = List.exists (String.starts_with ~prefix:"kernel:") open_ in
          if in_kernel || not (List.mem "phase:phi" open_) then incr misplaced
        end;
        Hashtbl.replace stacks track (e.Obs.Sink.name :: open_)
      | Obs.Sink.E -> Hashtbl.replace stacks track (List.tl open_)
      | _ -> ())
    events;
  Alcotest.(check int) "one run for the split block, one for the whole forest" 2 !runs;
  Alcotest.(check int) "no compile span outside phase:phi or inside a kernel span" 0 !misplaced;
  match histogram with
  | None -> Alcotest.fail "vm.jit.compile_ns not recorded"
  | Some h -> Alcotest.(check int) "vm.jit.compile_ns: one sample per run" 2 h.Obs.Metrics.hs_count

(* Each compiler run works in a fresh directory under the temp dir and
   removes it after loading, so a process leaves no scratch behind. *)
let test_no_scratch_left () =
  let tmp = Filename.temp_dir "pfgen-test-" "" in
  let prev = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name tmp;
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name prev;
      (try Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) (Sys.readdir tmp)
       with Sys_error _ -> ());
      Sys.rmdir tmp)
    (fun () ->
      Vm.Jit.clear_cache ();
      let block = run_avg ~num_domains:1 ~dims:[| 7; 5 |] () in
      let reference = run_avg ~backend:Vm.Engine.Interp ~num_domains:1 ~dims:[| 7; 5 |] () in
      Alcotest.(check bool) "compiled sweep = interp (bitwise)" true
        (buffers_bits_equal reference block);
      Alcotest.(check (list string)) "temp dir empty after the compile" []
        (Array.to_list (Sys.readdir tmp));
      (* a failed build cleans up too *)
      let k = avg_kernel ~coeff:0.3 () in
      let lowered = Ir.Lower.run k in
      Vm.Jit.prepare ~cc:"false"
        [
          {
            Vm.Jit.key = Vm.Jit.fingerprint k lowered;
            target = Vm.Jit.host_target ();
            kernel = k;
            lowered;
          };
        ];
      Vm.Jit.clear_cache ();
      Alcotest.(check (list string)) "temp dir empty after a failed build" []
        (Array.to_list (Sys.readdir tmp)))

(* A compiler run that hangs is killed with its process group when its
   time is up, and reported. *)
let test_hung_compiler_times_out () =
  if not (Lazy.force Vm.Jit_cc.has_timeout) then Alcotest.skip ()
  else begin
    let dir = Filename.temp_dir "pfgen-test-" "" in
    Fun.protect
      ~finally:(fun () -> Vm.Jit_cc.remove_dir dir)
      (fun () ->
        let t0 = Unix.gettimeofday () in
        let r = Vm.Jit_cc.run_step ~timeout_s:0.3 ~dir ~log:"x.log" [ "sh"; "-c"; "sleep 30" ] in
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) (Printf.sprintf "killed after %.2f s" dt) true (dt < 5.);
        match r with
        | Error why ->
          Alcotest.(check bool) ("reported: " ^ why) true
            (Astring.String.is_infix ~affix:"timed out" why)
        | Ok () -> Alcotest.fail "a hung compiler run succeeded")
  end

(* ---- a batch split into translation units ---- *)

let request (b : Vm.Engine.bound) =
  {
    Vm.Jit.key = Lazy.force b.Vm.Engine.jit_key;
    target = b.Vm.Engine.jit_target;
    kernel = b.Vm.Engine.kernel;
    lowered = b.Vm.Engine.lowered;
  }

let fast_tier_on () = Lazy.force Vm.Jit_cc.gcc && not (Vm.Jit_cc.disabled ())

(* Curvature's φ kernels (full, split stag and main) and its projection,
   each for the host's target and as scalar C: eight programs of two
   kinds, built as 2 units whatever the host's core count, then each swept
   by the JIT and by the interpreter on its own smooth block.  Every
   program is native and writes the interpreter's bits. *)
let test_two_units_bitwise () =
  let g = Lazy.force curvature_gen in
  let kernels =
    [
      g.Pfcore.Genkernels.phi_full;
      g.Pfcore.Genkernels.phi_split.Pfcore.Genkernels.stag;
      g.Pfcore.Genkernels.phi_split.Pfcore.Genkernels.main;
    ]
    @ Option.to_list g.Pfcore.Genkernels.projection
  in
  let block () = Pfcore.Timestep.probe_block g ~dims:[| 7; 5 |] in
  let params = Pfcore.Timestep.probe_params g in
  let bindings () =
    List.concat_map
      (fun jit_target -> List.map (fun k -> Vm.Engine.bind ~jit_target k (block ())) kernels)
      [ Vm.Jit.host_target (); None ]
  in
  let jit = bindings () and interp = bindings () in
  Vm.Jit.clear_cache ();
  let compiles =
    with_obs (fun () ->
        Vm.Jit.prepare ~units:2 (List.map request jit);
        span_ends "vm.jit.compile" (Obs.Sink.events ()))
  in
  (match compiles with
  | [ c ] ->
    Alcotest.(check (float 0.)) "eight programs" 8. (List.assoc "programs" c.Obs.Sink.args);
    Alcotest.(check (float 0.)) "in 2 units" 2. (List.assoc "units" c.Obs.Sink.args)
  | _ -> Alcotest.fail "expected one vm.jit.compile span");
  List.iter2
    (fun (j : Vm.Engine.bound) (i : Vm.Engine.bound) ->
      Vm.Engine.run ~num_domains:1 ~backend:Vm.Engine.Jit ~params j;
      Vm.Engine.run ~num_domains:1 ~backend:Vm.Engine.Interp ~params i;
      let c = Vm.Jit.get ~target:j.jit_target (Lazy.force j.jit_key) j.kernel j.lowered in
      let name =
        Printf.sprintf "%s (%s)" j.kernel.Ir.Kernel.name (Vm.Jit.target_label j.jit_target)
      in
      if fast_tier_on () then
        Alcotest.(check bool) (name ^ ": native, " ^ c.Vm.Jit.tier) true (c.Vm.Jit.entry <> None);
      Alcotest.(check bool) (name ^ ": 2-unit build = interp (bitwise)") true
        (buffers_bits_equal i.block j.block))
    jit interp;
  Vm.Jit.clear_cache ()

(* A kernel whose long source puts it alone in the first of two units:
   the compiler wrapper below fails or hangs on the unit that holds it. *)
let poison_kernel () =
  let term c = fn Sin [ mul [ num c; field f2 ] ] in
  Ir.Kernel.make ~name:"poison" ~dim:2
    [
      Field.Assignment.store (Fieldspec.center g2)
        (add (List.init 40 (fun i -> term (0.01 *. float_of_int (i + 1)))));
    ]

(* No child of this process is left, running or unreaped. *)
let no_child_left () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

(* A batch of the poison kernel and three small ones, built as 2 units in
   a private temp dir through a gcc wrapper that [misbehaves] on the
   poison unit: the poison program falls back with the reason, alone, and
   counted by jit.fallback; the small ones are native and sweep the
   interpreter's bits; the temp dir is empty and no child is left. *)
let one_unit_falls_back ~misbehaves ~timeout_s ~reason () =
  if not (fast_tier_on ()) then Alcotest.skip ()
  else begin
    let tmp = Filename.temp_dir "pfgen-test-" "" in
    let cc = Filename.concat tmp "cc.sh" in
    Out_channel.with_open_bin cc (fun oc ->
        Printf.fprintf oc
          "#!/bin/sh\n\
           for a; do last=$a; done\n\
           case $last in *.c) grep -q poison $last && %s;; esac\n\
           exec gcc \"$@\"\n"
          misbehaves);
    Unix.chmod cc 0o755;
    let scratch = Filename.concat tmp "scratch" in
    Sys.mkdir scratch 0o700;
    let prev = Filename.get_temp_dir_name () in
    Filename.set_temp_dir_name scratch;
    Fun.protect
      ~finally:(fun () ->
        Filename.set_temp_dir_name prev;
        Vm.Jit.clear_cache ();
        Vm.Jit_cc.remove_dir scratch;
        Vm.Jit_cc.remove_dir tmp)
      (fun () ->
        with_obs (fun () ->
            Vm.Jit.clear_cache ();
            let small = List.map (fun coeff -> avg_kernel ~coeff ()) [ 0.21; 0.22; 0.23 ] in
            let programs =
              List.map
                (fun k ->
                  let lowered = Ir.Lower.run k in
                  {
                    Vm.Jit.key = Vm.Jit.fingerprint k lowered;
                    target = Vm.Jit.host_target ();
                    kernel = k;
                    lowered;
                  })
                (poison_kernel () :: small)
            in
            let t0 = Unix.gettimeofday () in
            Vm.Jit.prepare ~cc ~units:2 ~timeout_s programs;
            let dt = Unix.gettimeofday () -. t0 in
            Alcotest.(check bool)
              (Printf.sprintf "the build returned after %.2f s" dt)
              true (dt < 20.);
            let tier (r : Vm.Jit.request) = (Vm.Jit.get r.key r.kernel r.lowered).Vm.Jit.tier in
            (match programs with
            | poison :: rest ->
              Alcotest.(check bool)
                (Printf.sprintf "the poison program falls back (%s)" (tier poison))
                true
                (String.starts_with ~prefix:"fallback: " (tier poison)
                && Astring.String.is_infix ~affix:reason (tier poison));
              List.iter
                (fun r ->
                  Alcotest.(check string) "a program of the other unit is native"
                    (Vm.Jit.target_label (Vm.Jit.host_target ())) (tier r))
                rest
            | [] -> assert false);
            Alcotest.(check (option int)) "jit.fallback counts the one program" (Some 1)
              (Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "jit.fallback");
            let sweep backend = run_avg ~backend ~coeff:0.21 ~num_domains:1 ~dims:[| 8; 6 |] () in
            let jit = sweep Vm.Engine.Jit and reference = sweep Vm.Engine.Interp in
            Alcotest.(check int) "the sweep found its program in the batch" 4
              (snd (Vm.Jit.cache_stats ()));
            Alcotest.(check bool) "a native program of the batch = interp (bitwise)" true
              (buffers_bits_equal reference jit));
        Alcotest.(check (list string)) "temp dir empty afterwards" []
          (Array.to_list (Sys.readdir scratch));
        Alcotest.(check bool) "no child process left" true (no_child_left ()))
  end

let test_failed_unit_falls_back_alone =
  one_unit_falls_back ~misbehaves:"exit 1" ~timeout_s:60. ~reason:"exited 1"

let test_hung_unit_falls_back_alone =
  one_unit_falls_back ~misbehaves:"exec sleep 30" ~timeout_s:3. ~reason:"timed out"

(* ---- tuner backend decision ---- *)

let tune_block () =
  let block = Vm.Engine.make_block ~ghost:1 ~dims:[| 8; 6 |] [ f2; g2 ] in
  let fbuf = Vm.Engine.buffer block f2 in
  Vm.Buffer.init fbuf (fun c _ -> float_of_int (c.(0) + c.(1)));
  Vm.Buffer.periodic fbuf;
  block

let test_tune_backend () =
  Vm.Tune.clear_cache ();
  let c =
    Vm.Tune.decide ~domains:1 ~sweeps:1 ~reps:1 ~dims:[| 8; 6 |] ~make_block:tune_block
      ~params:[]
      [ ("full", [ avg_kernel () ]) ]
  in
  Alcotest.(check int) "both backends probed" 2 (List.length c.Vm.Tune.backend_ns);
  Alcotest.(check bool) "backend probes are finite and positive" true
    (List.for_all (fun (_, ns) -> Float.is_finite ns && ns > 0.) c.Vm.Tune.backend_ns);
  Alcotest.(check bool) "decision picks the measured minimum" true
    (let sel = Vm.Engine.backend_label c.Vm.Tune.backend in
     let sel_ns = List.assoc sel c.Vm.Tune.backend_ns in
     List.for_all (fun (_, ns) -> sel_ns <= ns) c.Vm.Tune.backend_ns)

(* ---- golden JIT trace ---- *)

(* Same fixed 2-step 8x8 curvature run as test_obs's golden trace, executed
   through the JIT: the span tree must be reproduced with one
   vm.jit.compile span for the step's plan (φ-full and the projection),
   emitted in step 0's phase:phi before the first kernel span.  The span's
   [units] arg follows the host's core count (test_one_compile_per_plan
   checks it), so the golden leaves it out. *)
let test_golden_trace_jit () =
  Vm.Jit.clear_cache ();
  let sim =
    Pfcore.Timestep.create ~backend:Vm.Engine.Jit ~num_domains:1 ~dims:[| 8; 8 |]
      (Lazy.force curvature_gen)
  in
  Pfcore.Simulation.init_sphere sim;
  Pfcore.Timestep.prime sim;
  let host_free (e : Obs.Sink.event) =
    { e with Obs.Sink.args = List.remove_assoc "units" e.Obs.Sink.args }
  in
  let json =
    with_obs (fun () ->
        Pfcore.Timestep.run sim ~steps:2;
        Obs.Trace.to_json ~zero_times:true (List.map host_free (Obs.Sink.events ())))
  in
  Golden.check ~name:"trace_curvature_8x8_jit.json" json

let suite =
  [
    Alcotest.test_case "jit: compile cache hit/miss counters" `Quick test_cache_counters;
    Alcotest.test_case "jit: recompile on fingerprint change" `Quick
      test_recompile_on_fingerprint_change;
    Alcotest.test_case "jit: no collision on deep kernel variants" `Quick
      test_no_collision_on_deep_variants;
    Alcotest.test_case "jit: empty interior is a no-op" `Quick test_empty_interior;
    Alcotest.test_case "jit: tile larger than sweep = interp serial" `Quick
      test_tile_larger_than_sweep;
    Alcotest.test_case "jit: exception in compiled tile (usable, balanced)" `Quick
      test_exception_in_compiled_body;
    Alcotest.test_case "jit: 3 timesteps bitwise = interpreter" `Quick
      test_simulate_backend_bitwise;
    Alcotest.test_case "jit: fast tier = interpreter (P2, Philox, 2 steps)" `Quick
      test_fast_tier_bitwise;
    Alcotest.test_case "jit: fast tier engaged when gcc is present" `Quick
      test_fast_tier_engaged;
    Alcotest.test_case "jit: a failed build falls back to the interpreter" `Quick
      test_failed_build_falls_back;
    Alcotest.test_case "tune: backend is a tunable variant" `Quick test_tune_backend;
    Alcotest.test_case "jit: golden Chrome trace with vm.jit.compile span" `Quick
      test_golden_trace_jit;
    Alcotest.test_case "jit: warm sweep allocates less than the kernel body" `Quick
      test_warm_sweep_independent_of_body;
    Alcotest.test_case "jit: memo key computed by jit sweeps only" `Quick
      test_key_computed_by_jit_sweeps_only;
    Alcotest.test_case "bind: rebinding allocates less than the kernel body" `Quick
      test_rebind_independent_of_body;
    Alcotest.test_case "bind: VM programs only for interpreted sweeps" `Quick
      test_codes_only_when_interpreted;
    Alcotest.test_case "bind: first pooled sweep builds the VM program on one domain" `Quick
      test_first_pooled_sweep_builds_code_once;
    Alcotest.test_case "jit: one compiler run per time-step plan" `Quick
      test_one_compile_per_plan;
    Alcotest.test_case "jit: compile spans outside kernel spans" `Quick
      test_compile_outside_kernel_spans;
    Alcotest.test_case "jit: compiler runs leave no scratch behind" `Quick
      test_no_scratch_left;
    Alcotest.test_case "jit: a hung compiler run times out" `Quick
      test_hung_compiler_times_out;
    Alcotest.test_case "jit: a batch built as 2 units = interpreter" `Quick
      test_two_units_bitwise;
    Alcotest.test_case "jit: a failed unit falls back alone" `Quick
      test_failed_unit_falls_back_alone;
    Alcotest.test_case "jit: a hung unit times out and falls back alone" `Quick
      test_hung_unit_falls_back_alone;
  ]
