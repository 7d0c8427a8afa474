(* The two simulation workloads: p1-single (one periodic 24^3 P1 block) and
   eutectic-forest (a 96x96 ternary-eutectic domain as an 8x8 forest of
   12^2 blocks).  Both drive the program only through Genkernels.generate,
   Timestep.{create,prime,step,phase_phi,phase_mu,finish} and the block's
   exchange, Forest.{create,prime,step,exchange}, Blocks.Reduce and
   Snapshot.{capture,encode}; the traced run times those same calls. *)

open Harness
module T = Pfcore.Timestep
module G = Pfcore.Genkernels

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* Seeded initial condition, a function of global coordinates so a forest
   and its single-block twin start bitwise equal: solid lamellae of random
   widths and phase order below a random front height, liquid above, and a
   small random constant chemical potential per component. *)
type ic = { phase_at : int array -> int; mu0 : float array }

let make_ic ~seed (p : Pfcore.Params.t) ~global_dims =
  let st = Random.State.make [| seed |] in
  let solids = p.Pfcore.Params.n_phases - 1 in
  let liquid = p.Pfcore.Params.liquid in
  let solid k = if k >= liquid then k + 1 else k in
  let nx = global_dims.(0) in
  let lamella = Array.make nx 0 in
  let x = ref 0 and k = ref (Random.State.int st solids) in
  while !x < nx do
    let w = 3 + Random.State.int st 6 in
    for i = !x to min (nx - 1) (!x + w - 1) do
      lamella.(i) <- solid !k
    done;
    x := !x + w;
    k := (!k + 1 + Random.State.int st (max 1 (solids - 1))) mod solids
  done;
  let up = Array.length global_dims - 1 in
  let front = int_of_float (float_of_int global_dims.(up) *. (0.25 +. Random.State.float st 0.2)) in
  {
    phase_at = (fun g -> if g.(up) >= front then liquid else lamella.(g.(0)));
    mu0 = Array.init (Pfcore.Params.n_mu p) (fun _ -> Random.State.float st 0.04 -. 0.02);
  }

let fields (sim : T.t) = sim.T.gen.G.fields
let buffer (sim : T.t) f = Vm.Engine.buffer sim.T.block f

let fill (sim : T.t) ic =
  let f = fields sim in
  let off = sim.T.block.Vm.Engine.offset in
  let phi c comp =
    if ic.phase_at (Array.mapi (fun d x -> x + off.(d)) c) = comp then 1. else 0.
  in
  let mu _ comp = ic.mu0.(comp) in
  Vm.Buffer.init (buffer sim f.Pfcore.Model.phi_src) phi;
  Vm.Buffer.init (buffer sim f.Pfcore.Model.phi_dst) phi;
  if Array.length ic.mu0 > 0 then begin
    Vm.Buffer.init (buffer sim f.Pfcore.Model.mu_src) mu;
    Vm.Buffer.init (buffer sim f.Pfcore.Model.mu_dst) mu
  end

(* ------------------------------------------------------------------ *)
(* State readout (outside every timed region)                          *)
(* ------------------------------------------------------------------ *)

let iter_cells dims f =
  let dim = Array.length dims in
  let c = Array.make dim 0 in
  let rec go d =
    if d < 0 then f c
    else
      for i = 0 to dims.(d) - 1 do
        c.(d) <- i;
        go (d - 1)
      done
  in
  go (dim - 1)

(* φ and μ interior values of [sims], laid out by global cell. *)
let read_state ~global_dims (sims : T.t array) =
  let f = fields sims.(0) in
  let flds =
    f.Pfcore.Model.phi_src
    :: (if Pfcore.Params.n_mu sims.(0).T.gen.G.params > 0 then [ f.Pfcore.Model.mu_src ] else [])
  in
  let ncomp = List.fold_left (fun acc fl -> acc + fl.Symbolic.Fieldspec.components) 0 flds in
  let ncells = Array.fold_left ( * ) 1 global_dims in
  let out = Array.make (ncells * ncomp) nan in
  Array.iter
    (fun (sim : T.t) ->
      let block = sim.T.block in
      let off = block.Vm.Engine.offset in
      iter_cells block.Vm.Engine.dims (fun c ->
          let lin = ref 0 in
          for d = Array.length c - 1 downto 0 do
            lin := (!lin * global_dims.(d)) + c.(d) + off.(d)
          done;
          let slot = ref 0 in
          List.iter
            (fun fl ->
              let buf = buffer sim fl in
              for comp = 0 to fl.Symbolic.Fieldspec.components - 1 do
                out.((!slot * ncells) + !lin) <- Vm.Buffer.get buf ~component:comp c;
                incr slot
              done)
            flds))
    sims;
  (out, ncells * f.Pfcore.Model.phi_src.Symbolic.Fieldspec.components)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Final-state range check: everything finite, φ inside the simplex
   bounds, μ bounded. *)
let sane (values, n_phi) =
  let ok = ref true in
  Array.iteri
    (fun i v ->
      if not (Float.is_finite v) then ok := false
      else if i < n_phi then (if v < -1e-9 || v > 1. +. 1e-9 then ok := false)
      else if Float.abs v > 1e3 then ok := false)
    values;
  !ok

(* ------------------------------------------------------------------ *)
(* One simulation, whatever its layout                                 *)
(* ------------------------------------------------------------------ *)

type sim = {
  cells : int;  (** lattice updates per step *)
  step : unit -> unit;  (** one step through the public step entry point *)
  traced_step : string -> unit -> unit;
      (** the same step, phase by phase, inside a span of the given name *)
  state : unit -> float array * int;
      (** φ then μ interior values by global cell, and how many are φ *)
  counters : unit -> int * int;  (** cumulative messages and bytes sent *)
  diagnostic : unit -> float;  (** interface fraction via Blocks.Reduce *)
  snapshot : unit -> int;  (** capture + encode; encoded bytes *)
}

let has_mu gen = Pfcore.Params.n_mu gen.G.params > 0

(* Timestep.step, phase by phase, with the block's own exchange. *)
let traced_single (sim : T.t) name () =
  span name (fun () ->
      let f = fields sim in
      span "kernel.phi" (fun () -> T.phase_phi sim);
      span "exchange" (fun () -> sim.T.exchange sim.T.block f.Pfcore.Model.phi_dst);
      span "kernel.mu" (fun () -> T.phase_mu sim);
      if has_mu sim.T.gen then
        span "exchange" (fun () -> sim.T.exchange sim.T.block f.Pfcore.Model.mu_dst);
      span "step.finish" (fun () -> T.finish sim))

let single ~backend ~dims gen ic =
  let sim = span "block.build" (fun () -> T.create ~num_domains:1 ~backend ~dims gen) in
  span "bench.init" (fun () -> fill sim ic);
  span "exchange.prime" (fun () -> T.prime sim);
  {
    cells = T.lups_per_step sim;
    step = (fun () -> T.step sim);
    traced_step = traced_single sim;
    state = (fun () -> read_state ~global_dims:dims [| sim |]);
    counters = (fun () -> (0, 0));
    diagnostic = (fun () -> nan);
    snapshot = (fun () -> 0);
  }

(* Forest.step without its substrate bookkeeping (no fault plan is set,
   so Mpisim.begin_step/finalize have nothing to do): every rank's φ
   phase, the forest exchange, every rank's μ phase, the exchange, swap. *)
let traced_forest (f : Blocks.Forest.t) name () =
  let each g = Array.iter g f.Blocks.Forest.sims in
  let fl = fields f.Blocks.Forest.sims.(0) in
  span name (fun () ->
      span "kernel.phi" (fun () -> each T.phase_phi);
      span "exchange" (fun () -> Blocks.Forest.exchange f fl.Pfcore.Model.phi_dst);
      span "kernel.mu" (fun () -> each T.phase_mu);
      if has_mu f.Blocks.Forest.sims.(0).T.gen then
        span "exchange" (fun () -> Blocks.Forest.exchange f fl.Pfcore.Model.mu_dst);
      span "step.finish" (fun () -> each T.finish))

let forest ~backend ~grid ~block_dims gen ic =
  let f =
    span "block.build" (fun () ->
        Blocks.Forest.create ~num_domains:1 ~backend ~grid ~block_dims gen)
  in
  span "bench.init" (fun () -> Array.iter (fun s -> fill s ic) f.Blocks.Forest.sims);
  span "exchange.prime" (fun () -> Blocks.Forest.prime f);
  let comm = f.Blocks.Forest.comm in
  {
    cells = Array.fold_left ( * ) 1 f.Blocks.Forest.global_dims;
    step = (fun () -> Blocks.Forest.step f);
    traced_step = traced_forest f;
    state = (fun () -> read_state ~global_dims:f.Blocks.Forest.global_dims f.Blocks.Forest.sims);
    counters = (fun () -> (comm.Blocks.Mpisim.messages_sent, comm.Blocks.Mpisim.bytes_sent));
    diagnostic =
      (fun () -> Blocks.Reduce.interface_fraction ~backend ~num_domains:1 f);
    snapshot =
      (fun () -> String.length (Resilience.Snapshot.encode (Resilience.Snapshot.capture f)));
  }

(* ------------------------------------------------------------------ *)
(* Workload definitions                                                *)
(* ------------------------------------------------------------------ *)

type layout = Single of int array | Forest of int array * int array  (* grid, block dims *)

type workload = {
  params : Pfcore.Params.t;
  layout : layout;
  diag_every : int;  (** Blocks.Reduce diagnostic cadence in steps; 0 = none *)
  snap_every : int;  (** snapshot cadence in steps; 0 = none *)
  prefix : int;  (** steps the interpreter twins reproduce *)
  twins : layout list;  (** reference layouts, run on the interpreter *)
}

let p1_single =
  {
    params = Pfcore.Params.p1 ();
    layout = Single [| 24; 24; 24 |];
    diag_every = 0;
    snap_every = 0;
    prefix = 3;
    twins = [ Single [| 24; 24; 24 |] ];
  }

let eutectic_forest =
  {
    params = Pfcore.Params.eutectic ();
    layout = Forest ([| 8; 8 |], [| 12; 12 |]);
    diag_every = 10;
    snap_every = 100;
    prefix = 5;
    twins = [ Forest ([| 8; 8 |], [| 12; 12 |]); Single [| 96; 96 |] ];
  }

let global_dims = function
  | Single d -> d
  | Forest (g, b) -> Array.mapi (fun i n -> n * g.(i)) b

let block_edge = function Single d -> d.(0) | Forest (_, b) -> b.(0)
let blocks = function Single _ -> 1 | Forest (g, _) -> Array.fold_left ( * ) 1 g

let build ~backend w layout gen ~seed =
  let ic = make_ic ~seed w.params ~global_dims:(global_dims w.layout) in
  match layout with
  | Single dims -> single ~backend ~dims gen ic
  | Forest (grid, block_dims) -> forest ~backend ~grid ~block_dims gen ic

(* Kernels one block runs per step (all variants full). *)
let step_kernels gen =
  (gen.G.phi_full :: Option.to_list gen.G.projection) @ Option.to_list gen.G.mu_full

(* Everything up to the point steady stepping can start: kernel
   generation, block build, initial fields, ghost priming and the first
   step, which carries every one-time JIT compile.  It ends with a heap
   compaction, so the garbage that set-up leaves is paid for here rather
   than in the measured phase. *)
let setup w ~seed =
  let gen = span "frontend.generate" (fun () -> G.generate w.params) in
  let sim = build ~backend:Vm.Engine.Jit w w.layout gen ~seed in
  if !tracing then sim.traced_step "step.first" () else sim.step ();
  span "gc.compact" Gc.compact;
  (gen, sim)

(* The set-up alone, for the set-up probes that run in child processes. *)
let setup_seconds w ~seed = snd (timed (fun () -> ignore (setup w ~seed)))

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let window = 10  (* steps over which the per-step counts are taken *)

(* Set-up, then steady steps until [seconds] have passed, then
   verification.  Untraced, every steady step is one public step call.
   Traced, steady steps alternate in chunks of [window] between public
   step calls and the phase-by-phase traced step, so one run yields both
   the per-layer split and the tracing overhead. *)
let run w ~seed ~seconds ~probes =
  let probes = List.map float_of_string (probes ()) in
  let _, misses0 = Vm.Jit.cache_stats () in
  let (gen, sim), own_setup = timed (fun () -> span "setup" (fun () -> setup w ~seed)) in
  let step_s = samples () and plain_s = samples () in
  let diag_s = samples () and snap_s = samples () in
  let busy = ref 0. and snap_bytes = ref 0 and diag_ok = ref true in
  let prefix_state = ref None in
  let lookups = ref 0 and words = ref 0. and msgs = ref 0 and bytes = ref 0 in
  let counted f =
    let h0, m0 = Vm.Jit.cache_stats () and w0 = Gc.minor_words () and c0, b0 = sim.counters () in
    f ();
    let h1, m1 = Vm.Jit.cache_stats () and w1 = Gc.minor_words () and c1, b1 = sim.counters () in
    lookups := !lookups + (h1 - h0) + (m1 - m0);
    words := !words +. (w1 -. w0);
    msgs := !msgs + (c1 - c0);
    bytes := !bytes + (b1 - b0)
  in
  let win_lo = w.prefix and win_hi = w.prefix + window in
  (* at least the count window and one diagnostic and snapshot, so every
     count is taken whatever the run length *)
  let min_steps = List.fold_left max win_hi [ w.diag_every - 1; w.snap_every - 1 ] in
  let traced = !tracing in
  let deadline = now () +. seconds in
  let i = ref 0 in
  span "steady" (fun () ->
      while now () < deadline || !i < min_steps || (traced && step_s.n < 2 * window) do
        incr i;
        let s = !i + 1 (* steps done after this one; the set-up ran step 1 *) in
        let traced_chunk = traced && !i >= win_hi && (!i - win_hi) / window mod 2 = 1 in
        let dt =
          if traced_chunk then snd (timed (sim.traced_step "step"))
          else if !i >= win_lo && !i < win_hi then snd (timed (fun () -> counted sim.step))
          else snd (timed sim.step)
        in
        busy := !busy +. dt;
        add (if traced && not traced_chunk then plain_s else step_s) dt;
        if s = w.prefix then prefix_state := Some (fst (sim.state ()));
        if w.diag_every > 0 && s mod w.diag_every = 0 then begin
          let v, dt = timed (fun () -> span "reduce" sim.diagnostic) in
          if not (v >= 0. && v <= 1.) then diag_ok := false;
          busy := !busy +. dt;
          add diag_s dt
        end;
        if w.snap_every > 0 && s mod w.snap_every = 0 then begin
          let n, dt = timed (fun () -> span "ckpt.snapshot" sim.snapshot) in
          snap_bytes := n;
          busy := !busy +. dt;
          add snap_s dt
        end
      done);
  let _, misses1 = Vm.Jit.cache_stats () in
  let rss_mb = peak_rss_mb () in
  (* verification, outside every timed region: the interpreter twins
     reproduce the prefix bitwise, and the final state is in range *)
  let in_range = sane (sim.state ()) in
  let twins_ok =
    span "verify" (fun () ->
        List.for_all
          (fun layout ->
            let twin = build ~backend:Vm.Engine.Interp w layout gen ~seed in
            for _ = 1 to w.prefix do
              twin.step ()
            done;
            bits_equal (fst (twin.state ())) (Option.get !prefix_state))
          w.twins)
  in
  if not twins_ok then prerr_endline "perfbench: state diverges from the interpreter twin";
  if not in_range then prerr_endline "perfbench: final state out of range";
  if not !diag_ok then prerr_endline "perfbench: diagnostic out of range";
  let ok = twins_ok && in_range && !diag_ok in
  let cells = float_of_int sim.cells in
  let steps = step_s.n + plain_s.n in
  let ns_per_lup q = quantile q step_s.xs *. 1e9 /. cells in
  let e2e =
    [
      m "setup_s" "s" (median (own_setup :: probes));
      m "ns_per_lup.p90" "ns" (ns_per_lup 0.9);
    ]
  in
  (* statistics that move more with the host from run to run; printed,
     not bounded (see README.md) *)
  let info =
    [
      m "ns_per_lup.min" "ns" (minimum step_s.xs *. 1e9 /. cells);
      m "ns_per_lup.p50" "ns" (ns_per_lup 0.5);
      m "mlups" "MLUP/s" (float_of_int steps *. cells /. !busy /. 1e6);
    ]
  in
  (* per-layer: counts always, timings from the traced steps *)
  let sp = spans () in
  let kernels = step_kernels gen in
  let sweeps = blocks w.layout * List.length kernels in
  let steady name = median (per_parent ~parent:"step" ~name sp) in
  let first name = List.fold_left ( +. ) 0. (per_parent ~parent:"step.first" ~name sp) in
  let phi = steady "kernel.phi" and mu = steady "kernel.mu" in
  let layers =
    [
      m "frontend.generate_s" "s" (or0 (median (durations "frontend.generate" sp)));
      m "frontend.flops_per_lup" "flop"
        (float_of_int
           (List.fold_left (fun acc k -> acc + Field.Opcount.total_flops (G.counts k)) 0 kernels));
      m "kernel.computed_bytes_per_lup" "B"
        (List.fold_left
           (fun acc k ->
             acc
             +. Perfmodel.Layercond.traffic_bytes_per_lup k ~cache_bytes:(1 lsl 20)
                  ~n:(block_edge w.layout))
           0. kernels);
      m "jit.compiles" "count" (float_of_int (misses1 - misses0));
      m "jit.compile_s" "s"
        (or0 (first "kernel.phi" -. phi +. (first "kernel.mu" -. mu)));
      m "jit.lookups_per_step" "count" (float_of_int !lookups /. float_of_int window);
      m "kernel.phi_ns_per_cell" "ns" (or0 (phi *. 1e9 /. cells));
      m "kernel.mu_ns_per_cell" "ns" (or0 (mu *. 1e9 /. cells));
      m "kernel.sweeps_per_step" "count" (float_of_int sweeps);
      m "kernel.us_per_sweep" "us" (or0 ((phi +. mu) *. 1e6 /. float_of_int sweeps));
      m "kernel.minor_words_per_lup" "words" (!words /. (float_of_int window *. cells));
      m "exchange.ms_per_step" "ms" (or0 (steady "exchange" *. 1e3));
      m "exchange.messages_per_step" "count" (float_of_int !msgs /. float_of_int window);
      m "exchange.bytes_per_step" "B" (float_of_int !bytes /. float_of_int window);
      m "reduce.ms_per_call" "ms" (or0 (median diag_s.xs *. 1e3));
      m "ckpt.ms_per_snapshot" "ms" (or0 (median snap_s.xs *. 1e3));
      m "ckpt.bytes" "B" (float_of_int !snap_bytes);
      m "serve.preemptions" "count" 0.;
      m "serve.restarts" "count" 0.;
      m "serve.rejected" "count" 0.;
      m "serve.mempool_hit_rate" "ratio" 0.;
      m "serve.warm_batch_s" "s" 0.;
      m "obs.trace_overhead" "ratio"
        (or0 (median step_s.xs /. median plain_s.xs -. 1.));
      m "trace.unattributed_share" "ratio" (or0 (unattributed ~parent:"step" sp));
    ]
  in
  if traced then print_breakdown ~parent:"step" sp;
  {
    correct = ok;
    attempted = steps;
    failed = (if ok then 0 else steps);
    rss_mb;
    e2e;
    info;
    layers;
  }
