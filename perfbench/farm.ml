(* farm-zoo: one closed batch of jobs submitted at t = 0 to
   Serve.Scheduler.run.  Set-up generates every family's kernels and runs
   the batch cold; the measured phase re-runs it warm.  Every batch is
   checked against Serve.Scheduler.run_solo. *)

open Harness
module W = Serve.Workload
module S = Serve.Scheduler

let per_family = 20  (* 120 jobs: the 12 slowest lie beyond p90 *)
let families = [ W.Curv2d; W.P1; W.P2; W.Eutectic; W.Pfc; W.GrayScott ]

(* The knobs of Serve.Workload's mix: edges and step counts per family
   (the 3D families and eutectic's pricier kernels keep small edges, P2
   the smallest), interp/jit, full/split, and crash-injected 2-rank jobs
   on the cheap 2D family. *)
let sizes = function
  | W.Curv2d | W.Pfc | W.GrayScott -> [| 8; 12; 16 |]
  | W.P1 -> [| 6; 8 |]
  | W.Eutectic -> [| 8; 12 |]
  | W.P2 -> [| 6 |]

let step_counts = function W.P2 | W.Eutectic -> [| 2; 3 |] | _ -> [| 2; 3; 4; 5 |]

type job_class = {
  family : W.family;
  size : int;
  steps : int;
  split : bool;
  backend : Vm.Engine.backend;
  crash : bool;
}

(* The batch's composition is the same for every seed: each family gets
   [per_family] jobs cycling through its edges, variants, backends and
   step counts, and job k of every family forms round k.  The compiles of
   distinct (kernel, dims) programs are most of a cold batch's time; a
   batch drawn knob by knob compiles a different set on every seed, and a
   free shuffle moves them to the front or the back of the batch, so the
   seed would move the farm's metrics more than the host does. *)
let classes () =
  List.map
    (fun family ->
      let sz = sizes family and st = step_counts family in
      let ns = Array.length sz in
      Array.init per_family (fun k ->
          {
            family;
            size = sz.(k mod ns);
            steps = st.((k + (k / ns)) mod Array.length st);
            split = k / ns mod 2 = 1;
            backend = (if k / (2 * ns) mod 2 = 0 then Vm.Engine.Jit else Vm.Engine.Interp);
            crash = family = W.Curv2d && k mod 4 = 1;
          }))
    families

let tenants = [| "amber"; "basalt"; "cobalt" |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The first rounds hold the first occurrence of every program the JIT
   compiles (a jit job's family, edge, variant and rank split); the later
   rounds hold no new one. *)
let compile_rounds per_family =
  let seen = Hashtbl.create 64 and last = ref 0 in
  Array.iter
    (Array.iteri (fun k c ->
         let key = (c.family, c.size, c.split, c.crash) in
         if c.backend = Vm.Engine.Jit && not (Hashtbl.mem seen key) then begin
           Hashtbl.add seen key ();
           last := max !last k
         end))
    per_family;
  !last + 1

(* The compile rounds are submitted first, at the top priority, so every
   compile falls in the batch's first rounds on every seed.  Left free,
   the last compile lands anywhere from a third of the way into the batch
   to its end, and the median job's latency jumps with it.  The seed
   orders the compile rounds among themselves and the other rounds among
   themselves, gives each other round a priority (all its jobs share it,
   so admission by priority reorders whole rounds), orders the families
   within every round, and draws each job's tenant and initial-condition
   seed. *)
let mix ~seed =
  let st = Random.State.make [| seed |] in
  let per_family = Array.of_list (classes ()) in
  let n = Array.length per_family.(0) and first = compile_rounds per_family in
  let rounds =
    Array.append
      (shuffle st (Array.init first Fun.id))
      (shuffle st (Array.init (n - first) (( + ) first)))
  in
  let jobs =
    Array.to_list rounds
    |> List.concat_map (fun r ->
           let priority = if r < first then 2 else Random.State.int st 3 in
           Array.to_list (shuffle st (Array.map (fun jobs -> (jobs.(r), priority)) per_family)))
  in
  List.mapi
    (fun id (c, priority) ->
      {
        W.id;
        tenant = tenants.(Random.State.int st (Array.length tenants));
        family = c.family;
        size = c.size;
        steps = c.steps;
        priority;
        split = c.split;
        backend = c.backend;
        ranks = (if c.crash then 2 else 1);
        crash_step = (if c.crash then Some (1 + (c.steps / 2)) else None);
        seed = Random.State.bits st;
      })
    jobs

let lups (s : W.spec) =
  let rec pow n d = if d = 0 then 1 else n * pow n (d - 1) in
  float_of_int (pow s.W.size (W.dim_of s) * s.W.steps)

(* Generation of all six families' kernels.  run_solo of a zero-step job
   generates a family's kernels into the scheduler's own cache and runs
   nothing else, so the batch then starts with every family generated.
   P2's generation peaks near 800 MB; the closing compaction makes its
   garbage part of generation instead of a cost of the batches. *)
let generate specs =
  List.iter
    (fun family ->
      let spec = List.find (fun (s : W.spec) -> s.W.family = family) specs in
      span "frontend.generate" (fun () ->
          ignore (S.run_solo { spec with W.steps = 0; ranks = 1; crash_step = None })))
    families;
  span "gc.compact" Gc.compact

let config () = { (S.default_config ()) with S.quantum = 1; num_domains = 1 }

(* Set-up: generation, then the cold batch on an empty JIT memo and
   mempool, which makes every compile the batch needs.  Steady (warm)
   batches can start only after it, as a simulation's steady steps start
   only after its compile-bearing first step. *)
let setup ~config ~mempool specs =
  generate specs;
  span "serve.batch.cold" (fun () -> S.run ~config ~mempool specs)

(* Digest of every job's final snapshot in job order, by which the cold
   batch of a probe process is checked against the run's own. *)
let digest (st : S.run_stats) =
  st.S.results
  |> List.sort (fun (a : S.job_result) (b : S.job_result) ->
         compare a.S.r_spec.W.id b.S.r_spec.W.id)
  |> List.map (fun (r : S.job_result) -> Resilience.Snapshot.encode r.S.final)
  |> String.concat "" |> Digest.string |> Digest.to_hex

(* Warm re-runs of the batch that the measured phase makes at least, so
   the warm-batch statistics never rest on fewer samples. *)
let min_warm = 5

(* Job runs of a warm batch that were rejected or did not reproduce the
   cold batch, whose digest is [cold]. *)
let warm_failures ~cold (st : S.run_stats) =
  List.length st.S.rejected + if digest st = cold then 0 else List.length st.S.results

(* The probe that runs in a child process: the set-up, then warm batches
   for half the measured phase, so the run's warm-batch samples come from
   two processes at two times.  It prints one line: the set-up time, the
   cold batch's digest, the failed warm job runs and the warm batch times. *)
let probe ~seed ~seconds =
  let specs = mix ~seed in
  let config = config () and mempool = Serve.Mempool.create () in
  let cold, setup_s = timed (fun () -> setup ~config ~mempool specs) in
  let d = digest cold in
  let deadline = now () +. (seconds /. 2.) in
  let warm = samples () and failed = ref 0 in
  while now () < deadline || warm.n < min_warm do
    let st, dt = timed (fun () -> S.run ~config ~mempool specs) in
    add warm dt;
    failed := !failed + warm_failures ~cold:d st
  done;
  Printf.sprintf "%.9f %s %d %s" setup_s d !failed
    (String.concat "," (List.map (Printf.sprintf "%.9f") warm.xs))

(* Untraced, [probes] yields the probe's line.  [setup_s] is the median of
   the probe's set-up and the run's own; the warm-batch statistics pool
   the probe's batches with the run's own. *)
let run ~seed ~seconds ~probes =
  let probes =
    List.map
      (fun l ->
        Scanf.sscanf l "%f %s %d %s" (fun setup_s digest failed warm ->
            (setup_s, digest, failed, List.map float_of_string (String.split_on_char ',' warm))))
      (probes ())
  in
  let specs = mix ~seed in
  let batch_lups = List.fold_left (fun acc s -> acc +. lups s) 0. specs in
  let config = config () in
  let mempool = Serve.Mempool.create () in
  let _, misses0 = Vm.Jit.cache_stats () in
  let cold, own_setup = timed (fun () -> span "setup" (fun () -> setup ~config ~mempool specs)) in
  let _, misses1 = Vm.Jit.cache_stats () in
  let traced = !tracing in
  let failed = ref 0 and attempted = ref 0 in
  let finals = Hashtbl.create 128 in
  List.iter (fun (r : S.job_result) -> Hashtbl.replace finals r.S.r_spec.W.id r.S.final)
    cold.S.results;
  let check_warm (st : S.run_stats) =
    span "verify.warm" (fun () ->
        attempted := !attempted + List.length specs;
        failed := !failed + List.length st.S.rejected;
        List.iter
          (fun (r : S.job_result) ->
            match Hashtbl.find_opt finals r.S.r_spec.W.id with
            | Some f when Resilience.Snapshot.equal f r.S.final -> ()
            | _ -> incr failed)
          st.S.results)
  in
  let warm_s = samples () and plain_s = samples () in
  let lookups = ref 0 and words = ref 0. in
  span "farm" (fun () ->
      let deadline = now () +. seconds in
      let k = ref 0 in
      while now () < deadline || !k < min_warm || (traced && warm_s.n < 2) do
        incr k;
        let h0, m0 = Vm.Jit.cache_stats () and w0 = Gc.minor_words () in
        let untraced = traced && !k mod 2 = 1 in
        let st, dt =
          if untraced then timed (fun () -> S.run ~config ~mempool specs)
          else timed (fun () -> span "serve.batch.warm" (fun () -> S.run ~config ~mempool specs))
        in
        if !k = 1 then begin
          let h1, m1 = Vm.Jit.cache_stats () and w1 = Gc.minor_words () in
          lookups := h1 - h0 + (m1 - m0);
          words := w1 -. w0
        end;
        add (if untraced then plain_s else warm_s) dt;
        check_warm st
      done);
  let rss_mb = peak_rss_mb () in
  (* verification: every job of the cold batch against its solo run, and
     the probe's cold batch against this one *)
  let completed = List.length cold.S.results in
  attempted := !attempted + List.length specs;
  failed := !failed + List.length cold.S.rejected;
  let encode_s = samples () and encoded = ref 0 in
  span "verify.solo" (fun () ->
      List.iter
        (fun (r : S.job_result) ->
          if not (Resilience.Snapshot.equal r.S.final (S.run_solo r.S.r_spec)) then incr failed)
        cold.S.results);
  let own_digest = digest cold in
  List.iter
    (fun (_, d, warm_failed, warm) ->
      attempted := !attempted + ((1 + List.length warm) * List.length specs);
      failed := !failed + warm_failed;
      if d <> own_digest then failed := !failed + List.length specs)
    probes;
  List.iter
    (fun (r : S.job_result) ->
      let s, dt = timed (fun () -> span "ckpt.encode" (fun () -> Resilience.Snapshot.encode r.S.final)) in
      add encode_s dt;
      encoded := !encoded + String.length s)
    cold.S.results;
  if !failed > 0 then Printf.eprintf "perfbench: %d farm jobs rejected or diverging\n" !failed;
  let own_warm = if traced then warm_s.xs @ plain_s.xs else warm_s.xs in
  let warm = own_warm @ List.concat_map (fun (_, _, _, w) -> w) probes in
  let cold_s = cold.S.elapsed_ns *. 1e-9 in
  let latency q = quantile q (List.map (fun (r : S.job_result) -> r.S.latency_ns *. 1e-9) cold.S.results) in
  let e2e =
    [
      m "setup_s" "s" (median (own_setup :: List.map (fun (t, _, _, _) -> t) probes));
      m "ns_per_lup.p90" "ns" (quantile 0.9 warm *. 1e9 /. batch_lups);
    ]
  in
  let info =
    [
      m "ns_per_lup.min" "ns" (minimum warm *. 1e9 /. batch_lups);
      m "ns_per_lup.p50" "ns" (median warm *. 1e9 /. batch_lups);
      m "mlups" "MLUP/s"
        (batch_lups *. float_of_int (List.length warm) /. List.fold_left ( +. ) 0. warm /. 1e6);
      m "cold.jobs_per_s" "1/s" (float_of_int completed /. cold_s);
      m "cold.job_latency_s.p50" "s" (latency 0.5);
      m "cold.job_latency_s.p90" "s" (latency 0.9);
    ]
  in
  let sp = spans () in
  let untraced = List.fold_left ( +. ) 0. plain_s.xs in
  let steps = List.fold_left (fun acc (s : W.spec) -> acc + s.W.steps) 0 specs in
  let ms = cold.S.mempool in
  let layers =
    [
      m "frontend.generate_s" "s" (List.fold_left ( +. ) 0. (durations "frontend.generate" sp));
      m "frontend.flops_per_lup" "flop" 0.;
      m "kernel.computed_bytes_per_lup" "B" 0.;
      m "jit.compiles" "count" (float_of_int (misses1 - misses0));
      m "jit.compile_s" "s" (or0 (median (durations "serve.batch.cold" sp) -. median own_warm));
      m "jit.lookups_per_step" "count" (float_of_int !lookups /. float_of_int steps);
      m "kernel.phi_ns_per_cell" "ns" 0.;
      m "kernel.mu_ns_per_cell" "ns" 0.;
      m "kernel.sweeps_per_step" "count" 0.;
      m "kernel.us_per_sweep" "us" 0.;
      m "kernel.minor_words_per_lup" "words" (!words /. batch_lups);
      m "exchange.ms_per_step" "ms" 0.;
      m "exchange.messages_per_step" "count" 0.;
      m "exchange.bytes_per_step" "B" 0.;
      m "reduce.ms_per_call" "ms" 0.;
      m "ckpt.ms_per_snapshot" "ms" (median encode_s.xs *. 1e3);
      m "ckpt.bytes" "B" (float_of_int !encoded /. float_of_int (max 1 completed));
      m "serve.preemptions" "count" (float_of_int cold.S.preemptions);
      m "serve.restarts" "count" (float_of_int cold.S.restarts);
      m "serve.rejected" "count" (float_of_int (List.length cold.S.rejected));
      m "serve.mempool_hit_rate" "ratio"
        (float_of_int ms.Serve.Mempool.hits
        /. float_of_int (max 1 (ms.Serve.Mempool.hits + ms.Serve.Mempool.misses)));
      m "serve.warm_batch_s" "s" (median own_warm);
      m "obs.trace_overhead" "ratio" (or0 (median warm_s.xs /. median plain_s.xs -. 1.));
      m "trace.unattributed_share" "ratio" (or0 (unattributed ~untraced ~parent:"farm" sp));
    ]
  in
  if traced then print_breakdown ~untraced ~parent:"farm" sp;
  { correct = !failed = 0; attempted = !attempted; failed = !failed; rss_mb; e2e; info; layers }
