(* perfbench: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints the run's environment, every metric by name with its unit, and
   as its last line the JSON result.  --trace 0 reports the end-to-end
   metrics of an untraced run; --trace 1 traces the same workload and
   reports the per-layer metrics, a per-layer table and a Chrome trace.
   Run it through run.sh, which builds it and isolates the run. *)

open Harness

let workloads = [ "p1-single"; "eutectic-forest"; "farm-zoo" ]

let sim_workload = function
  | "p1-single" -> Some Sims.p1_single
  | "eutectic-forest" -> Some Sims.eutectic_forest
  | _ -> None

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1");
  exit 2

(* Whether the JIT's native tier can be live, by the rule the JIT itself
   applies: not switched off by PFGEN_JIT_NATIVE, a native host, and an
   OCaml native compiler to shell out to.  A native compile that fails and
   falls back to the tape tier is not detected. *)
let jit_native () =
  (match Sys.getenv_opt "PFGEN_JIT_NATIVE" with Some ("0" | "off" | "tape") -> false | _ -> true)
  && Dynlink.is_native
  && List.exists
       (fun c -> Sys.command (c ^ " -version > /dev/null 2>&1") = 0)
       [ "ocamlopt.opt"; "ocamlopt"; "ocamlfind ocamlopt" ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let dir = ref "" in
  let rev = ref "unknown" and mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--rev", Arg.Set_string rev, "REV source revision, recorded with the run");
      ("--dir", Arg.Set_string dir, "DIR work in DIR (set-up and stream probes)");
      ( "--probe",
        Arg.Unit (fun () -> mode := `Probe),
        " time one set-up (farm: then re-run the batch warm) and exit" );
      ("--stream-probe", Arg.Unit (fun () -> mode := `Stream), " time the host stream and exit");
      ("--print-mix", Arg.Unit (fun () -> mode := `Mix), " print the farm batch for --seed");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench";
  if !dir <> "" then Sys.chdir !dir;
  match !mode with
  | `Stream -> Printf.printf "%.9f\n" (stream_probe ())
  | `Mix ->
    List.iter (fun s -> print_endline (Fmt.str "%a" Serve.Workload.pp_spec s)) (Farm.mix ~seed:!seed)
  | `Probe -> (
    match sim_workload !workload with
    | Some w -> Printf.printf "%.9f\n" (Sims.setup_seconds w ~seed:!seed)
    | None when !workload = "farm-zoo" -> print_endline (Farm.probe ~seed:!seed ~seconds:!seconds)
    | None -> usage ())
  | `Run ->
    if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0.
       || (!trace <> 0 && !trace <> 1)
    then usage ();
    let traced = !trace = 1 in
    let native = jit_native () in
    Printf.printf
      "perfbench: workload=%s seed=%d seconds=%g trace=%d rev=%s ocaml=%s nproc=%d domains=1 \
       backend=jit jit.native=%d\n\
       %!"
      !workload !seed !seconds !trace !rev Sys.ocaml_version
      (Domain.recommended_domain_count ())
      (Bool.to_int native);
    let stream () = child_float [ "--stream-probe" ] in
    let stream0 = stream () in
    (* probes in fresh processes repeat the set-up before the run's own
       (untraced runs only): two for a simulation, one for the farm, whose
       set-up takes ~30 s *)
    let probes () =
      if traced then []
      else
        List.init
          (if !workload = "farm-zoo" then 1 else 2)
          (fun _ ->
            child_line
              [ "--probe"; "--workload"; !workload; "--seed"; string_of_int !seed;
                "--seconds"; string_of_float !seconds ])
    in
    tracing := traced;
    let r =
      match sim_workload !workload with
      | Some w -> Sims.run w ~seed:!seed ~seconds:!seconds ~probes
      | None -> Farm.run ~seed:!seed ~seconds:!seconds ~probes
    in
    tracing := false;
    let stream1 = stream () in
    Printf.printf "host stream: %.3f ms at start, %.3f ms at end\n" stream0 stream1;
    if traced then begin
      print_self_times (spans ());
      let out = ".perfbench" in
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      let path = Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" !workload !seed) in
      write_chrome_trace path (spans ());
      Printf.printf "chrome trace: %s\n" path
    end;
    if not native then prerr_endline "perfbench: the JIT's native tier is unavailable";
    let metrics =
      if traced then
        r.layers
        @ [
            m "jit.native" "bool" (if native then 1. else 0.);
            m "host.stream_ms" "ms" (median [ stream0; stream1 ]);
          ]
      else r.e2e @ [ m "peak_rss_mb" "MiB" r.rss_mb ]
    in
    if not traced then begin
      print_endline "unbounded statistics (not in the result line):";
      print_metrics r.info;
      print_endline "end-to-end metrics:"
    end;
    let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
    print_result ~correct:(r.correct && native && finite) ~attempted:r.attempted
      ~failed:r.failed metrics
