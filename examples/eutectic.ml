(* Eutectic directional solidification (Bauer/Hötzer 2015, the
   grand-challenge scenario): two solid lamellae grow from the bottom of
   the domain into an undercooled binary melt, driven by the moving
   analytic temperature gradient.  Uses the model-zoo `eutectic` preset
   (3 phases, 2 components) built from the combinator library.  Reports
   the observables the physics is judged by: solid fraction growth, front
   position vs the pulling velocity, and lamella count in a cross-section.

   Run with:  dune exec examples/eutectic.exe [-- steps] *)

let () =
  let steps = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 150 in
  Fmt.pr "== eutectic directional solidification (model zoo) ==@.";
  let params = Pfcore.Params.eutectic () in
  Fmt.pr "model: %d phases, %d components, %d compile-time parameters@."
    params.Pfcore.Params.n_phases params.Pfcore.Params.n_comps
    (Pfcore.Params.config_parameter_count params);
  let t0 = Unix.gettimeofday () in
  let generated = Pfcore.Genkernels.generate params in
  Fmt.pr "kernels generated in %.1fs (recompilation cost the paper quotes as 30-60s)@."
    (Unix.gettimeofday () -. t0);
  List.iter
    (fun (name, k) ->
      Fmt.pr "  %-9s %a@." name Field.Opcount.pp (Pfcore.Genkernels.counts k))
    [
      ("phi-full", generated.Pfcore.Genkernels.phi_full);
      ("mu-full", Option.get generated.Pfcore.Genkernels.mu_full);
    ];

  let sim = Pfcore.Timestep.create ~dims:[| 48; 96 |] generated in
  Pfcore.Simulation.init_lamellae ~height_frac:0.25 ~lamella_width:8 sim;

  Fmt.pr "@.step   solid-frac  front-y  phases(alpha,beta,liquid)@.";
  let report step =
    let fr = Pfcore.Diag.phase_fractions sim in
    let solid = fr.(0) +. fr.(1) in
    Fmt.pr "%5d  %10.4f  %7.2f  %.3f %.3f %.3f@." step solid
      (Pfcore.Simulation.front_position sim)
      fr.(0) fr.(1) fr.(2)
  in
  report 0;
  let chunk = max 1 (steps / 5) in
  let done_ = ref 0 in
  while !done_ < steps do
    let n = min chunk (steps - !done_) in
    Pfcore.Timestep.run sim ~steps:n;
    done_ := !done_ + n;
    report !done_
  done;

  (* lamella structure: count solid-phase alternations in a bottom row *)
  let buf = Pfcore.Simulation.phi_buffer sim in
  let dominant x =
    let best = ref 0 and bv = ref 0. in
    for c = 0 to 1 do
      let v = Vm.Buffer.get buf ~component:c [| x; 4 |] in
      if v > !bv then begin
        bv := v;
        best := c
      end
    done;
    !best
  in
  let changes = ref 0 in
  for x = 1 to 47 do
    if dominant x <> dominant (x - 1) then incr changes
  done;
  Fmt.pr "@.lamella boundaries in bottom cross-section: %d (alternating two-solid structure)@."
    !changes;
  Fmt.pr "state sane: %b@." (Pfcore.Simulation.check_sane sim);
  Pfcore.Vtkout.write_phi sim "eutectic.vtk";
  Fmt.pr "wrote eutectic.vtk (ParaView: STRUCTURED_POINTS, phi_0..2 + dominant phase)@."
