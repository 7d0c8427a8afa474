(* Quickstart: mean-curvature flow of a circular inclusion.

   Demonstrates the whole pipeline on the simplest possible model — a
   two-phase, isotropic energy functional with no chemistry:

     1. pick a parameter set,
     2. generate optimized kernels (energy functional → PDE → stencil → IR),
     3. set up a block, initial condition, and time-step it,
     4. watch the circle shrink at the theoretically constant area rate.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  Fmt.pr "== pfgen quickstart: 2-phase curvature flow ==@.";
  let params = Pfcore.Params.curvature ~dim:2 () in
  let generated = Pfcore.Genkernels.generate params in
  Fmt.pr "generated kernel '%s': %a@."
    generated.Pfcore.Genkernels.phi_full.Ir.Kernel.name Field.Opcount.pp
    (Pfcore.Genkernels.counts generated.Pfcore.Genkernels.phi_full);

  let sim = Pfcore.Timestep.create ~dims:[| 96; 96 |] generated in
  Pfcore.Simulation.init_sphere ~radius_frac:0.3 sim;

  Fmt.pr "@.step   area(phase0)  interface  sum(phi)@.";
  let area () = (Pfcore.Diag.phase_fractions sim).(0) *. (96. *. 96.) in
  let a0 = area () in
  Fmt.pr "%5d  %12.1f  %9.3f  1 (exact)@." 0 a0 (Pfcore.Diag.interface_fraction sim);
  let rates = ref [] in
  let prev = ref a0 in
  for i = 1 to 8 do
    Pfcore.Timestep.run sim ~steps:100;
    let a = area () in
    let fr = Pfcore.Diag.phase_fractions sim in
    rates := (!prev -. a) :: !rates;
    prev := a;
    Fmt.pr "%5d  %12.1f  %9.3f  %.12f@." (i * 100) a
      (Pfcore.Diag.interface_fraction sim)
      (fr.(0) +. fr.(1))
  done;
  (* dA/dt for curvature flow is constant (−2πM): the shrink rate per 100
     steps should be roughly the same in every window *)
  let rates = List.rev !rates in
  let mean = List.fold_left ( +. ) 0. rates /. float_of_int (List.length rates) in
  Fmt.pr "@.area shrink per 100 steps: mean %.1f cells " mean;
  Fmt.pr "(theory: constant in time — values %a)@."
    Fmt.(list ~sep:comma (fmt "%.1f"))
    rates;
  if Pfcore.Simulation.check_sane sim then Fmt.pr "state sane: phi in [0,1], sum = 1.@."
