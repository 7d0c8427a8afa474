(* Binary dendritic solidification — the paper's P2 scenario (Fig. 4
   right): anisotropic solid seeds with different crystal orientations grow
   into an undercooled melt; the cubic anisotropy selects preferred growth
   directions and differently-oriented grains compete.

   2D by default so it runs in seconds; pass a steps count to grow further.

   Run with:  dune exec examples/dendrite.exe [-- steps] *)

let () =
  let steps = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 400 in
  Fmt.pr "== P2: dendritic solidification, competing orientations ==@.";
  let params = Pfcore.Params.p2 ~dim:2 () in
  let generated = Pfcore.Genkernels.generate params in
  Fmt.pr "phi-full: %a@." Field.Opcount.pp
    (Pfcore.Genkernels.counts generated.Pfcore.Genkernels.phi_full);
  Fmt.pr "anisotropy makes phi far costlier than isotropic P1 (paper Table 1: 3968 vs 1004)@.";

  let nx = 96 and nz = 96 in
  let sim = Pfcore.Timestep.create ~dims:[| nx; nz |] generated in
  (* two seeds at the bottom: phase 0 aligned with the axes, phase 1
     misoriented by ~31 degrees (paper: teal vs green/purple grains) *)
  Pfcore.Simulation.init_seeds
    ~seeds:[ ([| nx / 4; 6 |], 0); ([| 3 * nx / 4; 6 |], 1) ]
    ~radius:5. sim;

  Fmt.pr "@.step   solid0   solid1   tip-z  interface@.";
  let report step =
    let fr = Pfcore.Diag.phase_fractions sim in
    Fmt.pr "%5d  %7.4f  %7.4f  %5d  %9.3f@." step fr.(0) fr.(1)
      (Pfcore.Simulation.tip_position sim)
      (Pfcore.Diag.interface_fraction sim)
  in
  report 0;
  let chunk = max 1 (steps / 8) in
  let done_ = ref 0 in
  while !done_ < steps do
    let n = min chunk (steps - !done_) in
    Pfcore.Timestep.run sim ~steps:n;
    done_ := !done_ + n;
    report !done_
  done;

  (* ASCII rendering of the microstructure: which phase dominates each cell *)
  let buf = Pfcore.Simulation.phi_buffer sim in
  Fmt.pr "@.microstructure ('0'/'1' = solid grains, '.' = melt):@.";
  for row = 11 downto 0 do
    let z = row * nz / 12 in
    for col = 0 to 47 do
      let x = col * nx / 48 in
      let v c = Vm.Buffer.get buf ~component:c [| x; z |] in
      let ch = if v 0 > 0.5 then '0' else if v 1 > 0.5 then '1' else '.' in
      print_char ch
    done;
    print_newline ()
  done;
  Fmt.pr "state sane: %b@." (Pfcore.Simulation.check_sane sim)
