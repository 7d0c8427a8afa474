(** Preemption support for the simulation farm: park a job at a quantum
    boundary, hand its buffer storage back to an allocator, and resume it
    later into freshly allocated (typically pooled) buffers.

    A park is just a {!Snapshot} capture plus an explicit release of the
    backing arrays, and a resume is a restore into a rebuilt block — so
    preemption inherits the snapshot layer's bitwise-exactness contract:
    ghost layers travel with the capture and no re-priming is needed, which
    oracle 9 (farm vs. solo) holds the scheduler to. *)

type parked = {
  snap : Snapshot.t;
  ranks : int;  (** 1 for a single-block job *)
}

let observe kind bytes =
  Obs.Metrics.count "preempt.parks" 1;
  Obs.Metrics.count "preempt.parked_bytes" bytes;
  Obs.Span.instant ~cat:"serve" kind

(** Capture a single-block job at a quantum boundary. *)
let park_single (sim : Pfcore.Timestep.t) =
  let snap = Snapshot.capture_single sim in
  observe "preempt:park" (Snapshot.state_bytes snap);
  { snap; ranks = 1 }

(** Capture a whole protected forest job at a quantum boundary. *)
let park (forest : Blocks.Forest.t) =
  let snap = Snapshot.capture forest in
  observe "preempt:park" (Snapshot.state_bytes snap);
  { snap; ranks = Blocks.Forest.n_ranks forest }

(* Hand every backing array of [block] to [free] and poison the buffer so
   a stale reference faults loudly instead of aliasing recycled storage. *)
let release_block ~free (block : Vm.Engine.block) =
  List.iter
    (fun ((_ : Symbolic.Fieldspec.t), (buf : Vm.Buffer.t)) ->
      free buf.Vm.Buffer.data;
      buf.Vm.Buffer.data <- [||])
    block.Vm.Engine.buffers

(** Release the field storage of a parked single-block job. *)
let release_single ~free (sim : Pfcore.Timestep.t) =
  release_block ~free sim.Pfcore.Timestep.block

(** Release the field storage of every rank of a parked forest job. *)
let release ~free (forest : Blocks.Forest.t) =
  Array.iter
    (fun (sim : Pfcore.Timestep.t) -> release_block ~free sim.Pfcore.Timestep.block)
    forest.Blocks.Forest.sims

(** Resume a parked single-block job into a freshly built simulation. *)
let resume_single parked (sim : Pfcore.Timestep.t) =
  if parked.ranks <> 1 then
    raise (Snapshot.Invalid "parked job is a forest, not a single block");
  Snapshot.restore_single parked.snap sim;
  Obs.Span.instant ~cat:"serve" "preempt:resume"

(** Resume a parked forest job into a freshly built forest. *)
let resume parked (forest : Blocks.Forest.t) =
  if parked.ranks <> Blocks.Forest.n_ranks forest then
    raise (Snapshot.Invalid "parked job rank count does not match the target forest");
  Snapshot.restore parked.snap forest;
  Obs.Span.instant ~cat:"serve" "preempt:resume"
