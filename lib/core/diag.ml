(** Deterministic global diagnostics and threshold triggers.

    A scalar folded in storage order depends on nothing {e protecting}
    that order once a sweep is tiled, pooled or decomposed.  This module
    computes the physics through [Vm.Reduce]'s exact accumulator instead:
    a sum is the correctly rounded sum of its cells, so every scalar here
    is bitwise identical across tile shapes, domain counts, steal
    patterns and backends, and matches the forest-level [Blocks.Reduce]
    values cell for cell.  These are the numbers the paper's
    grand-challenge runs steer on (phase fractions, interface area,
    nucleation triggers, §8) — steering decisions must not depend on the
    scheduler.

    A {!trigger} watches one diagnostic during a run and records the
    exact step at which it first reaches its threshold; because the
    watched value is deterministic, the firing step is too. *)

open Symbolic

let block_cells (t : Timestep.t) =
  Vm.Reduce.total_cells t.Timestep.block.Vm.Engine.global_dims

(** Deterministic scalar of one field of a single-block simulation.
    [op]/[cellfn] as in [Vm.Reduce]; pool width, tile shape and backend
    default to the simulation's own configuration. *)
let scalar ?backend ?num_domains ?tile (t : Timestep.t) (field : Fieldspec.t) cellfn op =
  Vm.Reduce.scalar
    ~backend:(Option.value backend ~default:t.Timestep.backend)
    ~num_domains:(Option.value num_domains ~default:t.Timestep.num_domains)
    ?tile:(match tile with Some _ -> tile | None -> t.Timestep.tile)
    t.Timestep.block field cellfn op

let phi_src (t : Timestep.t) = t.Timestep.gen.Genkernels.fields.Model.phi_src

(** Volume-weighted phase fractions of φ_src, exactly summed. *)
let phase_fractions ?backend ?num_domains ?tile (t : Timestep.t) =
  let n = float_of_int (block_cells t) in
  Array.init t.Timestep.gen.Genkernels.params.Params.n_phases (fun c ->
      scalar ?backend ?num_domains ?tile t (phi_src t) (Vm.Reduce.Component c)
        Vm.Reduce.Sum
      /. n)

(** Interface-cell count: cells with any φ component strictly inside the
    (0.01, 0.99) band. *)
let interface_cells ?backend ?num_domains ?tile (t : Timestep.t) =
  scalar ?backend ?num_domains ?tile t (phi_src t) Vm.Reduce.Interface Vm.Reduce.Sum

let interface_fraction ?backend ?num_domains ?tile (t : Timestep.t) =
  interface_cells ?backend ?num_domains ?tile t /. float_of_int (block_cells t)

(** NaN-aware extrema of one component: NaNs are skipped (all-NaN data
    reduces to NaN) and -0 orders before +0. *)
let min_value ?backend ?num_domains ?tile (t : Timestep.t) field ~component =
  scalar ?backend ?num_domains ?tile t field (Vm.Reduce.Component component)
    Vm.Reduce.Min

let max_value ?backend ?num_domains ?tile (t : Timestep.t) field ~component =
  scalar ?backend ?num_domains ?tile t field (Vm.Reduce.Component component)
    Vm.Reduce.Max

(* ------------------------------------------------------------------ *)
(* Threshold triggers                                                  *)
(* ------------------------------------------------------------------ *)

(** A trigger fires the first time its diagnostic reaches [threshold]
    ([value >= threshold], so a value landing exactly on the threshold
    fires on that step).  [fired_at] records the step count of the
    simulation {e after} the step that crossed — the step at which a
    steering decision (nucleation, output, refinement) would be taken. *)
type trigger = {
  tr_name : string;
  tr_value : Timestep.t -> float;
  threshold : float;
  mutable fired_at : int option;
  mutable last : float;
}

let trigger ~name ~threshold value =
  { tr_name = name; tr_value = value; threshold; fired_at = None; last = Float.nan }

(** Evaluate the trigger against the current state; records the firing
    step on the first crossing and returns [true] while fired.  Designed
    as a [Timestep.run ~on_step] hook. *)
let observe tr (t : Timestep.t) =
  let v = tr.tr_value t in
  tr.last <- v;
  if tr.fired_at = None && v >= tr.threshold then begin
    tr.fired_at <- Some t.Timestep.step_count;
    Obs.Span.instant ~cat:"diag"
      ~args:[ ("step", float_of_int t.Timestep.step_count); ("value", v) ]
      ("trigger:" ^ tr.tr_name)
  end;
  tr.fired_at <> None
