(** Rollback-recovery driver: checkpoint every N steps, and on a rank
    crash restart the substrate, restore the latest checkpoint and replay.

    Because kernels draw their fluctuations from Philox streams keyed on
    (cell, step), a snapshot holds every src interior, and a restore
    re-primes the ghost layers from them (the exchange of an initial
    condition; every other buffer is written before it is read), the
    replayed steps recompute exactly the values the crashed attempt
    computed — the protected run finishes bitwise identical to an
    undisturbed one.  The priming messages of a rollback go through the
    substrate like any other, so they shift the sequence numbers a fault
    plan decides on. *)

type stats = {
  mutable checkpoints : int;
  mutable restarts : int;
  mutable replayed_steps : int;  (** steps recomputed after rollbacks *)
}

exception Too_many_restarts of int

(** The rollback driver: advance [steps] steps under crash protection.

    Generic over what is protected: [step] advances one lockstep step on
    [comm] and [step_count] reads the current step; [capture] takes a
    checkpoint and [restore] loads one back, step count included.  A
    checkpoint is captured before the first step and then after every
    [every] completed steps; only the newest is kept, because a rollback
    never reads an older one.  When a step dies with [Ghost.Rank_crashed],
    the substrate is restarted (clearing in-flight messages and reviving
    the rank), the newest checkpoint is restored, and execution resumes
    from there.  Gives up with {!Too_many_restarts} after [max_restarts]
    rollbacks. *)
let protect ?(max_restarts = 8) ~every ~steps ~step_count ~step ~capture ~restore comm =
  if every < 1 then invalid_arg "Recovery: every must be positive";
  let stats = { checkpoints = 0; restarts = 0; replayed_steps = 0 } in
  let start = step_count () in
  let target = start + steps in
  let latest = ref None in
  let checkpoint () =
    (* drop the old checkpoint before capturing, so two never coexist *)
    latest := None;
    let (), dt_ns =
      Obs.Clock.time_ns (fun () ->
          Obs.Span.with_ ~cat:"ckpt" "checkpoint" (fun () -> latest := Some (capture ())))
    in
    Obs.Metrics.observe (Obs.Metrics.histogram "ckpt.checkpoint_ns") dt_ns;
    stats.checkpoints <- stats.checkpoints + 1
  in
  checkpoint ();
  let rec advance () =
    let cur = step_count () in
    if cur < target then begin
      (try
         step ();
         if (step_count () - start) mod every = 0 then checkpoint ()
       with Blocks.Ghost.Rank_crashed _ ->
         if stats.restarts >= max_restarts then raise (Too_many_restarts stats.restarts);
         stats.restarts <- stats.restarts + 1;
         Obs.Metrics.count "ckpt.rollbacks" 1;
         Obs.Span.with_ ~cat:"ckpt" "rollback" (fun () ->
             Blocks.Mpisim.restart comm;
             match !latest with
             | None -> assert false (* the initial checkpoint always exists *)
             | Some snap ->
               restore snap;
               stats.replayed_steps <- stats.replayed_steps + (cur - step_count ())));
      advance ()
    end
  in
  advance ();
  stats

(** {!protect} over a run of any kind, checkpointing through
    [Snapshot.capture_run] and rolling back through [Snapshot.restore_run].
    A single block has no rank to crash, so it just runs. *)
let run_protected ?max_restarts ~every ~steps run =
  match Blocks.Run.comm run with
  | None ->
    Blocks.Run.run run ~steps;
    { checkpoints = 0; restarts = 0; replayed_steps = 0 }
  | Some comm ->
    protect ?max_restarts ~every ~steps
      ~step_count:(fun () -> Blocks.Run.step_count run)
      ~step:(fun () -> Blocks.Run.step run)
      ~capture:(fun () -> Snapshot.capture_run run)
      ~restore:(fun snap -> Snapshot.restore_run snap run)
      comm
