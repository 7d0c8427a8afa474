(** Rollback-recovery driver: checkpoint every N steps, and on a rank
    crash restart the substrate, restore the latest checkpoint and replay.

    Because kernels draw their fluctuations from Philox streams keyed on
    (cell, step) and snapshots restore ghost layers verbatim, the replayed
    steps recompute exactly the values the crashed attempt computed — the
    protected run finishes bitwise identical to an undisturbed one. *)

type stats = {
  mutable checkpoints : int;
  mutable restarts : int;
  mutable replayed_steps : int;  (** steps recomputed after rollbacks *)
}

exception Too_many_restarts of int

(** Run [forest] forward [steps] steps under crash protection.

    A checkpoint is captured before the first step and then after every
    [every] completed steps.  When a step dies with [Ghost.Rank_crashed],
    the substrate is restarted (clearing in-flight messages and reviving
    the rank), the latest checkpoint is restored, and execution resumes
    from there.  Gives up with {!Too_many_restarts} after [max_restarts]
    rollbacks. *)
let run_protected ?(max_restarts = 8) ?(store = Store.create ()) ~every ~steps forest =
  if every < 1 then invalid_arg "Recovery.run_protected: every must be positive";
  let stats = { checkpoints = 0; restarts = 0; replayed_steps = 0 } in
  let start = Blocks.Forest.step_count forest in
  let target = start + steps in
  let checkpoint () =
    let (), dt_ns =
      Obs.Clock.time_ns (fun () ->
          Obs.Span.with_ ~cat:"ckpt" "checkpoint" (fun () ->
              Store.put store (Snapshot.capture forest)))
    in
    Obs.Metrics.observe (Obs.Metrics.histogram "ckpt.checkpoint_ns") dt_ns;
    stats.checkpoints <- stats.checkpoints + 1
  in
  checkpoint ();
  let rec advance () =
    let cur = Blocks.Forest.step_count forest in
    if cur < target then begin
      (try
         Blocks.Forest.step forest;
         if (Blocks.Forest.step_count forest - start) mod every = 0 then checkpoint ()
       with Blocks.Ghost.Rank_crashed _ ->
         if stats.restarts >= max_restarts then raise (Too_many_restarts stats.restarts);
         stats.restarts <- stats.restarts + 1;
         Obs.Metrics.count "ckpt.rollbacks" 1;
         Obs.Span.with_ ~cat:"ckpt" "rollback" (fun () ->
             Blocks.Mpisim.restart forest.Blocks.Forest.comm;
             match Store.latest store with
             | None -> assert false (* the initial checkpoint always exists *)
             | Some snap ->
               Snapshot.restore snap forest;
               stats.replayed_steps <- stats.replayed_steps + (cur - snap.Snapshot.step)));
      advance ()
    end
  in
  advance ();
  stats

(** [run_protected] over an adaptive forest.  The checkpoint captures
    the refinement state (levels, ownership, frozen constants) alongside
    the active buffers, and the adaptation decisions replayed after a
    rollback are pure functions of the restored state — so the protected
    adaptive run finishes bitwise identical to an undisturbed one,
    freeze/thaw schedule included. *)
let run_protected_adaptive ?(max_restarts = 8) ~every ~steps af =
  if every < 1 then invalid_arg "Recovery.run_protected_adaptive: every must be positive";
  let stats = { checkpoints = 0; restarts = 0; replayed_steps = 0 } in
  let start = Blocks.Adaptive.step_count af in
  let target = start + steps in
  let latest = ref None in
  let checkpoint () =
    Obs.Span.with_ ~cat:"ckpt" "checkpoint" (fun () ->
        latest := Some (Snapshot.capture_adaptive af));
    stats.checkpoints <- stats.checkpoints + 1
  in
  checkpoint ();
  let rec advance () =
    let cur = Blocks.Adaptive.step_count af in
    if cur < target then begin
      (try
         Blocks.Adaptive.step af;
         if (Blocks.Adaptive.step_count af - start) mod every = 0 then checkpoint ()
       with Blocks.Ghost.Rank_crashed _ ->
         if stats.restarts >= max_restarts then raise (Too_many_restarts stats.restarts);
         stats.restarts <- stats.restarts + 1;
         Obs.Metrics.count "ckpt.rollbacks" 1;
         Obs.Span.with_ ~cat:"ckpt" "rollback" (fun () ->
             Blocks.Mpisim.restart af.Blocks.Adaptive.comm;
             match !latest with
             | None -> assert false (* the initial checkpoint always exists *)
             | Some snap ->
               Snapshot.restore_adaptive snap af;
               stats.replayed_steps <- stats.replayed_steps + (cur - snap.Snapshot.a_step)));
      advance ()
    end
  in
  advance ();
  stats
