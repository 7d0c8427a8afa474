(* Distributed-memory substrate: message passing, ghost pack/unpack,
   forest-vs-single-block equivalence, and the network/scaling models. *)

open Symbolic

let f2 = Fieldspec.scalar ~dim:2 "f"

(* Every receive goes through [Ghost.fetch] (the self-healing receive). *)
let fetch = Blocks.Ghost.fetch

let test_mpisim_fifo () =
  let c = Blocks.Mpisim.create 2 in
  Blocks.Mpisim.send c ~src:0 ~dst:1 ~tag:7 [| 1.; 2. |];
  Blocks.Mpisim.send c ~src:0 ~dst:1 ~tag:7 [| 3. |];
  Alcotest.(check (array (float 0.))) "fifo 1" [| 1.; 2. |] (fetch c ~src:0 ~dst:1 ~tag:7);
  Alcotest.(check (array (float 0.))) "fifo 2" [| 3. |] (fetch c ~src:0 ~dst:1 ~tag:7);
  Alcotest.(check bool) "quiescent" true (Blocks.Mpisim.quiescent c)

let test_mpisim_accounting () =
  let c = Blocks.Mpisim.create 2 in
  Blocks.Mpisim.send c ~src:0 ~dst:1 ~tag:0 (Array.make 10 0.);
  Alcotest.(check int) "bytes counted" 80 c.Blocks.Mpisim.bytes_sent;
  Alcotest.(check int) "messages counted" 1 c.Blocks.Mpisim.messages_sent

(* The substrate owns what it is sent: the receiver gets the very array,
   not a copy (ghost slabs are freshly packed for every send). *)
let test_mpisim_send_owns_payload () =
  let c = Blocks.Mpisim.create 2 in
  let data = [| 1.; 2. |] in
  Blocks.Mpisim.send c ~src:0 ~dst:1 ~tag:7 data;
  Alcotest.(check bool) "received payload is the sent array" true
    (fetch c ~src:0 ~dst:1 ~tag:7 == data)

(* A receive that no send answers fails, once its retries are spent,
   with the exact (src, dst, tag) key in both failure modes: a channel
   nothing was sent on (wrong tag) and one that has been drained. *)
let test_fetch_failure_key () =
  let c = Blocks.Mpisim.create 3 in
  Blocks.Mpisim.send c ~src:0 ~dst:2 ~tag:5 [| 1. |];
  Alcotest.check_raises "wrong tag" (Blocks.Ghost.Exchange_failed (0, 2, 9)) (fun () ->
      ignore (fetch c ~src:0 ~dst:2 ~tag:9));
  ignore (fetch c ~src:0 ~dst:2 ~tag:5);
  Alcotest.check_raises "drained channel" (Blocks.Ghost.Exchange_failed (0, 2, 5)) (fun () ->
      ignore (fetch c ~src:0 ~dst:2 ~tag:5))

(* The counters must match the hand-computed ghost volume of one full
   exchange.  Curvature φ has 2 components; with ghost width 2 and 8x8
   blocks a slab spans 2 comps x 2 ghost cells x 12 padded cells = 48
   elements = 384 bytes.  A 2x2 periodic grid posts 2 sides x 4 ranks per
   axis over 2 axes = 16 messages, 16 x 384 = 6144 bytes. *)
let test_exchange_accounting () =
  let g = Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()) in
  let forest = Blocks.Forest.create ~grid:[| 2; 2 |] ~block_dims:[| 8; 8 |] g in
  let comm = forest.Blocks.Forest.comm in
  Alcotest.(check int) "no traffic before exchange" 0 comm.Blocks.Mpisim.messages_sent;
  Blocks.Forest.exchange forest g.Pfcore.Genkernels.fields.Pfcore.Model.phi_src;
  Alcotest.(check int) "messages per exchange" 16 comm.Blocks.Mpisim.messages_sent;
  Alcotest.(check int) "bytes per exchange" 6144 comm.Blocks.Mpisim.bytes_sent;
  Alcotest.(check bool) "all consumed" true (Blocks.Mpisim.quiescent comm)

let test_ghost_roundtrip () =
  (* packing a high slab of one buffer into the low ghosts of another is the
     core of the exchange; verify content placement *)
  let a = Vm.Buffer.create ~ghost:2 f2 [| 4; 4 |] in
  let b = Vm.Buffer.create ~ghost:2 f2 [| 4; 4 |] in
  Vm.Buffer.init a (fun c _ -> float_of_int ((10 * c.(0)) + c.(1)));
  let slab = Blocks.Ghost.pack a ~axis:0 ~side:Blocks.Ghost.High in
  Blocks.Ghost.unpack b ~axis:0 ~side:Blocks.Ghost.Low slab;
  (* b's low ghost column -1 now holds a's interior column 3 *)
  Alcotest.(check (float 0.)) "ghost content" 31.
    b.Vm.Buffer.data.(Vm.Buffer.base_index b [| -1; 1 |]);
  Alcotest.(check (float 0.)) "ghost width 2" 21.
    b.Vm.Buffer.data.(Vm.Buffer.base_index b [| -2; 1 |])

(* --------------- row-wise slab walker vs the per-value reference ---- *)

(* The per-value slab walk the row walker replaced, kept as the reference:
   cells in coordinate order (last axis fastest), components fastest within
   a cell, every element addressed through [base_index]. *)
let ref_iter_slab buf ~axis ~range f =
  let dim = Array.length buf.Vm.Buffer.dims in
  let g = buf.Vm.Buffer.ghost in
  let lo, hi = range in
  let coords = Array.make dim 0 in
  let rec loop d =
    if d = dim then begin
      let base = Vm.Buffer.base_index buf coords in
      for c = 0 to buf.Vm.Buffer.components - 1 do
        f (base + (c * buf.Vm.Buffer.comp_stride))
      done
    end
    else
      let l, h = if d = axis then (lo, hi) else (-g, buf.Vm.Buffer.dims.(d) + g - 1) in
      for i = l to h do
        coords.(d) <- i;
        loop (d + 1)
      done
  in
  loop 0

let ref_indices buf ~axis ~range =
  let acc = ref [] in
  ref_iter_slab buf ~axis ~range (fun i -> acc := i :: !acc);
  List.rev !acc

let ref_pack buf ~axis ~range =
  Array.of_list (List.map (fun i -> buf.Vm.Buffer.data.(i)) (ref_indices buf ~axis ~range))

let ref_unpack buf ~axis ~range payload =
  List.iteri (fun k i -> buf.Vm.Buffer.data.(i) <- payload.(k)) (ref_indices buf ~axis ~range)

(* The per-value periodic fill the row copy replaced. *)
let ref_periodic_axis (t : Vm.Buffer.t) axis =
  let dim = Array.length t.Vm.Buffer.dims in
  let n = t.Vm.Buffer.dims.(axis) in
  let g = t.Vm.Buffer.ghost in
  let coords = Array.make dim 0 in
  let at c = Vm.Buffer.base_index t coords + (c * t.Vm.Buffer.comp_stride) in
  let rec loop d =
    if d = dim then
      for layer = 0 to g - 1 do
        for c = 0 to t.Vm.Buffer.components - 1 do
          coords.(axis) <- -g + layer;
          let dst_lo = at c in
          coords.(axis) <- n - g + layer;
          let src_hi = at c in
          t.Vm.Buffer.data.(dst_lo) <- t.Vm.Buffer.data.(src_hi);
          coords.(axis) <- n + layer;
          let dst_hi = at c in
          coords.(axis) <- layer;
          let src_lo = at c in
          t.Vm.Buffer.data.(dst_hi) <- t.Vm.Buffer.data.(src_lo)
        done
      done
    else if d = axis then loop (d + 1)
    else
      for i = -g to t.Vm.Buffer.dims.(d) + g - 1 do
        coords.(d) <- i;
        loop (d + 1)
      done
  in
  loop 0

type slab_case = {
  s_dims : int array;
  s_ghost : int;
  s_kind : Fieldspec.kind;
  s_components : int;
  s_seed : int;
}

let slab_case_gen =
  QCheck.Gen.(
    let* dim = int_range 2 3 in
    let* s_ghost = int_range 1 2 in
    (* extents from 0 up, so blocks thinner than their ghost layer occur *)
    let* s_dims = array_size (return dim) (int_range 0 5) in
    let* s_kind = oneofl [ Fieldspec.Cell; Fieldspec.Staggered ] in
    let* s_components = int_range 1 4 in
    let* s_seed = int_bound 1_000_000 in
    return { s_dims; s_ghost; s_kind; s_components; s_seed })

let print_slab_case c =
  Printf.sprintf "dims=%s ghost=%d %s components=%d seed=%d"
    (String.concat "x" (Array.to_list (Array.map string_of_int c.s_dims)))
    c.s_ghost
    (match c.s_kind with Fieldspec.Cell -> "cell" | Fieldspec.Staggered -> "staggered")
    c.s_components c.s_seed

let slab_buffer c rng =
  let f =
    Fieldspec.create ~kind:c.s_kind ~dim:(Array.length c.s_dims) ~components:c.s_components
      "s"
  in
  let b = Vm.Buffer.create ~ghost:c.s_ghost f c.s_dims in
  Array.iteri (fun i _ -> b.Vm.Buffer.data.(i) <- Random.State.float rng 2. -. 1.) b.Vm.Buffer.data;
  b

let copy_buffer (b : Vm.Buffer.t) = { b with Vm.Buffer.data = Array.copy b.Vm.Buffer.data }

let bits_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* For every axis and side: the row walker lists exactly the reference's
   elements, in ascending storage order; [pack] reads and [unpack] writes
   them in that order; a pack -> unpack exchange fills the same ghosts as
   the reference's per-value pair (whatever the wire order); the periodic
   row copy equals the per-value fill; and [constant_slab] is the exact
   image of packing a buffer of per-component constants. *)
let slab_walker_agrees c =
  let rng = Random.State.make [| c.s_seed |] in
  let a = slab_buffer c rng and b = slab_buffer c rng in
  let dim = Array.length c.s_dims in
  let ok = ref true in
  let check b' = if not b' then ok := false in
  for axis = 0 to dim - 1 do
    List.iter
      (fun side ->
        let range = Blocks.Ghost.pack_range a axis side in
        let urange = Blocks.Ghost.unpack_range a axis side in
        let lo, hi = range in
        let r = Vm.Buffer.slab_rows a ~axis ~lo ~hi in
        let walked =
          List.concat
            (List.init r.Vm.Buffer.count (fun k ->
                 List.init r.Vm.Buffer.len (fun i -> r.Vm.Buffer.first + (k * r.Vm.Buffer.step) + i)))
        in
        let sorted = List.sort compare (ref_indices a ~axis ~range) in
        check (walked = sorted);
        let packed = Blocks.Ghost.pack a ~axis ~side in
        check
          (bits_equal packed
             (Array.of_list (List.map (fun i -> a.Vm.Buffer.data.(i)) sorted)));
        (* unpack writes the payload in storage order *)
        let payload = Array.map (fun _ -> Random.State.float rng 1.) packed in
        let got = copy_buffer b and want = copy_buffer b in
        Blocks.Ghost.unpack got ~axis ~side payload;
        List.iteri
          (fun k i -> want.Vm.Buffer.data.(i) <- payload.(k))
          (List.sort compare (ref_indices want ~axis ~range:urange));
        check (bits_equal got.Vm.Buffer.data want.Vm.Buffer.data);
        (* the exchange itself: a's boundary slab into b's opposite ghosts *)
        let opp = match side with Blocks.Ghost.Low -> Blocks.Ghost.High | High -> Low in
        let got = copy_buffer b and want = copy_buffer b in
        Blocks.Ghost.unpack got ~axis ~side:opp (Blocks.Ghost.pack a ~axis ~side);
        ref_unpack want ~axis
          ~range:(Blocks.Ghost.unpack_range want axis opp)
          (ref_pack a ~axis ~range);
        check (bits_equal got.Vm.Buffer.data want.Vm.Buffer.data))
      [ Blocks.Ghost.Low; Blocks.Ghost.High ];
    let got = copy_buffer a and want = copy_buffer a in
    Vm.Buffer.periodic_axis got axis;
    ref_periodic_axis want axis;
    check (bits_equal got.Vm.Buffer.data want.Vm.Buffer.data);
    let cv = Array.init a.Vm.Buffer.components (fun i -> float_of_int (i + 1) *. 0.5) in
    let const = copy_buffer a in
    Array.iteri
      (fun i _ -> const.Vm.Buffer.data.(i) <- cv.(i / const.Vm.Buffer.comp_stride))
      const.Vm.Buffer.data;
    check
      (bits_equal
         (Blocks.Ghost.constant_slab a ~axis cv)
         (Blocks.Ghost.pack const ~axis ~side:Blocks.Ghost.High))
  done;
  !ok

let test_slab_walker =
  QCheck.Test.make ~count:300 ~name:"slab rows = per-value reference (pack/unpack/periodic)"
    (QCheck.make ~print:print_slab_case slab_case_gen)
    slab_walker_agrees

let test_exchange_bytes_positive () =
  let a = Vm.Buffer.create ~ghost:2 f2 [| 8; 8 |] in
  Alcotest.(check bool) "ghost volume positive" true (Blocks.Ghost.exchange_bytes a > 0)

(* --------------- the receive path --------------------------------- *)

(* One attempt polls a channel: nothing before a send, then the messages
   in posting order, whether posted through the handle or by key. *)
let test_attempt_polls_in_order () =
  let c = Blocks.Mpisim.create 2 in
  let ch = Blocks.Mpisim.channel c ~src:0 ~dst:1 ~tag:3 in
  let poll what expected =
    Alcotest.(check (option (array (float 0.)))) what expected (Blocks.Mpisim.attempt c ch)
  in
  poll "nothing before a send" None;
  Blocks.Mpisim.post c ch [| 1.; 2. |];
  Blocks.Mpisim.send c ~src:0 ~dst:1 ~tag:3 [| 9. |];
  poll "first by polling" (Some [| 1.; 2. |]);
  poll "second by polling" (Some [| 9. |]);
  poll "then nothing" None;
  Alcotest.(check bool) "drained channels are quiescent" true (Blocks.Mpisim.quiescent c)

(* A sent message nobody received must trip the end-of-step quiescence
   invariant — overlap mode may not leak in-flight messages past
   finalize; the receive that comes late heals it from the sender's
   log. *)
let test_unreceived_unquiescent () =
  let c = Blocks.Mpisim.create 2 in
  Blocks.Mpisim.begin_step c ~step:0;
  Blocks.Mpisim.send c ~src:0 ~dst:1 ~tag:0 [| 4. |];
  Alcotest.(check bool) "not quiescent while in flight" false (Blocks.Mpisim.quiescent c);
  Alcotest.check_raises "finalize rejects in-flight messages"
    (Blocks.Mpisim.Unquiescent [ (0, 1, 0, 1) ]) (fun () -> Blocks.Mpisim.finalize c);
  Alcotest.(check (array (float 0.))) "retransmitted from the log" [| 4. |]
    (fetch c ~src:0 ~dst:1 ~tag:0);
  Blocks.Mpisim.finalize c

(* The healing receive: under a lossy/delaying/duplicating plan the
   payloads still arrive exactly once, in order. *)
let test_fetch_heals_faults () =
  let c = Blocks.Mpisim.create 2 in
  Blocks.Mpisim.set_fault_plan c
    (Some
       {
         Blocks.Faultplan.seed = 11;
         drop = 0.4;
         delay = 0.3;
         duplicate = 0.3;
         max_delay = 3;
         crash = None;
       });
  Blocks.Mpisim.begin_step c ~step:1;
  for i = 1 to 6 do
    Blocks.Mpisim.send c ~src:0 ~dst:1 ~tag:0 [| float_of_int i |]
  done;
  for i = 1 to 6 do
    Alcotest.(check (array (float 0.)))
      (Printf.sprintf "payload %d exactly once, in order" i)
      [| float_of_int i |]
      (fetch c ~src:0 ~dst:1 ~tag:0)
  done;
  Alcotest.(check bool) "faults were injected" true
    (c.Blocks.Mpisim.dropped + c.Blocks.Mpisim.delayed_count + c.Blocks.Mpisim.duplicated > 0);
  Blocks.Mpisim.finalize c

(* A dead sender surfaces as [Rank_crashed], the signal the recovery
   driver turns into a rollback. *)
let test_fetch_reports_crash () =
  let c = Blocks.Mpisim.create 2 in
  Blocks.Mpisim.set_fault_plan c
    (Some
       {
         Blocks.Faultplan.seed = 1;
         drop = 0.;
         delay = 0.;
         duplicate = 0.;
         max_delay = 3;
         crash = Some (0, 1);
       });
  Blocks.Mpisim.begin_step c ~step:1;
  Alcotest.check_raises "dead sender" (Blocks.Ghost.Rank_crashed 0) (fun () ->
      ignore (fetch ~max_retries:3 c ~src:0 ~dst:1 ~tag:0))

(* --------------- overlapped forest --------------------------------- *)

(* Overlapped exchange over a fault plan vs. clean sequential exchange:
   the scheduling transformation plus in-place healing must be invisible
   bitwise.  (Oracle 10 covers the random space; this pins one
   deterministic configuration into tier 1.) *)
let test_overlapped_forest_bitwise () =
  let g = Pfcore.Genkernels.generate (Pfcore.Params.p1 ()) in
  let run ~overlap ~faults =
    let forest =
      Blocks.Forest.create ~overlap ~grid:[| 1; 1; 2 |] ~block_dims:[| 6; 6; 6 |] g
    in
    Array.iter Pfcore.Simulation.init_lamellae forest.Blocks.Forest.sims;
    Blocks.Forest.prime forest;
    if faults then
      Blocks.Mpisim.set_fault_plan forest.Blocks.Forest.comm
        (Some
           {
             Blocks.Faultplan.seed = 5;
             drop = 0.2;
             delay = 0.2;
             duplicate = 0.1;
             max_delay = 3;
             crash = None;
           });
    Blocks.Forest.run forest ~steps:2;
    forest
  in
  let seq = run ~overlap:false ~faults:false in
  let ovl = run ~overlap:true ~faults:true in
  let fields = g.Pfcore.Genkernels.fields in
  List.iter
    (fun (f : Fieldspec.t) ->
      for z = 0 to 11 do
        for y = 0 to 5 do
          for x = 0 to 5 do
            for comp = 0 to f.Fieldspec.components - 1 do
              let a = Blocks.Forest.get seq f ~component:comp [| x; y; z |] in
              let b = Blocks.Forest.get ovl f ~component:comp [| x; y; z |] in
              if Int64.bits_of_float a <> Int64.bits_of_float b then
                Alcotest.failf "mismatch at %s (%d,%d,%d) comp %d: %h vs %h"
                  f.Fieldspec.name x y z comp a b
            done
          done
        done
      done)
    [ fields.Pfcore.Model.phi_src; fields.Pfcore.Model.mu_src ];
  let comm = ovl.Blocks.Forest.comm in
  Alcotest.(check bool) "fault plan actually fired" true
    (comm.Blocks.Mpisim.dropped + comm.Blocks.Mpisim.delayed_count
     + comm.Blocks.Mpisim.duplicated
    > 0)

(* The overlapped exchange's frozen-neighbour branch.  No shipped model
   reaches it through a step (every model with μ is unfreezable), so one
   block of a 2-rank adaptive eutectic forest is frozen by hand: block 3,
   which both axis-0 neighbours of block 2 and both axis-1 neighbours of
   block 1 are.  The overlapped exchange of φ_dst must leave the blocking
   exchange's ghosts bitwise and consume the identical (src, dst, tag)
   sequence.  A plan that drops every first send makes each receive heal
   once, so the healed-message instants spell out that sequence. *)
let test_overlap_frozen_neighbor () =
  let g = Pfcore.Genkernels.generate (Pfcore.Params.eutectic ()) in
  let f = g.Pfcore.Genkernels.fields in
  let phi_dst = f.Pfcore.Model.phi_dst in
  let vertex (fl : Fieldspec.t) =
    Array.init fl.Fieldspec.components (fun c -> float_of_int (c + 1) /. 8.)
  in
  let run exchange =
    let af =
      Blocks.Adaptive.create ~ranks:2 ~bgrid:[| 2; 2 |] ~block_dims:[| 6; 6 |] g
    in
    List.iter Pfcore.Simulation.init_model (Blocks.Adaptive.active_sims af);
    af.Blocks.Adaptive.states.(3) <-
      Blocks.Adaptive.Frozen
        (List.map
           (fun fl -> (fl, vertex fl))
           [ f.Pfcore.Model.phi_src; phi_dst; f.Pfcore.Model.mu_src; f.Pfcore.Model.mu_dst ]);
    Blocks.Mpisim.set_fault_plan af.Blocks.Adaptive.comm
      (Some { Blocks.Faultplan.none with Blocks.Faultplan.drop = 1. });
    Obs.Sink.clear ();
    Obs.Sink.enable ();
    exchange af.Blocks.Adaptive.blocks phi_dst;
    Obs.Sink.disable ();
    let healed =
      List.filter_map
        (fun (e : Obs.Sink.event) ->
          if e.Obs.Sink.phase = Obs.Sink.I then Some e.Obs.Sink.name else None)
        (Obs.Sink.events ())
    in
    Obs.Sink.clear ();
    (af, healed)
  in
  let blocking, seq_blocking = run Blocks.Lockstep.exchange in
  let overlapped, seq_overlapped =
    run (fun b fl -> Blocks.Lockstep.finish_exchange b fl (Blocks.Lockstep.start_exchange b fl))
  in
  Alcotest.(check int) "every slab healed once"
    blocking.Blocks.Adaptive.comm.Blocks.Mpisim.messages_sent (List.length seq_blocking);
  Alcotest.(check (list string)) "identical (src, dst, tag) sequence" seq_blocking
    seq_overlapped;
  let ghosts (af : Blocks.Adaptive.t) id =
    match af.Blocks.Adaptive.states.(id) with
    | Blocks.Adaptive.Active sim ->
      Vm.Engine.buffer sim.Pfcore.Timestep.block phi_dst
    | Blocks.Adaptive.Frozen _ -> Alcotest.fail "block should be active"
  in
  for id = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "block %d ghosts bitwise" id)
      true
      (bits_equal (ghosts blocking id).Vm.Buffer.data (ghosts overlapped id).Vm.Buffer.data)
  done;
  (* block 2's axis-0 ghosts hold the frozen vertex on both sides *)
  Array.iteri
    (fun c v ->
      List.iter
        (fun x ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "constant slab, x = %d, component %d" x c)
            v
            (Vm.Buffer.get (ghosts overlapped 2) ~component:c [| x; 0 |]))
        [ -1; 6 ])
    (vertex phi_dst)

let forest_matches_single variant =
  let g = Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()) in
  let single = Pfcore.Timestep.create ~variant_phi:variant ~dims:[| 16; 16 |] g in
  Pfcore.Simulation.init_sphere single;
  Pfcore.Timestep.run single ~steps:4;
  let forest =
    Blocks.Forest.create ~variant_phi:variant ~grid:[| 2; 2 |] ~block_dims:[| 8; 8 |] g
  in
  Array.iter Pfcore.Simulation.init_sphere forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  Blocks.Forest.run forest ~steps:4;
  let sbuf = Pfcore.Simulation.phi_buffer single in
  let max_diff = ref 0. in
  for x = 0 to 15 do
    for y = 0 to 15 do
      for c = 0 to 1 do
        let a = Vm.Buffer.get sbuf ~component:c [| x; y |] in
        let b =
          Blocks.Forest.get forest g.Pfcore.Genkernels.fields.Pfcore.Model.phi_src ~component:c
            [| x; y |]
        in
        let d = abs_float (a -. b) in
        if d > !max_diff then max_diff := d
      done
    done
  done;
  !max_diff

let test_forest_equals_single_full () =
  Alcotest.(check (float 0.)) "bit-exact, full variant" 0.
    (forest_matches_single Pfcore.Timestep.Full)

let test_forest_equals_single_split () =
  Alcotest.(check (float 0.)) "bit-exact, split variant" 0.
    (forest_matches_single Pfcore.Timestep.Split)

let test_forest_3d_p1 () =
  (* the full P1 model across a 2-rank decomposition along z *)
  let g = Pfcore.Genkernels.generate (Pfcore.Params.p1 ()) in
  let single = Pfcore.Timestep.create ~dims:[| 8; 8; 16 |] g in
  Pfcore.Simulation.init_lamellae single;
  Pfcore.Timestep.run single ~steps:2;
  let forest = Blocks.Forest.create ~grid:[| 1; 1; 2 |] ~block_dims:[| 8; 8; 8 |] g in
  Array.iter Pfcore.Simulation.init_lamellae forest.Blocks.Forest.sims;
  Blocks.Forest.prime forest;
  Blocks.Forest.run forest ~steps:2;
  (* exact sums make the decomposition invisible: bitwise equal *)
  let fr_single = Pfcore.Diag.phase_fractions single in
  let fr_forest = Blocks.Run.phase_fractions (Blocks.Run.Forest forest) in
  Alcotest.(check int) "fraction count" (Array.length fr_single) (Array.length fr_forest);
  Array.iteri
    (fun i a ->
      Alcotest.(check int64) (Printf.sprintf "fraction %d bits" i) (Int64.bits_of_float a)
        (Int64.bits_of_float fr_forest.(i)))
    fr_single

let test_neighbor_wraps () =
  let g = Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()) in
  let forest = Blocks.Forest.create ~grid:[| 3; 1 |] ~block_dims:[| 4; 4 |] g in
  Alcotest.(check int) "periodic low wrap" 2 (Blocks.Forest.neighbor forest 0 ~axis:0 ~dir:(-1));
  Alcotest.(check int) "periodic high wrap" 0 (Blocks.Forest.neighbor forest 2 ~axis:0 ~dir:1)

(* --------------- network and scaling models ------------------------ *)

let test_netmodel_monotone () =
  let net = Blocks.Netmodel.supermuc_ng in
  let t1 = Blocks.Netmodel.exchange_time_s net ~bytes:1e5 ~neighbors:6 ~ranks:64 in
  let t2 = Blocks.Netmodel.exchange_time_s net ~bytes:1e6 ~neighbors:6 ~ranks:64 in
  let t3 = Blocks.Netmodel.exchange_time_s net ~bytes:1e5 ~neighbors:6 ~ranks:100000 in
  Alcotest.(check bool) "more bytes, more time" true (t2 > t1);
  Alcotest.(check bool) "more hops, more latency" true (t3 > t1)

let test_weak_scaling_flat () =
  (* weak scaling must stay near-flat (paper Fig. 3 left) *)
  let cfg =
    {
      Blocks.Scaling.net = Blocks.Netmodel.supermuc_ng;
      mlups_per_pe = 6.;
      fields_bytes_per_cell = 96;
      ghost_width = 1;
      overlap = true;
    }
  in
  let at ranks = Blocks.Scaling.weak cfg ~block_dims:[| 60; 60; 60 |] ~ranks in
  let p16 = at 16 and p300k = at 300000 in
  Alcotest.(check bool) "near-perfect weak scaling" true (p300k > 0.9 *. p16);
  Alcotest.(check bool) "bounded by node rate" true (p16 <= 6.)

let test_strong_scaling_degrades () =
  let cfg =
    {
      Blocks.Scaling.net = Blocks.Netmodel.supermuc_ng;
      mlups_per_pe = 6.;
      fields_bytes_per_cell = 96;
      ghost_width = 1;
      overlap = true;
    }
  in
  let eff ranks = fst (Blocks.Scaling.strong cfg ~global_dims:[| 512; 256; 256 |] ~ranks) in
  let steps ranks = snd (Blocks.Scaling.strong cfg ~global_dims:[| 512; 256; 256 |] ~ranks) in
  Alcotest.(check bool) "per-PE efficiency drops with tiny blocks" true (eff 150000 < eff 48);
  Alcotest.(check bool) "but time-steps/s still improves" true (steps 150000 > steps 48)

let test_gpucomm_table2_ordering () =
  (* Table 2: each optimization helps; combined is best *)
  let c =
    Blocks.Gpucomm.costs Gpumodel.Device.p100 Blocks.Netmodel.piz_daint
      ~block_dims:[| 400; 400; 400 |] ~bytes_per_cell:152 ~flops_per_cell:3000 ~ranks:128
  in
  let rate o = Blocks.Gpucomm.mlups_per_gpu c o ~block_dims:[| 400; 400; 400 |] in
  let base = rate { Blocks.Gpucomm.overlap = false; gpudirect = false } in
  let gd = rate { Blocks.Gpucomm.overlap = false; gpudirect = true } in
  let ov = rate { Blocks.Gpucomm.overlap = true; gpudirect = false } in
  let both = rate { Blocks.Gpucomm.overlap = true; gpudirect = true } in
  Alcotest.(check bool) "gpudirect > baseline" true (gd > base);
  Alcotest.(check bool) "overlap > gpudirect alone" true (ov > gd);
  Alcotest.(check bool) "combined is best" true (both > ov);
  Alcotest.(check bool) "within ~2x of paper's 395-440 MLUP/s" true
    (base > 150. && both < 1200.)

let suite =
  [
    Alcotest.test_case "mpisim fifo semantics" `Quick test_mpisim_fifo;
    Alcotest.test_case "mpisim accounting" `Quick test_mpisim_accounting;
    Alcotest.test_case "mpisim send owns its payload" `Quick test_mpisim_send_owns_payload;
    Alcotest.test_case "ghost fetch failure key" `Quick test_fetch_failure_key;
    Alcotest.test_case "exchange message/byte accounting" `Quick test_exchange_accounting;
    Alcotest.test_case "ghost pack/unpack" `Quick test_ghost_roundtrip;
    Alcotest.test_case "ghost volume" `Quick test_exchange_bytes_positive;
    QCheck_alcotest.to_alcotest test_slab_walker;
    Alcotest.test_case "mpisim attempt polls in posting order" `Quick
      test_attempt_polls_in_order;
    Alcotest.test_case "mpisim in-flight message trips quiescence" `Quick
      test_unreceived_unquiescent;
    Alcotest.test_case "ghost fetch heals drop/delay/duplicate" `Quick test_fetch_heals_faults;
    Alcotest.test_case "ghost fetch reports dead sender" `Quick test_fetch_reports_crash;
    Alcotest.test_case "overlapped forest == sequential (faulty, bitwise)" `Slow
      test_overlapped_forest_bitwise;
    Alcotest.test_case "forest == single (full)" `Slow test_forest_equals_single_full;
    Alcotest.test_case "forest == single (split)" `Slow test_forest_equals_single_split;
    Alcotest.test_case "forest 3D P1" `Slow test_forest_3d_p1;
    Alcotest.test_case "overlapped exchange, frozen neighbour == blocking" `Quick
      test_overlap_frozen_neighbor;
    Alcotest.test_case "periodic neighbor wrap" `Quick test_neighbor_wraps;
    Alcotest.test_case "network model monotone" `Quick test_netmodel_monotone;
    Alcotest.test_case "weak scaling flat" `Quick test_weak_scaling_flat;
    Alcotest.test_case "strong scaling shape" `Quick test_strong_scaling_degrades;
    Alcotest.test_case "Table-2 ordering" `Quick test_gpucomm_table2_ordering;
  ]

(* --------------- Morton curve & load balancing --------------------- *)

let test_morton_locality () =
  (* what matters for communication volume is the compactness of the
     per-rank chunks: cutting the Morton curve into 8 chunks of 8 blocks
     yields 4x2 boxes (half-perimeter 6) where row-major yields 8x1 strips
     (half-perimeter 9) *)
  let grid = [| 8; 8 |] in
  let chunk_perimeter blocks =
    let rec chunks acc cur n = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | b :: rest ->
        if n = 8 then chunks (List.rev cur :: acc) [ b ] 1 rest
        else chunks acc (b :: cur) (n + 1) rest
    in
    let per chunk =
      let xs = List.map (fun b -> Array.get b 0) chunk and ys = List.map (fun b -> Array.get b 1) chunk in
      let span l = List.fold_left max min_int l - List.fold_left min max_int l + 1 in
      span xs + span ys
    in
    List.fold_left (fun acc c -> acc + per c) 0 (chunks [] [] 0 blocks)
  in
  let curve = Blocks.Morton.curve grid in
  Alcotest.(check int) "covers all blocks" 64 (List.length curve);
  let row_major =
    List.concat_map (fun y -> List.init 8 (fun x -> [| x; y |])) (List.init 8 Fun.id)
  in
  Alcotest.(check bool) "morton chunks more compact than row-major strips" true
    (chunk_perimeter curve < chunk_perimeter row_major);
  Alcotest.(check int) "no duplicates" 64
    (List.length (List.sort_uniq compare (List.map Array.to_list curve)))

let test_morton_key_order () =
  Alcotest.(check bool) "first quadrant first" true
    (Blocks.Morton.key [| 0; 0 |] < Blocks.Morton.key [| 1; 1 |]);
  Alcotest.(check bool) "3D keys distinct" true
    (Blocks.Morton.key [| 1; 2; 3 |] <> Blocks.Morton.key [| 3; 2; 1 |])

let test_balance_uniform () =
  let blocks = Blocks.Morton.curve [| 4; 4 |] in
  let assignment, load = Blocks.Morton.balance ~n_ranks:4 ~weights:(fun _ -> 1.) blocks in
  Alcotest.(check int) "all blocks assigned" 16 (List.length assignment);
  Alcotest.(check (float 1e-9)) "perfect balance" 1. (Blocks.Morton.imbalance load);
  (* each rank owns a contiguous chunk of the curve *)
  let ranks = List.map snd assignment in
  Alcotest.(check bool) "ranks nondecreasing along curve" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 15) ranks) (List.tl ranks))

let test_balance_weighted () =
  (* one heavy block: the balancer must not overload its rank further *)
  let blocks = Blocks.Morton.curve [| 4; 4 |] in
  let heavy = List.hd blocks in
  let weights b = if b == heavy then 8. else 1. in
  let _, load = Blocks.Morton.balance ~n_ranks:4 ~weights blocks in
  Alcotest.(check bool)
    (Printf.sprintf "imbalance %.2f below naive 1.83" (Blocks.Morton.imbalance load))
    true
    (Blocks.Morton.imbalance load < 1.83)

let suite =
  suite
  @ [
      Alcotest.test_case "morton curve locality" `Quick test_morton_locality;
      Alcotest.test_case "morton key order" `Quick test_morton_key_order;
      Alcotest.test_case "uniform load balance" `Quick test_balance_uniform;
      Alcotest.test_case "weighted load balance" `Quick test_balance_weighted;
    ]

(* --------------- a steady forest step makes almost no garbage ------- *)

let eutectic = lazy (Pfcore.Genkernels.generate (Pfcore.Params.eutectic ()))

(* Minor words per cell of a warm, fault-free JIT step of the eutectic
   8x8 forest of 12^2 blocks: resolved sweeps, cached channel handles and
   recycled slab payloads leave a step almost nothing to allocate.  Warm
   means every channel's retransmission log has filled once (a channel
   carries two slabs a step), so each send recycles the payload it
   evicts. *)
let steady_words ~overlap =
  Obs.Sink.disable ();
  let f =
    Blocks.Forest.create ~overlap ~num_domains:1 ~backend:Vm.Engine.Jit ~grid:[| 8; 8 |]
      ~block_dims:[| 12; 12 |] (Lazy.force eutectic)
  in
  Array.iter Pfcore.Simulation.init_model f.Blocks.Forest.sims;
  Blocks.Forest.prime f;
  Blocks.Forest.run f ~steps:Blocks.Mpisim.log_limit;
  Test_vm.native_step f.Blocks.Forest.sims.(0);
  let steps = 5 in
  let w0 = Gc.minor_words () in
  Blocks.Forest.run f ~steps;
  let cells = Array.fold_left ( * ) 1 f.Blocks.Forest.global_dims in
  (Gc.minor_words () -. w0) /. float_of_int (steps * cells)

let test_forest_step_allocation () =
  List.iter
    (fun overlap ->
      let w = steady_words ~overlap in
      Alcotest.(check bool)
        (Printf.sprintf "%s step: %.3f minor words per cell < 2"
           (if overlap then "overlapped" else "blocking")
           w)
        true (w < 2.))
    [ false; true ]

(* --------------- recycled payloads, channel handles ----------------- *)

(* Twice the log's depth sent before any receive: no slot's message has
   been consumed, so every send packs into an array of its own and every
   receive returns exactly what was sent.  Once consumed, a payload comes
   back to the send that evicts its log slot. *)
let test_recycled_payloads () =
  let module M = Blocks.Mpisim in
  let c = M.create 2 in
  let ch = M.channel c ~src:0 ~dst:1 ~tag:7 in
  let n = 2 * M.log_limit in
  let send k =
    let p = M.payload_for ch ~len:3 in
    Array.fill p 0 3 (float_of_int k);
    M.post c ch p;
    p
  in
  let sent = Array.init n send in
  let distinct = ref true in
  Array.iteri
    (fun i p -> Array.iteri (fun j q -> if i <> j && p == q then distinct := false) sent)
    sent;
  Alcotest.(check bool) "unconsumed slots are never recycled" true !distinct;
  for k = 0 to n - 1 do
    match M.attempt c ch with
    | Some p ->
      Alcotest.(check (array (float 0.))) (Printf.sprintf "message %d" k)
        (Array.make 3 (float_of_int k)) p
    | None -> Alcotest.failf "message %d missing" k
  done;
  Alcotest.(check bool) "a consumed payload is recycled by the send evicting its slot" true
    (M.payload_for ch ~len:3 == sent.(n - M.log_limit));
  Alcotest.(check bool) "a payload of another length is not" true
    (M.payload_for ch ~len:4 != sent.(n - M.log_limit));
  (* a stream that receives each message before the channel's next
     log_limit sends runs on the arrays it already has *)
  for k = n to (3 * n) - 1 do
    let p = send k in
    Alcotest.(check bool) "recycled" true (Array.exists (fun q -> q == p) sent);
    match M.attempt c ch with
    | Some q ->
      Alcotest.(check (array (float 0.))) (Printf.sprintf "message %d" k)
        (Array.make 3 (float_of_int k)) q
    | None -> Alcotest.failf "message %d missing" k
  done;
  Alcotest.(check bool) "quiescent" true (M.quiescent c)

(* After an adaptive rebalance moves blocks to other ranks, the next
   exchange runs on the new owners' channels: its messages per rank pair
   and face tag are exactly what the current owners call for.  The face
   handles were resolved by the priming exchange, under the first
   owners. *)
let test_rebalance_reresolves_channels () =
  let gen = Pfcore.Genkernels.generate (Pfcore.Params.curvature ~dim:2 ()) in
  let phi = gen.Pfcore.Genkernels.fields.Pfcore.Model.phi_src in
  let af = Blocks.Adaptive.create ~ranks:3 ~bgrid:[| 6; 2 |] ~block_dims:[| 6; 6 |] gen in
  (* a sharp disc in block (0,0): the far bulk freezes and the Morton
     weights move active blocks to other ranks *)
  List.iter
    (fun (sim : Pfcore.Timestep.t) ->
      let off = sim.Pfcore.Timestep.block.Vm.Engine.offset in
      Vm.Buffer.init (Vm.Engine.buffer sim.Pfcore.Timestep.block phi) (fun c comp ->
          let x = float_of_int (c.(0) + off.(0)) -. 2.5 in
          let y = float_of_int (c.(1) + off.(1)) -. 2.5 in
          let v = if (x *. x) +. (y *. y) < 4. then 1. else 0. in
          if comp = 0 then v else 1. -. v))
    (Blocks.Adaptive.active_sims af);
  let first_owners = Array.copy af.Blocks.Adaptive.owner in
  Blocks.Adaptive.prime af;
  Alcotest.(check bool) "the rebalance moved blocks" true (af.Blocks.Adaptive.migrations > 0);
  let blocks = af.Blocks.Adaptive.blocks in
  (* what one exchange sends per (src, dst, tag) under [owner] *)
  let expected owner =
    let acc = ref [] in
    Array.iteri
      (fun id st ->
        match st with
        | Blocks.Lockstep.Frozen _ -> ()
        | Blocks.Lockstep.Active _ ->
          for axis = 0 to 1 do
            List.iter
              (fun side ->
                let nb = Blocks.Lockstep.neighbor blocks id ~axis ~side in
                match af.Blocks.Adaptive.states.(nb) with
                | Blocks.Lockstep.Frozen _ -> ()
                | Blocks.Lockstep.Active _ ->
                  let tag = Blocks.Lockstep.face_tag blocks ~recv:id ~axis ~side in
                  acc := ((owner.(nb), owner.(id), tag), 1) :: !acc)
              [ Blocks.Ghost.Low; Blocks.Ghost.High ]
          done)
      af.Blocks.Adaptive.states;
    List.sort compare !acc
  in
  Alcotest.(check bool) "the move changes which channels carry the faces" true
    (expected first_owners <> expected af.Blocks.Adaptive.owner);
  let sent () =
    Hashtbl.fold
      (fun key (ch : Blocks.Mpisim.channel) acc -> (key, ch.Blocks.Mpisim.next_send) :: acc)
      af.Blocks.Adaptive.comm.Blocks.Mpisim.channels []
  in
  let before = sent () in
  Blocks.Lockstep.exchange blocks phi;
  let delta =
    List.filter_map
      (fun (key, n) ->
        let d = n - Option.value (List.assoc_opt key before) ~default:0 in
        if d > 0 then Some (key, d) else None)
      (sent ())
    |> List.sort compare
  in
  Alcotest.(check (list (pair (triple int int int) int)))
    "messages per rank pair and tag follow the new owners"
    (expected af.Blocks.Adaptive.owner) delta

let suite =
  suite
  @ [
      Alcotest.test_case "a warm JIT forest step allocates < 2 words per cell" `Quick
        test_forest_step_allocation;
      Alcotest.test_case "unconsumed payloads are never recycled" `Quick test_recycled_payloads;
      Alcotest.test_case "a rebalance re-resolves the moved blocks' channels" `Quick
        test_rebalance_reresolves_channels;
    ]
