(* Philox-4x32-10: known-answer vectors from the Random123 distribution,
   determinism and crude uniformity of the derived doubles. *)

let kat expect ~c ~k () =
  let w = Philox.random_ints ~c0:c.(0) ~c1:c.(1) ~c2:c.(2) ~c3:c.(3) ~k0:k.(0) ~k1:k.(1) in
  Array.iteri
    (fun i e -> Alcotest.(check int) (Printf.sprintf "word %d" i) e w.(i))
    expect

let test_kat_zero =
  kat
    [| 0x6627e8d5; 0xe169c58d; 0xbc57ac4c; 0x9b00dbd8 |]
    ~c:[| 0; 0; 0; 0 |] ~k:[| 0; 0 |]

let test_kat_ones =
  let f = 0xffffffff in
  kat
    [| 0x408f276d; 0x41c83b0e; 0xa20bc7c6; 0x6d5451fd |]
    ~c:[| f; f; f; f |] ~k:[| f; f |]

let test_kat_pi =
  kat
    [| 0xd16cfe09; 0x94fdcceb; 0x5001e420; 0x24126ea1 |]
    ~c:[| 0x243f6a88; 0x85a308d3; 0x13198a2e; 0x03707344 |]
    ~k:[| 0xa4093822; 0x299f31d0 |]

let test_determinism () =
  let a = Philox.symmetric ~cell:123456789 ~step:42 ~slot:1 in
  let b = Philox.symmetric ~cell:123456789 ~step:42 ~slot:1 in
  Alcotest.(check (float 0.)) "stateless & reproducible" a b

let test_distinct_streams () =
  let a = Philox.symmetric ~cell:1 ~step:1 ~slot:0 in
  let b = Philox.symmetric ~cell:2 ~step:1 ~slot:0 in
  let c = Philox.symmetric ~cell:1 ~step:2 ~slot:0 in
  Alcotest.(check bool) "cells decorrelated" true (a <> b);
  Alcotest.(check bool) "steps decorrelated" true (a <> c)

let test_range_and_moments () =
  let n = 20000 in
  let sum = ref 0. and sum2 = ref 0. in
  for i = 0 to n - 1 do
    let v = Philox.symmetric ~cell:i ~step:7 ~slot:0 in
    Alcotest.(check bool) "in (-1,1)" true (v >= -1. && v < 1.);
    sum := !sum +. v;
    sum2 := !sum2 +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 0" true (abs_float mean < 0.02);
  (* uniform(-1,1) variance = 1/3 *)
  Alcotest.(check bool) "variance ~ 1/3" true (abs_float (var -. (1. /. 3.)) < 0.02)

let test_unit_floats () =
  for i = 0 to 1000 do
    let u, v = Philox.random_floats ~c0:i ~c1:0 ~c2:0 ~c3:0 ~k0:1 ~k1:2 in
    Alcotest.(check bool) "u in [0,1)" true (u >= 0. && u < 1.);
    Alcotest.(check bool) "v in [0,1)" true (v >= 0. && v < 1.)
  done

(* Expr.Rand is keyed on (global cell, step, slot), so the stream a cell
   sees must not depend on how the sweep is scheduled: a VM run with one
   domain and one with several must produce bitwise-identical noise.  This
   is the single-process analogue of the paper's requirement that thermal
   noise be reproducible across MPI decompositions. *)
let test_rand_stream_scheduling_invariant () =
  let open Symbolic in
  let src = Fieldspec.scalar ~dim:2 "s" and dst = Fieldspec.scalar ~dim:2 "d" in
  let body =
    [
      Field.Assignment.store (Fieldspec.center dst)
        (Expr.add
           [ Expr.rand 0; Expr.mul [ Expr.rand 1; Expr.field src ] ]);
    ]
  in
  let k = Ir.Kernel.make ~name:"noise" ~dim:2 body in
  let dims = [| 9; 7 |] in
  let run ~num_domains ~step =
    let block = Vm.Engine.make_block ~ghost:1 ~dims [ src; dst ] in
    let sbuf = Vm.Engine.buffer block src in
    Array.iteri (fun i _ -> sbuf.Vm.Buffer.data.(i) <- 0.5) sbuf.Vm.Buffer.data;
    Vm.Engine.run ~num_domains ~step ~params:[] (Vm.Engine.bind k block);
    let dbuf = Vm.Engine.buffer block dst in
    let out = ref [] in
    for x = 0 to dims.(0) - 1 do
      for y = 0 to dims.(1) - 1 do
        out := Int64.bits_of_float (Vm.Buffer.get dbuf [| x; y |]) :: !out
      done
    done;
    !out
  in
  let serial = run ~num_domains:1 ~step:3 in
  let parallel = run ~num_domains:4 ~step:3 in
  Alcotest.(check (list int64)) "serial == 4 domains (bitwise)" serial parallel;
  (* and the stream must advance with the step index *)
  Alcotest.(check bool) "step decorrelates" true (serial <> run ~num_domains:1 ~step:4)

(* The record-based implementation the local-int rounds replaced, kept as
   the reference: a [ctr] and a [key] record per round, a tuple per
   product. *)
module Reference = struct
  let mask32 = 0xFFFFFFFF

  let mulhilo m x =
    let p = Int64.mul m (Int64.of_int (x land mask32)) in
    (Int64.to_int (Int64.shift_right_logical p 32) land mask32, Int64.to_int p land mask32)

  type ctr = { c0 : int; c1 : int; c2 : int; c3 : int }
  type key = { k0 : int; k1 : int }

  let round ctr key =
    let hi0, lo0 = mulhilo 0xD2511F53L ctr.c0 in
    let hi1, lo1 = mulhilo 0xCD9E8D57L ctr.c2 in
    { c0 = hi1 lxor ctr.c1 lxor key.k0; c1 = lo1; c2 = hi0 lxor ctr.c3 lxor key.k1; c3 = lo0 }

  let bump key =
    { k0 = (key.k0 + 0x9E3779B9) land mask32; k1 = (key.k1 + 0xBB67AE85) land mask32 }

  let random_ints ~c0 ~c1 ~c2 ~c3 ~k0 ~k1 =
    let rec go n ctr key = if n = 0 then ctr else go (n - 1) (round ctr key) (bump key) in
    let r =
      go 10
        { c0 = c0 land mask32; c1 = c1 land mask32; c2 = c2 land mask32; c3 = c3 land mask32 }
        { k0 = k0 land mask32; k1 = k1 land mask32 }
    in
    [| r.c0; r.c1; r.c2; r.c3 |]

  let unit_float hi lo = float_of_int ((hi lsl 21) lor (lo lsr 11)) /. 9007199254740992.0

  let random_floats ~c0 ~c1 ~c2 ~c3 ~k0 ~k1 =
    let w = random_ints ~c0 ~c1 ~c2 ~c3 ~k0 ~k1 in
    (unit_float w.(0) w.(1), unit_float w.(2) w.(3))

  let symmetric ~cell ~step ~slot =
    let u, _ =
      random_floats ~c0:(cell land mask32) ~c1:(cell lsr 32) ~c2:step ~c3:slot ~k0:0x5eed
        ~k1:0xC0FFEE
    in
    (2. *. u) -. 1.
end

let bits = Int64.bits_of_float

(* Every entry point writes the reference's bits, for cells below and
   above 2^32, any step and slot (negative and wide ones included, which
   the fault plans' salted slots can be), and random counter/key words. *)
let prop_matches_reference =
  let open QCheck in
  let cell = oneof [ int_bound 1_000_000; int_range (1 lsl 32) (1 lsl 60); int ] in
  Test.make ~name:"rounds over local ints = record-based reference (bitwise)" ~count:2000
    (quad cell int int (array_of_size (Gen.return 6) int))
    (fun (cell, step, slot, w) ->
      bits (Philox.symmetric ~cell ~step ~slot) = bits (Reference.symmetric ~cell ~step ~slot)
      && Philox.random_ints ~c0:w.(0) ~c1:w.(1) ~c2:w.(2) ~c3:w.(3) ~k0:w.(4) ~k1:w.(5)
         = Reference.random_ints ~c0:w.(0) ~c1:w.(1) ~c2:w.(2) ~c3:w.(3) ~k0:w.(4) ~k1:w.(5)
      &&
      let u, v = Philox.random_floats ~c0:w.(0) ~c1:w.(1) ~c2:w.(2) ~c3:w.(3) ~k0:w.(4) ~k1:w.(5)
      and u', v' =
        Reference.random_floats ~c0:w.(0) ~c1:w.(1) ~c2:w.(2) ~c3:w.(3) ~k0:w.(4) ~k1:w.(5)
      in
      bits u = bits u' && bits v = bits v')

(* A [symmetric] call allocates its boxed result and nothing else: at
   most 3 minor words (the record-based rounds took 162). *)
let test_symmetric_allocation () =
  let n = 100_000 in
  let acc = ref 0. in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    acc := !acc +. Philox.symmetric ~cell:(i + (1 lsl 33)) ~step:i ~slot:3
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "%.2f minor words per call <= 3" per_call) true
    (per_call <= 3. && Float.is_finite !acc)

let prop_bump_changes_output =
  QCheck.Test.make ~name:"key bump changes output" ~count:200 QCheck.(pair small_nat small_nat)
    (fun (c, k) ->
      Philox.random_ints ~c0:c ~c1:0 ~c2:0 ~c3:0 ~k0:k ~k1:0
      <> Philox.random_ints ~c0:c ~c1:0 ~c2:0 ~c3:0 ~k0:(k + 1) ~k1:0)

let suite =
  [
    Alcotest.test_case "KAT zero" `Quick test_kat_zero;
    Alcotest.test_case "KAT ones" `Quick test_kat_ones;
    Alcotest.test_case "KAT pi digits" `Quick test_kat_pi;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "distinct streams" `Quick test_distinct_streams;
    Alcotest.test_case "range and moments" `Quick test_range_and_moments;
    Alcotest.test_case "unit floats" `Quick test_unit_floats;
    Alcotest.test_case "rand stream scheduling-invariant" `Quick
      test_rand_stream_scheduling_invariant;
    QCheck_alcotest.to_alcotest prop_bump_changes_output;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "symmetric allocates <= 3 words per call" `Quick
      test_symmetric_allocation;
  ]
