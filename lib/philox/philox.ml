(** Philox-4x32-10 counter-based random number generator.

    Stateless: each call maps a 128-bit counter and a 64-bit key to four
    32-bit random words (Salmon et al., SC'11 — reference [31] of the
    paper).  The discretization layer keys the generator on (cell index,
    time step) so that cell updates carry no data dependencies (§3.3). *)

let m0 = 0xD2511F53L
let m1 = 0xCD9E8D57L
let w0 = 0x9E3779B9 (* golden ratio *)
let w1 = 0xBB67AE85 (* sqrt 3 - 1 *)

let mask32 = 0xFFFFFFFF

(* [n] Philox rounds over the counter words (c0..c3) and key (k0, k1),
   all local ints: each round takes two 32x32 -> 64-bit products, kept in
   local [Int64]s that ocamlopt never boxes, then bumps the key.  [finish]
   receives the four output words, so no record, tuple or array is built
   between the input and the result. *)
let rec rounds n c0 c1 c2 c3 k0 k1 finish =
  if n = 0 then finish c0 c1 c2 c3
  else
    let p0 = Int64.mul m0 (Int64.of_int c0) and p1 = Int64.mul m1 (Int64.of_int c2) in
    let hi0 = Int64.to_int (Int64.shift_right_logical p0 32)
    and hi1 = Int64.to_int (Int64.shift_right_logical p1 32) in
    rounds (n - 1)
      (hi1 lxor c1 lxor k0)
      (Int64.to_int p1 land mask32)
      (hi0 lxor c3 lxor k1)
      (Int64.to_int p0 land mask32)
      ((k0 + w0) land mask32)
      ((k1 + w1) land mask32)
      finish

(* Philox-4x32-10 of a counter and key given as plain integers (each
   masked to 32 bits). *)
let[@inline] philox4x32_10 ~c0 ~c1 ~c2 ~c3 ~k0 ~k1 finish =
  rounds 10 (c0 land mask32) (c1 land mask32) (c2 land mask32) (c3 land mask32)
    (k0 land mask32) (k1 land mask32) finish

(** Convenience: 4 words from plain integers. *)
let random_ints ~c0 ~c1 ~c2 ~c3 ~k0 ~k1 =
  philox4x32_10 ~c0 ~c1 ~c2 ~c3 ~k0 ~k1 (fun a b c d -> [| a; b; c; d |])

let two_pow_53 = 9007199254740992.0

(* The 53 mantissa bits of a uniform double in [0, 1), taken from two
   32-bit words (hi, lo). *)
let unit_bits hi lo = ((hi land mask32) lsl 21) lor ((lo land mask32) lsr 11)

let[@inline] to_unit_float hi lo = float_of_int (unit_bits hi lo) /. two_pow_53

(** Two uniform doubles in [0,1) from one counter/key pair. *)
let random_floats ~c0 ~c1 ~c2 ~c3 ~k0 ~k1 =
  philox4x32_10 ~c0 ~c1 ~c2 ~c3 ~k0 ~k1 (fun a b c d ->
      (to_unit_float a b, to_unit_float c d))

let first_unit_bits a b _ _ = unit_bits a b

(** Uniform double in (-1, 1), as used for the fluctuation term: the kernel
    keys on (cell linear index, time step, stream slot).  Only the first
    two output words are used.  The rounds return an int and the float is
    made here, so a caller that inlines this need not box it; any other
    call allocates its boxed result, 2 words. *)
let[@inline] symmetric ~cell ~step ~slot =
  (* no closure in the body, or ocamlopt would not inline it *)
  let bits =
    philox4x32_10 ~c0:cell ~c1:(cell lsr 32) ~c2:step ~c3:slot ~k0:0x5eed ~k1:0xC0FFEE
      first_unit_bits
  in
  (2. *. (float_of_int bits /. two_pow_53)) -. 1.
