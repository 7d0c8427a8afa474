(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).

    Guards every snapshot against corruption: CRC-32 detects all
    single-byte errors and all burst errors up to 32 bits, so a flipped
    byte in a checkpoint file is rejected with a clean error instead of
    silently resuming from a wrong state.

    Slicing-by-8: eight tables, where table [k] advances the CRC of a byte
    followed by [k] zero bytes, fold eight input bytes per step with eight
    independent lookups instead of a chain of eight dependent ones — the
    same polynomial and the same values as the bytewise loop, which still
    handles the last [len mod 8] bytes. *)

(* Table [k] at [k * 256]: table 0 is the bytewise table, and table [k]
   entry [n] is table [k - 1]'s entry advanced by one zero byte. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let p = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (p lsr 8) lxor t.(p land 0xFF)
       done
     done;
     t)

(** Running update: fold bytes [pos, pos+len) of [s] into [crc]
    (pre/post-inversion handled by {!digest}). *)
let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc.update";
  let t = Lazy.force tables in
  let byte i = Char.code (String.unsafe_get s i) in
  let tab k n = Array.unsafe_get t ((k * 256) + n) in
  let c = ref crc and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let p = !i in
    let lo =
      !c lxor (byte p lor (byte (p + 1) lsl 8) lor (byte (p + 2) lsl 16) lor (byte (p + 3) lsl 24))
    in
    c :=
      tab 7 (lo land 0xFF)
      lxor tab 6 ((lo lsr 8) land 0xFF)
      lxor tab 5 ((lo lsr 16) land 0xFF)
      lxor tab 4 (lo lsr 24)
      lxor tab 3 (byte (p + 4))
      lxor tab 2 (byte (p + 5))
      lxor tab 1 (byte (p + 6))
      lxor tab 0 (byte (p + 7));
    i := p + 8
  done;
  while !i < stop do
    c := tab 0 ((!c lxor byte !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c

(** CRC-32 of bytes [pos, pos+len) of [s] (default: all of it), as a
    non-negative int below 2^32. *)
let digest ?(pos = 0) ?len s =
  let len = match len with Some n -> n | None -> String.length s - pos in
  update 0xFFFFFFFF s ~pos ~len lxor 0xFFFFFFFF
