type t = string

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let check_slice ~what ~off ~len ~size =
  if off < 0 || len < 0 || off > size - len then
    invalid_arg (Printf.sprintf "Chash: %s slice off=%d len=%d size=%d" what off len size)

(* Two 64-bit lanes absorbing the stream in little-endian 8-byte words,
   each word pushed through the splitmix64 finalizer (Steele et al.) —
   the same mixer Parallel.partition and Router.Ring already trust for
   uniformity. Lane 2 folds in lane 1 every word, and [finalize]
   cross-mixes with the total length absorbed, so the two output halves
   are not independent 64-bit hashes of the same stream and a
   zero-padded tail cannot collide with explicit trailing zeros. *)

type state = {
  mutable h1 : int64;
  mutable h2 : int64;
  tail : Bytes.t;  (* < 8 pending bytes of the stream *)
  mutable tail_len : int;
  mutable total : int;
  ibuf : Bytes.t;  (* staging for feed_int *)
}

let mix z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let seed1 = 0x9E3779B97F4A7C15L
let seed2 = 0xC2B2AE3D27D4EB4FL

let init () =
  { h1 = seed1; h2 = seed2; tail = Bytes.create 8; tail_len = 0; total = 0;
    ibuf = Bytes.create 8 }

let[@inline] absorb st w =
  let h1 = mix (Int64.logxor st.h1 w) in
  st.h1 <- h1;
  st.h2 <- mix (Int64.add st.h2 (Int64.add w h1))

(* The workhorse: everything else funnels through byte feeds. [src] is
   only read, so feeding a string through [Bytes.unsafe_of_string] is
   sound. Bounds were checked by the caller. *)
let feed_raw st (src : Bytes.t) ~off ~len =
  st.total <- st.total + len;
  let pos = ref off in
  let stop = off + len in
  (* Top up a pending tail first. *)
  if st.tail_len > 0 then begin
    while st.tail_len < 8 && !pos < stop do
      Bytes.unsafe_set st.tail st.tail_len (Bytes.unsafe_get src !pos);
      st.tail_len <- st.tail_len + 1;
      incr pos
    done;
    if st.tail_len = 8 then begin
      absorb st (Bytes.get_int64_le st.tail 0);
      st.tail_len <- 0
    end
  end;
  while stop - !pos >= 8 do
    absorb st (Bytes.get_int64_le src !pos);
    pos := !pos + 8
  done;
  while !pos < stop do
    Bytes.unsafe_set st.tail st.tail_len (Bytes.unsafe_get src !pos);
    st.tail_len <- st.tail_len + 1;
    incr pos
  done

let feed_subbytes st b ~off ~len =
  check_slice ~what:"bytes" ~off ~len ~size:(Bytes.length b);
  feed_raw st b ~off ~len

let feed_bytes st b = feed_raw st b ~off:0 ~len:(Bytes.length b)

let feed_substring st s ~off ~len =
  check_slice ~what:"string" ~off ~len ~size:(String.length s);
  feed_raw st (Bytes.unsafe_of_string s) ~off ~len

let feed_string st s =
  feed_raw st (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let feed_bigarray st (a : bigstring) ~off ~len =
  check_slice ~what:"bigarray" ~off ~len ~size:(Bigarray.Array1.dim a);
  st.total <- st.total + len;
  let pos = ref off in
  let stop = off + len in
  if st.tail_len > 0 then begin
    while st.tail_len < 8 && !pos < stop do
      Bytes.unsafe_set st.tail st.tail_len (Bigarray.Array1.unsafe_get a !pos);
      st.tail_len <- st.tail_len + 1;
      incr pos
    done;
    if st.tail_len = 8 then begin
      absorb st (Bytes.get_int64_le st.tail 0);
      st.tail_len <- 0
    end
  end;
  while stop - !pos >= 8 do
    let p = !pos in
    let word lo hi =
      Int64.logor lo (Int64.shift_left hi 32)
    and half p =
      let b i = Char.code (Bigarray.Array1.unsafe_get a (p + i)) in
      Int64.of_int (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))
    in
    absorb st (word (half p) (half (p + 4)));
    pos := p + 8
  done;
  while !pos < stop do
    Bytes.unsafe_set st.tail st.tail_len (Bigarray.Array1.unsafe_get a !pos);
    st.tail_len <- st.tail_len + 1;
    incr pos
  done

let feed_int st v =
  Bytes.set_int64_le st.ibuf 0 (Int64.of_int v);
  feed_raw st st.ibuf ~off:0 ~len:8

(* Pure over the state: feeding may continue after a finalize. *)
let finalize st =
  let h1 = ref st.h1 and h2 = ref st.h2 in
  if st.tail_len > 0 then begin
    (* Zero-pad the tail to one word; the absorbed length below keeps
       padded streams distinct from streams with literal zero bytes. *)
    let w = ref 0L in
    for i = st.tail_len - 1 downto 0 do
      w :=
        Int64.logor
          (Int64.shift_left !w 8)
          (Int64.of_int (Char.code (Bytes.unsafe_get st.tail i)))
    done;
    let m1 = mix (Int64.logxor !h1 !w) in
    h1 := m1;
    h2 := mix (Int64.add !h2 (Int64.add !w m1))
  end;
  let len = Int64.of_int st.total in
  let a = mix (Int64.add (Int64.logxor !h1 len) !h2) in
  let b = mix (Int64.logxor !h2 (Int64.add a len)) in
  let out = Bytes.create 16 in
  Bytes.set_int64_le out 0 a;
  Bytes.set_int64_le out 8 b;
  Bytes.unsafe_to_string out

let substring s ~off ~len =
  let st = init () in
  feed_substring st s ~off ~len;
  finalize st

let string s = substring s ~off:0 ~len:(String.length s)

let subbytes b ~off ~len =
  let st = init () in
  feed_subbytes st b ~off ~len;
  finalize st

let bytes b = subbytes b ~off:0 ~len:(Bytes.length b)

let bigarray a ~off ~len =
  let st = init () in
  feed_bigarray st a ~off ~len;
  finalize st

let to_hex (h : t) =
  if String.length h <> 16 then invalid_arg "Chash.to_hex";
  let hex = "0123456789abcdef" in
  let out = Bytes.create 32 in
  for i = 0 to 15 do
    let c = Char.code (String.unsafe_get h i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex (c land 0xF))
  done;
  Bytes.unsafe_to_string out
