(* Property battery for the content hash (Calibro_chash.Chash).

   The hash keys every cache entry, token digest, shard-affinity
   decision and dictionary/shelve policy digest, so this suite pins down exactly the
   properties those call sites lean on: the streaming interface is a
   pure function of the concatenated byte stream (any chunking, any
   slice offsets, any input representation), the output diffuses input
   bits (avalanche), and the function can never change silently (a
   fixed-vector regression table, cross-checked against an independent
   reimplementation of the algorithm). *)

module Chash = Calibro_chash.Chash

(* Deterministic test stream (splitmix64, same constants as the hash —
   irrelevant to the properties, convenient and seedable). *)
let rng seed =
  let state = ref (Int64.of_int seed) in
  fun () ->
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

let rand_int next bound = Int64.to_int (Int64.rem (Int64.logand (next ()) Int64.max_int) (Int64.of_int bound))

let rand_string next len =
  String.init len (fun _ -> Char.chr (rand_int next 256))

let bigstring_of_string s : Chash.bigstring =
  let a = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (String.length s) in
  String.iteri (fun i c -> Bigarray.Array1.set a i c) s;
  a

(* Streaming over any chunking = one-shot, for every feed representation. *)
let test_streaming_equals_oneshot () =
  let next = rng 7 in
  for trial = 0 to 199 do
    let len = rand_int next 300 in
    let s = rand_string next len in
    let expect = Chash.string s in
    (* random chunking over mixed representations *)
    let st = Chash.init () in
    let pos = ref 0 in
    while !pos < len do
      let n = min (len - !pos) (1 + rand_int next 17) in
      (match rand_int next 4 with
      | 0 -> Chash.feed_substring st s ~off:!pos ~len:n
      | 1 ->
        Chash.feed_subbytes st (Bytes.of_string s) ~off:!pos ~len:n
      | 2 ->
        Chash.feed_bigarray st (bigstring_of_string s) ~off:!pos ~len:n
      | _ -> Chash.feed_string st (String.sub s !pos n));
      pos := !pos + n
    done;
    Alcotest.(check string)
      (Printf.sprintf "trial %d (len %d)" trial len)
      (Chash.to_hex expect)
      (Chash.to_hex (Chash.finalize st))
  done

(* The hash of a slice depends only on the slice's bytes, not where the
   slice sits in its container. *)
let test_slice_offset_independence () =
  let next = rng 11 in
  for trial = 0 to 99 do
    let pad_l = rand_int next 23 and pad_r = rand_int next 23 in
    let len = rand_int next 120 in
    let core = rand_string next len in
    let padded = rand_string next pad_l ^ core ^ rand_string next pad_r in
    let expect = Chash.to_hex (Chash.string core) in
    Alcotest.(check string)
      (Printf.sprintf "substring trial %d" trial)
      expect
      (Chash.to_hex (Chash.substring padded ~off:pad_l ~len));
    Alcotest.(check string)
      (Printf.sprintf "subbytes trial %d" trial)
      expect
      (Chash.to_hex (Chash.subbytes (Bytes.of_string padded) ~off:pad_l ~len));
    Alcotest.(check string)
      (Printf.sprintf "bigarray trial %d" trial)
      expect
      (Chash.to_hex
         (Chash.bigarray (bigstring_of_string padded) ~off:pad_l ~len))
  done

(* feed_int is exactly 8 little-endian bytes of the int. *)
let test_feed_int_framing () =
  let next = rng 13 in
  for trial = 0 to 49 do
    let v = Int64.to_int (next ()) in
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    let st = Chash.init () in
    Chash.feed_int st v;
    Alcotest.(check string)
      (Printf.sprintf "feed_int trial %d" trial)
      (Chash.to_hex (Chash.bytes b))
      (Chash.to_hex (Chash.finalize st))
  done

(* Avalanche smoke: over 1k random inputs, flipping one random input bit
   flips >= 40 of the 128 output bits on average (an unbiased mixer sits
   near 64). Also bound the worst case away from degenerate. *)
let popcount_diff a b =
  let n = ref 0 in
  String.iteri
    (fun i c ->
      let x = Char.code c lxor Char.code b.[i] in
      for bit = 0 to 7 do
        if x land (1 lsl bit) <> 0 then incr n
      done)
    a;
  !n

let test_avalanche () =
  let next = rng 17 in
  let trials = 1000 in
  let total = ref 0 and worst = ref 128 in
  for _ = 1 to trials do
    let len = 1 + rand_int next 64 in
    let s = rand_string next len in
    let bit = rand_int next (8 * len) in
    let flipped = Bytes.of_string s in
    Bytes.set flipped (bit / 8)
      (Char.chr (Char.code s.[bit / 8] lxor (1 lsl (bit mod 8))));
    let d =
      popcount_diff (Chash.string s)
        (Chash.string (Bytes.to_string flipped))
    in
    total := !total + d;
    if d < !worst then worst := d
  done;
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "mean avalanche %.1f bits >= 40" mean)
    true (mean >= 40.0);
  Alcotest.(check bool)
    (Printf.sprintf "mean avalanche %.1f bits <= 88 (not inverted)" mean)
    true (mean <= 88.0);
  Alcotest.(check bool)
    (Printf.sprintf "worst-case avalanche %d bits >= 20" !worst)
    true (!worst >= 20)

(* No collisions across a corpus of distinct inputs (16-byte output makes
   a real collision here astronomically unlikely; hitting one means the
   hash is broken, e.g. ignoring some input bits). *)
let test_no_collisions () =
  let next = rng 19 in
  let seen = Hashtbl.create 4096 in
  for i = 0 to 9999 do
    let s = Printf.sprintf "%d:%s" i (rand_string next (rand_int next 40)) in
    let h = Chash.string s in
    (match Hashtbl.find_opt seen h with
    | Some prior ->
      Alcotest.failf "collision between %S and %S" prior s
    | None -> ());
    Hashtbl.replace seen h s
  done

(* The regression table: computed by an independent reimplementation of
   the two-lane splitmix64 construction (not by running this module), so
   any change to constants, tail handling or finalization fails here. *)
let test_fixed_vectors () =
  let vectors =
    [ ("", "9cd2916b6ff330df611dc53356ec9d52");
      ("a", "88bdd561c834bcbfb6c3efe8142067fb");
      ("abc", "b03b123a417eaa6c053017639486efc0");
      ("calibro", "1410fd08f519607d630001c384d1ce40");
      ("01234567", "4254acdcd418c55f7d684417348969fa");
      ("0123456789abcdef", "33089d4bee23197371c52b1aa3beebee");
      ("The quick brown fox jumps over the lazy dog",
       "ef39d9a688d46b53c4bee0eb395e51a9");
      (String.make 1000 'x', "b46dbb8a3ecb24cc286d0d7a763f8f29") ]
  in
  List.iter
    (fun (input, expect) ->
      Alcotest.(check string)
        (Printf.sprintf "vector %S"
           (if String.length input > 20 then String.sub input 0 20 ^ "..."
            else input))
        expect
        (Chash.to_hex (Chash.string input)))
    vectors

(* A zero-padded tail must not collide with explicit trailing zeros. *)
let test_tail_padding_distinct () =
  List.iter
    (fun (s : string) ->
      Alcotest.(check bool)
        (Printf.sprintf "%S vs %S distinct" s (s ^ "\000"))
        false
        (Chash.string s = Chash.string (s ^ "\000")))
    [ ""; "a"; "abcdefg"; "abcdefgh"; "abcdefgh\000\000" ]

let test_to_hex () =
  let next = rng 29 in
  for _ = 0 to 19 do
    let h = Chash.string (rand_string next 10) in
    Alcotest.(check string) "to_hex matches Digest.to_hex" (Digest.to_hex h)
      (Chash.to_hex h)
  done;
  Alcotest.check_raises "to_hex rejects non-16-byte input"
    (Invalid_argument "Chash.to_hex") (fun () ->
      ignore (Chash.to_hex "short"))

(* finalize is pure: observing the digest mid-stream doesn't perturb the
   stream, and feeding may continue. *)
let test_finalize_pure () =
  let st = Chash.init () in
  Chash.feed_string st "part one|";
  let mid1 = Chash.finalize st in
  let mid2 = Chash.finalize st in
  Alcotest.(check string)
    "finalize twice" (Chash.to_hex mid1) (Chash.to_hex mid2);
  Chash.feed_string st "part two";
  Alcotest.(check string)
    "continue after finalize"
    (Chash.to_hex (Chash.string "part one|part two"))
    (Chash.to_hex (Chash.finalize st))

let test_slice_bounds_checked () =
  List.iter
    (fun (what, f) ->
      Alcotest.(check bool) (what ^ " rejects bad slice") true
        (match f () with
        | exception Invalid_argument _ -> true
        | (_ : Chash.t) -> false))
    [ ("substring", fun () -> Chash.substring "abc" ~off:1 ~len:3);
      ("negative off", fun () -> Chash.substring "abc" ~off:(-1) ~len:1);
      ("negative len", fun () -> Chash.substring "abc" ~off:0 ~len:(-1));
      ( "subbytes",
        fun () -> Chash.subbytes (Bytes.create 4) ~off:2 ~len:3 );
      ( "bigarray",
        fun () ->
          Chash.bigarray
            (Bigarray.Array1.create Bigarray.char Bigarray.c_layout 4)
            ~off:4 ~len:1 ) ]

let suite =
  [ Alcotest.test_case "streaming = one-shot over any chunking" `Quick
      test_streaming_equals_oneshot;
    Alcotest.test_case "slice-offset independence" `Quick
      test_slice_offset_independence;
    Alcotest.test_case "feed_int is 8 LE bytes" `Quick test_feed_int_framing;
    Alcotest.test_case "avalanche >= 40/128 bits over 1k inputs" `Quick
      test_avalanche;
    Alcotest.test_case "no collisions over 10k inputs" `Quick
      test_no_collisions;
    Alcotest.test_case "fixed-vector regression table" `Quick
      test_fixed_vectors;
    Alcotest.test_case "zero tail padding cannot alias" `Quick
      test_tail_padding_distinct;
    Alcotest.test_case "to_hex" `Quick test_to_hex;
    Alcotest.test_case "finalize is pure and resumable" `Quick
      test_finalize_pure;
    Alcotest.test_case "slice bounds are checked" `Quick
      test_slice_bounds_checked ]
