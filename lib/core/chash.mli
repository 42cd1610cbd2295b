(** The one content hash of the tree.

    Every content-addressed structure — compilation-cache keys, canonical
    LTBO token digests, router shard affinity, the dictionary and shelve
    policy digests — needs a 128-bit value that is uniform and stable, not
    cryptographic: the inputs are trusted build artifacts, and the hash
    sits on the serving hot path (ShareJIT's lesson: content addressing
    only pays when the hash is far cheaper than the work it
    deduplicates). It is a two-lane splitmix64 sponge: a full 64-bit
    finalizer avalanche per 8-byte word, and a cross-lane mix with the
    absorbed length at the end.

    Values are 16-byte binary strings, like [Stdlib.Digest.t]. The pinned
    MD5 snapshots (bench digest, the IR digest test) call [Stdlib.Digest]
    directly. *)

type t = string
(** 16 bytes, binary. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** {2 Streaming}

    Feed any mix of string/bytes/Bigarray slices and 63-bit ints; the
    result depends only on the concatenated byte stream, never on feeding
    granularity or slice offsets. Slices out of bounds raise
    [Invalid_argument]. *)

type state

val init : unit -> state
val feed_substring : state -> string -> off:int -> len:int -> unit
val feed_string : state -> string -> unit
val feed_subbytes : state -> bytes -> off:int -> len:int -> unit
val feed_bytes : state -> bytes -> unit

val feed_bigarray : state -> bigstring -> off:int -> len:int -> unit
(** Off-heap input (an {!Calibro_oat.Arena} window), with no copy onto the
    OCaml heap. *)

val feed_int : state -> int -> unit
(** Feeds the int as 8 little-endian bytes — the allocation-free way to
    hash token runs ({!Seq_map.digest}) without printing them. *)

val finalize : state -> t
(** Pure over the state: feeding may continue after a [finalize]. *)

(** {2 One-shot} *)

val string : string -> t
val bytes : bytes -> t
val substring : string -> off:int -> len:int -> t
val subbytes : bytes -> off:int -> len:int -> t
val bigarray : bigstring -> off:int -> len:int -> t

val to_hex : t -> string
(** Lowercase hex (32 chars for a 16-byte value) — filesystem- and
    JSON-safe, same shape as [Digest.to_hex]. *)
