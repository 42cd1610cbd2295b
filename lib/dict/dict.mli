(** The store-wide shared outline dictionary (prelink-style sharing).

    Per-app LTBO removes repeats {i within} one app; across an app store
    the same outlined bodies recur app after app, each shipping its own
    copy. A dictionary is a single image of the bodies at least two apps
    carry, ranked by fleet-wide bytes saved, that every device maps once
    at {!Calibro_codegen.Abi.dict_base}. {!Calibro_oat.Linker.link}
    with {!linker_dict} binds a matching body to its shared slot instead
    of placing it locally, like a prelinked system library; the
    resulting OAT records the dictionary digest
    ({!Calibro_oat.Oat_file.t.dict_digest}) and executes only against
    that exact image.

    The digest is {!Calibro_chash.Chash} of the image, the tree's one
    content hash; it names the dictionary inside OAT containers and on
    the wire. *)

type entry = {
  e_offset : int;  (** byte offset of the body in the image *)
  e_size : int;
  e_apps : int;
      (** distinct apps carrying the body at mining time; 0 after
          {!load} (provenance is not persisted) *)
}

type t

val digest : t -> string
(** Chash hex of the image — the identity every consumer keys on. *)

val image : t -> bytes
val size : t -> int
val entries : t -> entry list
val n_bodies : t -> int

val saved : apps:int -> size:int -> int
(** Fleet-wide bytes saved by sharing one body: [(apps - 1) * size]
    (the store ships one copy instead of [apps]). *)

val mine :
  ?cache:Calibro_cache.Cache.t ->
  ?config:Calibro_core.Config.t ->
  Calibro_dex.Dex_ir.apk list ->
  t
(** Build every app (default config: CTO+LTBO+PlOpti(8)), collect the
    outlined bodies, keep those at least two apps share, rank by
    {!saved} (deterministic tie-break on body bytes) and emit the
    image. An empty result (no cross-app repeats) is a valid, empty
    dictionary — linking against it binds nothing. *)

val of_oats : Calibro_oat.Oat_file.t list -> t
(** {!mine} over already-built containers. *)

val linker_dict : t -> Calibro_oat.Linker.dict
(** The binding view {!Calibro_oat.Linker.link} consumes, based at
    {!Calibro_codegen.Abi.dict_base}. *)

val vm_image : t -> Calibro_vm.Interp.dict_image
(** The execution view {!Calibro_vm.Interp.load} consumes: the image
    the simulator maps at {!Calibro_codegen.Abi.dict_base}. *)

(** {2 Persistence}

    The artifact is itself an OAT container (the image as text, one
    outlined entry per body) whose [apk_name] is ["calibro-dict:"]
    followed by the image digest. {!load} re-derives everything and
    fails typed on any corruption: truncation (container bounds check),
    a damaged method table (decode failure), a flipped image byte
    (digest mismatch against the self-naming header) or an entry table
    that does not tile the image. A failed load can cost falling back
    to per-app outlining, never wrong code. *)

val to_oat : t -> Calibro_oat.Oat_file.t
val of_oat_container : Calibro_oat.Oat_file.t -> (t, string) result
val save : t -> string -> unit
val load : string -> (t, string) result
