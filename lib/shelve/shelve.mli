(** Profile-driven method shelving ("Shelving it rather than Ditching it"):
    classify methods as cold against an accumulated profile, replace each
    cold body in the text segment with a fixed-size *shelf stub*, and park
    the original body in a shelf image mapped at
    {!Calibro_codegen.Abi.shelf_base}.

    A stub is [movz x17, #index; brk #magic]
    ({!Calibro_codegen.Abi.shelf_stub_code}). The simulator intercepts the
    [brk], redirects the ArtMethod entry pointer to the parked body
    (first-fault "unshelve") and resumes there, so shelved code still
    executes correctly — it just pays an interpretation penalty. Because
    the split runs after per-method compilation but before LTBO mining,
    outlining sees only the surviving warm set, and per-method cache
    entries are shared with unshelved builds. *)

open Calibro_dex.Dex_ir

exception Shelve_error of string
(** Raised on nonsense policies (coverage outside [0, 1], shelf index
    overflow); the service layer maps it to a typed rejection. *)

type plan = {
  sp_coverage : float;
      (** the profile coverage threshold that defined the warm set *)
  sp_warm : method_ref list;  (** canonically sorted warm methods *)
  sp_digest : string;         (** policy digest over coverage + warm set *)
}

val plan : coverage:float -> warm:method_ref list -> plan
(** Canonicalize (sort, dedup) the warm set and stamp the policy digest.
    The digest is {!Calibro_chash.Chash} over the canonical plan text,
    so two processes derive identical plans from identical profiles. *)

val of_profile : coverage:float -> Calibro_profile.Profile.t -> plan
(** The standard derivation: warm = {!Calibro_profile.Profile.hot_set}
    at [coverage]; everything else is shelvable. *)

type split = {
  sv_warm : Calibro_codegen.Compiled_method.t list;
      (** survivors, in input order: what LTBO mines and rewrites *)
  sv_stubs : Calibro_codegen.Compiled_method.t list;
      (** stub replacements for the shelved methods *)
  sv_shelf : Calibro_oat.Linker.shelve_input option;
      (** parked bodies for the linker; [None] when nothing shelved *)
}

val split : plan:plan -> Calibro_codegen.Compiled_method.t list -> split
(** Partition compiled methods into warm survivors and shelved stubs.
    Never shelves native methods (no text body) or methods no larger
    than a stub (shelving them would grow the text). *)

val shelved_count : split -> int
