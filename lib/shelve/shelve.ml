(* Profile-driven method shelving (see shelve.mli).

   The split is deliberately placed *after* per-method compilation and
   *before* LTBO mining:
   - after compilation, so the per-method cache keys are identical to an
     unshelved build's and both share one cache population;
   - before mining, so the suffix tree never sees cold bodies — outlining
     works the surviving warm set only, which is the composition the
     release-train workload measures. *)

open Calibro_dex.Dex_ir
module Compiled_method = Calibro_codegen.Compiled_method
module Meta = Calibro_codegen.Meta
module Abi = Calibro_codegen.Abi
module Linker = Calibro_oat.Linker
module Profile = Calibro_profile.Profile
module Obs = Calibro_obs.Obs

exception Shelve_error of string

type plan = {
  sp_coverage : float;
  sp_warm : method_ref list;
  sp_digest : string;
}

let compare_ref (a : method_ref) (b : method_ref) =
  compare (a.class_name, a.method_name) (b.class_name, b.method_name)

let digest ~coverage ~warm =
  let b = Buffer.create 256 in
  Buffer.add_string b "calibro-shelve-v1\n";
  Buffer.add_string b (Printf.sprintf "coverage=%.6f\n" coverage);
  List.iter
    (fun (m : method_ref) ->
      Buffer.add_string b m.class_name;
      Buffer.add_char b ' ';
      Buffer.add_string b m.method_name;
      Buffer.add_char b '\n')
    warm;
  Calibro_chash.Chash.to_hex (Calibro_chash.Chash.string (Buffer.contents b))

let plan ~coverage ~warm =
  if not (coverage >= 0.0 && coverage <= 1.0) then (* also rejects nan *)
    raise
      (Shelve_error
         (Printf.sprintf "shelve coverage %g outside [0, 1]" coverage));
  let warm =
    List.sort_uniq compare_ref warm
  in
  { sp_coverage = coverage; sp_warm = warm; sp_digest = digest ~coverage ~warm }

let of_profile ~coverage profile =
  plan ~coverage ~warm:(Profile.hot_set ~coverage profile)

(* ---- The stub ---------------------------------------------------------- *)

let stub_code ~index =
  try Abi.shelf_stub_code ~index
  with Invalid_argument m -> raise (Shelve_error m)

(* ---- The split --------------------------------------------------------- *)

type split = {
  sv_warm : Compiled_method.t list;
  sv_stubs : Compiled_method.t list;
  sv_shelf : Linker.shelve_input option;
}

let shelvable ~warm_tbl (cm : Compiled_method.t) =
  (not (Compiled_method.is_native cm))
  && Bytes.length cm.Compiled_method.code > Abi.shelf_stub_bytes
  && not (Hashtbl.mem warm_tbl cm.Compiled_method.name)

let split ~plan (methods : Compiled_method.t list) : split =
  let warm_tbl = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace warm_tbl m ()) plan.sp_warm;
  let cold, warm = List.partition (shelvable ~warm_tbl) methods in
  (* Shelf indices are assigned in slot order, matching the linker's image
     layout, so stub index = position of the method's shelf entry. *)
  let cold =
    List.sort
      (fun (a : Compiled_method.t) b ->
        compare a.Compiled_method.slot b.Compiled_method.slot)
      cold
  in
  let stubs, bodies =
    List.mapi
      (fun index (cm : Compiled_method.t) ->
        let stub =
          { cm with
            Compiled_method.code = stub_code ~index;
            relocs = [];
            meta = { Meta.empty with Meta.has_indirect_jump = true };
            stackmap = [];
            cto_hits = [] }
        in
        let body =
          { Linker.sb_name = cm.Compiled_method.name;
            sb_slot = cm.Compiled_method.slot;
            sb_code = cm.Compiled_method.code;
            sb_relocs = cm.Compiled_method.relocs }
        in
        (stub, body))
      cold
    |> List.split
  in
  Obs.Counter.add "shelve.shelved" (List.length stubs);
  Obs.Counter.add "shelve.kept_warm" (List.length warm);
  { sv_warm = warm;
    sv_stubs = stubs;
    sv_shelf =
      (match bodies with
       | [] -> None
       | _ -> Some { Linker.shv_digest = plan.sp_digest; shv_bodies = bodies }) }

let shelved_count s = List.length s.sv_stubs
