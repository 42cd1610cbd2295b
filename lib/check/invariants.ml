(* Structural invariants of a linked OAT image.

   The differential oracle ({!Oracle}) checks that a transformed binary
   *behaves* like the baseline; the checks here assert that it is
   *well-formed* regardless of what the interaction script happens to
   execute. Together they are the machine-checked version of the paper's
   section 3.3 safety argument: LTBO.2 rewrites encoded bytes, repositions
   stackmaps and patches PC-relative instructions, and none of that may
   leave a dangling branch, a mis-ordered stackmap or an outlined body
   that does not return.

   Checks:
   - serialize/parse round-trip of the on-disk OAT format;
   - region layout: methods, thunks and outlined functions tile the text
     segment without overlap, word-aligned;
   - stackmaps: native PCs word-aligned, strictly inside their method,
     monotonically increasing (section 3.5);
   - branch closure: every relocated [bl] lands on the start of a method,
     thunk or outlined function, no unrelocated [bl sym] survives linking,
     and every intra-method PC-relative branch or address formation stays
     inside its own region;
   - outlined bodies end in [br x30] and contain no control flow before it
     (calls and terminators are sequence separators, so none may appear). *)

open Calibro_aarch64
open Calibro_codegen
module Oat = Calibro_oat.Oat_file

type violation = { v_check : string; v_where : string; v_detail : string }

let violation_to_string v =
  Printf.sprintf "[%s] %s: %s" v.v_check v.v_where v.v_detail

(* ---- Individual checkers ---------------------------------------------- *)

let check_roundtrip (oat : Oat.t) : violation list =
  match Oat.of_bytes (Oat.to_bytes oat) with
  | Error e ->
    [ { v_check = "roundtrip"; v_where = oat.Oat.apk_name;
        v_detail = "parse failed: " ^ e } ]
  | Ok oat' ->
    if oat' = oat then []
    else
      [ { v_check = "roundtrip"; v_where = oat.Oat.apk_name;
          v_detail = "re-parsed image differs from the original" } ]

let check_layout (oat : Oat.t) : violation list =
  let text_size = Oat.text_size oat in
  let vs = ref [] in
  let bad r fmt =
    Fmt.kstr
      (fun d ->
        vs :=
          { v_check = "layout"; v_where = Oat.region_name r; v_detail = d }
          :: !vs)
      fmt
  in
  let regions = Oat.regions oat in
  List.iter
    (fun (r : Oat.region) ->
      if r.Oat.rg_offset mod 4 <> 0 then
        bad r "offset %d not word-aligned" r.Oat.rg_offset;
      if r.Oat.rg_size mod 4 <> 0 then
        bad r "size %d not word-aligned" r.Oat.rg_size;
      if r.Oat.rg_size < 0 || r.Oat.rg_offset < 0
         || r.Oat.rg_offset + r.Oat.rg_size > text_size
      then
        bad r "extent [%d, %d) outside text of %d bytes" r.Oat.rg_offset
          (r.Oat.rg_offset + r.Oat.rg_size)
          text_size)
    regions;
  (* Regions sorted by offset must not overlap. *)
  let rec overlap = function
    | (a : Oat.region) :: (b :: _ as rest) ->
      if a.Oat.rg_offset + a.Oat.rg_size > b.Oat.rg_offset then
        bad b "overlaps preceding region %s" (Oat.region_name a);
      overlap rest
    | _ -> ()
  in
  overlap regions;
  List.rev !vs

let check_stackmaps (oat : Oat.t) : violation list =
  List.filter_map
    (fun (me : Oat.method_entry) ->
      match Stackmap.validate me.Oat.me_stackmap ~code_size:me.Oat.me_size with
      | Ok () -> None
      | Error e ->
        Some
          { v_check = "stackmap";
            v_where = Calibro_dex.Dex_ir.method_ref_to_string me.Oat.me_name;
            v_detail = e })
    oat.Oat.methods

(* Branch closure. Embedded data ranges (known from the LTBO.1 metadata)
   are skipped: they are not instructions and may decode as anything.
   [dict] lists the (offset, size) extents of the shared-dictionary
   bodies the image may be linked against: a [bl] may additionally land
   on a body start, expressed in the text-relative address space as
   [Abi.dict_base - Abi.text_base + offset] (how the linker binds it). *)
let check_branches ?(dict = []) (oat : Oat.t) : violation list =
  let starts = Oat.region_starts oat in
  let dict_starts = Hashtbl.create (List.length dict) in
  List.iter
    (fun (off, _size) ->
      Hashtbl.replace dict_starts (Abi.dict_base - Abi.text_base + off) ())
    dict;
  let vs = ref [] in
  let bad ~where fmt =
    Fmt.kstr
      (fun d ->
        vs := { v_check = "branch"; v_where = where; v_detail = d } :: !vs)
      fmt
  in
  let check_region ~where ~embedded ~offset ~size =
    let n_words = size / 4 in
    for w = 0 to n_words - 1 do
      let off = w * 4 in
      if not (List.exists (fun r -> Meta.in_range r off) embedded) then begin
        let word = Encode.word_of_bytes oat.Oat.text (offset + off) in
        match Decode.decode word with
        | Isa.Bl { target = Isa.Sym s } ->
          bad ~where "unrelocated bl (sym %d) at +%#x" s off
        | Isa.Bl { target = Isa.Rel disp } ->
          let target = offset + off + disp in
          if
            not
              (Hashtbl.mem starts target || Hashtbl.mem dict_starts target)
          then
            bad ~where "bl at +%#x targets %#x, not a region start" off
              target
        | ( Isa.B _ | Isa.B_cond _ | Isa.Cbz _ | Isa.Cbnz _ | Isa.Tbz _
          | Isa.Tbnz _ | Isa.Adr _ | Isa.Ldr_lit _ ) as i ->
          (* Intra-region PC-relative forms: codegen only emits these
             against targets inside the same method (branches, embedded
             pools, switch tables), and outlining must preserve that. *)
          let disp = Option.get (Isa.pc_rel_disp i) in
          let target = off + disp in
          if target < 0 || target >= size then
            bad ~where
              "pc-relative %s at +%#x escapes its region (target %+d)"
              (Disasm.to_string i) off target
        | _ -> ()
      end
    done
  in
  List.iter
    (fun (me : Oat.method_entry) ->
      check_region
        ~where:(Calibro_dex.Dex_ir.method_ref_to_string me.Oat.me_name)
        ~embedded:me.Oat.me_meta.Meta.embedded ~offset:me.Oat.me_offset
        ~size:me.Oat.me_size)
    oat.Oat.methods;
  List.rev !vs

(* Outlined-body well-formedness over any code image: shared by the local
   text segment's outlined entries and the dictionary image (whose bodies
   are the same artifacts, just hoisted store-wide). *)
let check_bodies ~check_name ~text (entries : (int * int) list) :
    violation list =
  let vs = ref [] in
  let bad ~where fmt =
    Fmt.kstr
      (fun d ->
        vs := { v_check = check_name; v_where = where; v_detail = d } :: !vs)
      fmt
  in
  List.iter
    (fun (ol_offset, ol_size) ->
      let where = Printf.sprintf "%s@%#x" check_name ol_offset in
      if ol_size < 8 then
        bad ~where "body of %d bytes cannot hold a sequence plus br x30"
          ol_size
      else begin
        let last = Encode.word_of_bytes text (ol_offset + ol_size - 4) in
        (match Decode.decode last with
         | Isa.Br r when r = Isa.lr -> ()
         | i -> bad ~where "body ends in %s, not br x30" (Disasm.to_string i));
        (* The body proper must be straight-line: calls, terminators and
           LR-touching instructions are sequence separators and can never
           be harvested into an outlined function. *)
        for w = 0 to (ol_size / 4) - 2 do
          let word = Encode.word_of_bytes text (ol_offset + (w * 4)) in
          let i = Decode.decode word in
          if Isa.is_terminator i || Isa.is_call i || Isa.reads_lr i
             || Isa.writes_lr i
          then
            bad ~where "separator-class instruction %s inside body at +%#x"
              (Disasm.to_string i) (w * 4)
        done
      end)
    entries;
  List.rev !vs

let check_outlined (oat : Oat.t) : violation list =
  check_bodies ~check_name:"outlined" ~text:oat.Oat.text
    (List.map
       (fun (ol : Oat.outlined_entry) -> (ol.Oat.ol_offset, ol.Oat.ol_size))
       oat.Oat.outlined)

(* The shared-dictionary image holds nothing but outlined bodies; validate
   them under the same rules, plus exact tiling (the linker binds body
   starts as absolute call targets — a gap or overlap would mean a [bl]
   into the middle of something). *)
let check_dict_image ~image (entries : (int * int) list) : violation list =
  let tiling =
    let pos = ref 0 and vs = ref [] in
    List.iter
      (fun (off, size) ->
        if off <> !pos then
          vs :=
            { v_check = "dict";
              v_where = Printf.sprintf "dict@%#x" off;
              v_detail =
                Printf.sprintf "body at %#x does not tile (expected %#x)" off
                  !pos }
            :: !vs;
        pos := off + size)
      entries;
    if !pos <> Bytes.length image then
      vs :=
        { v_check = "dict"; v_where = "dict";
          v_detail =
            Printf.sprintf "bodies cover %d bytes of a %d-byte image" !pos
              (Bytes.length image) }
        :: !vs;
    List.rev !vs
  in
  tiling @ check_bodies ~check_name:"dict" ~text:image entries

(* Shelf well-formedness (a shelve-composed build): every shelf entry must
   tile the shelf image, name a method the container actually carries, and
   that method's text-side region must be exactly the fixed-size fault stub
   encoding the entry's index — a stub faulting with the wrong index would
   unshelve (and run) a different method's body. Branch closure *inside*
   shelf bodies is deliberately not checked: shelf entries carry no LTBO.1
   metadata, so embedded-data ranges are unknown there and any decoded
   word could be a false positive. *)
let check_shelf (oat : Oat.t) : violation list =
  match oat.Oat.shelve with
  | None -> []
  | Some shf ->
    let vs = ref [] in
    let bad ~where fmt =
      Fmt.kstr
        (fun d ->
          vs := { v_check = "shelf"; v_where = where; v_detail = d } :: !vs)
        fmt
    in
    let by_slot = Hashtbl.create 64 in
    List.iter
      (fun (me : Oat.method_entry) ->
        Hashtbl.replace by_slot me.Oat.me_slot me)
      oat.Oat.methods;
    let pos = ref 0 in
    List.iteri
      (fun index (e : Oat.shelf_entry) ->
        let where = Printf.sprintf "shelf[%d] (slot %d)" index e.Oat.sh_slot in
        if e.Oat.sh_offset <> !pos then
          bad ~where "body at %#x does not tile (expected %#x)" e.Oat.sh_offset
            !pos;
        pos := e.Oat.sh_offset + e.Oat.sh_size;
        if e.Oat.sh_size <= 0 || e.Oat.sh_size mod 4 <> 0 then
          bad ~where "size %d not a positive word multiple" e.Oat.sh_size;
        match Hashtbl.find_opt by_slot e.Oat.sh_slot with
        | None -> bad ~where "no method with this slot in the image"
        | Some me ->
          if me.Oat.me_size <> Abi.shelf_stub_bytes then
            bad ~where "text region of %d bytes is not a %d-byte stub"
              me.Oat.me_size Abi.shelf_stub_bytes
          else (
            match Abi.decode_shelf_stub oat.Oat.text ~offset:me.Oat.me_offset with
            | Some i when i = index -> ()
            | Some i -> bad ~where "stub encodes shelf index %d" i
            | None -> bad ~where "text region does not decode as a shelf stub"))
      shf.Oat.shf_entries;
    if !pos <> Bytes.length shf.Oat.shf_image then
      bad ~where:"shelf" "entries cover %d bytes of a %d-byte image" !pos
        (Bytes.length shf.Oat.shf_image);
    List.rev !vs

(* ---- Entry point -------------------------------------------------------- *)

let check ?dict (oat : Oat.t) : violation list =
  check_roundtrip oat
  @ check_layout oat
  @ check_stackmaps oat
  @ check_branches ?dict oat
  @ check_outlined oat
  @ check_shelf oat
