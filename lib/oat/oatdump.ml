(* Textual dump of a linked OAT file — the debugging tool every real OAT
   workflow leans on. Prints the segment map, per-method headers and the
   disassembly with embedded-data ranges rendered as data. *)

open Calibro_aarch64
open Calibro_codegen

(* A region table can disagree with the text segment it describes — a
   truncated download, a bad tool, a hand-edited image. Validate every
   extent before touching the bytes so the dump fails with
   {!Oat_file.Oat_error} instead of an [Invalid_argument] escaping from
   [Bytes.sub] halfway through the output. *)
let check_extent (oat : Oat_file.t) what ~offset ~size =
  let text = Oat_file.text_size oat in
  if offset < 0 || size < 0 || offset + size > text then
    raise
      (Oat_file.Oat_error
         (Printf.sprintf
            "%s spans +%#x..+%#x but the text segment is %d bytes" what
            offset (offset + size) text))

let dump_method buf (oat : Oat_file.t) (m : Oat_file.method_entry) =
  check_extent oat
    (Printf.sprintf "method %s"
       (Calibro_dex.Dex_ir.method_ref_to_string m.me_name))
    ~offset:m.me_offset ~size:m.me_size;
  Buffer.add_string buf
    (Printf.sprintf "method %s (slot %d) at +%#x, %d bytes%s%s%s\n"
       (Calibro_dex.Dex_ir.method_ref_to_string m.me_name)
       m.me_slot m.me_offset m.me_size
       (if m.me_meta.Meta.is_native then " [native]" else "")
       (if m.me_meta.Meta.has_indirect_jump then " [indirect-jump]" else "")
       (match
          if m.me_size <> Abi.shelf_stub_bytes then None
          else Abi.decode_shelf_stub oat.Oat_file.text ~offset:m.me_offset
        with
       | Some i -> Printf.sprintf " [shelf-stub #%d]" i
       | None -> ""));
  let base = Abi.text_base + m.me_offset in
  let words = m.me_size / 4 in
  for i = 0 to words - 1 do
    let off = i * 4 in
    let addr = base + off in
    let w = Encode.word_of_bytes oat.Oat_file.text (m.me_offset + off) in
    let line =
      if Meta.is_embedded m.me_meta off then Printf.sprintf ".data %#010x" w
      else Disasm.to_string ~addr (Decode.decode w)
    in
    let annot =
      (if List.mem off m.me_meta.Meta.terminators then " ; terminator" else "")
      ^ (if List.mem_assoc off m.me_meta.Meta.pc_rel then " ; pc-rel" else "")
      ^ (if Meta.in_slowpath m.me_meta off then " ; slowpath" else "")
    in
    Buffer.add_string buf (Printf.sprintf "  %#x: %s%s\n" addr line annot)
  done

let dump ?(methods = true) (oat : Oat_file.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "OAT %s: text %d bytes, %d methods, %d thunks, %d outlined functions%s\n"
       oat.Oat_file.apk_name (Oat_file.text_size oat)
       (List.length oat.Oat_file.methods)
       (List.length oat.Oat_file.thunks)
       (List.length oat.Oat_file.outlined)
       (match oat.Oat_file.shelve with
        | None -> ""
        | Some s ->
          Printf.sprintf ", %d shelved"
            (List.length s.Oat_file.shf_entries)));
  (match oat.Oat_file.shelve with
   | None -> ()
   | Some s ->
     Buffer.add_string buf
       (Printf.sprintf "shelve policy %s: %d-byte shelf image at %#x\n"
          s.Oat_file.shf_digest
          (Bytes.length s.Oat_file.shf_image)
          Abi.shelf_base));
  List.iter
    (fun (t : Oat_file.thunk_entry) ->
      check_extent oat
        (Printf.sprintf "thunk %s" (Abi.thunk_name t.th))
        ~offset:t.th_offset ~size:t.th_size;
      Buffer.add_string buf
        (Printf.sprintf "thunk %s at +%#x, %d bytes\n" (Abi.thunk_name t.th)
           t.th_offset t.th_size);
      Buffer.add_string buf
        (Disasm.dump ~base:(Abi.text_base + t.th_offset)
           (Bytes.sub oat.Oat_file.text t.th_offset t.th_size)))
    oat.Oat_file.thunks;
  if methods then List.iter (dump_method buf oat) oat.Oat_file.methods;
  List.iter
    (fun (o : Oat_file.outlined_entry) ->
      check_extent oat
        (Printf.sprintf "outlined function at +%#x" o.ol_offset)
        ~offset:o.ol_offset ~size:o.ol_size;
      Buffer.add_string buf
        (Printf.sprintf "outlined at +%#x, %d bytes\n" o.ol_offset o.ol_size);
      Buffer.add_string buf
        (Disasm.dump ~base:(Abi.text_base + o.ol_offset)
           (Bytes.sub oat.Oat_file.text o.ol_offset o.ol_size)))
    oat.Oat_file.outlined;
  (match oat.Oat_file.shelve with
   | None -> ()
   | Some s ->
     let image = s.Oat_file.shf_image in
     let name_of_slot =
       let tbl = Hashtbl.create (List.length oat.Oat_file.methods) in
       List.iter
         (fun (m : Oat_file.method_entry) ->
           Hashtbl.replace tbl m.me_slot m.me_name)
         oat.Oat_file.methods;
       fun slot ->
         match Hashtbl.find_opt tbl slot with
         | Some n -> Calibro_dex.Dex_ir.method_ref_to_string n
         | None -> Printf.sprintf "<unknown slot %d>" slot
     in
     List.iter
       (fun (e : Oat_file.shelf_entry) ->
         if e.sh_offset < 0 || e.sh_size < 0
            || e.sh_offset + e.sh_size > Bytes.length image
         then
           raise
             (Oat_file.Oat_error
                (Printf.sprintf
                   "shelf body for slot %d spans +%#x..+%#x but the shelf \
                    image is %d bytes"
                   e.sh_slot e.sh_offset (e.sh_offset + e.sh_size)
                   (Bytes.length image)));
         Buffer.add_string buf
           (Printf.sprintf "shelved %s (slot %d) at shelf+%#x, %d bytes\n"
              (name_of_slot e.sh_slot) e.sh_slot e.sh_offset e.sh_size);
         if methods then
           Buffer.add_string buf
             (Disasm.dump ~base:(Abi.shelf_base + e.sh_offset)
                (Bytes.sub image e.sh_offset e.sh_size)))
       s.Oat_file.shf_entries);
  Buffer.contents buf
