(* The simulated ART ABI: register conventions, memory map, ArtMethod
   layout and runtime-table layout shared between the code generator, the
   linker and the execution simulator.

   Mirrors the contracts the paper relies on:
   - Figure 4a: an ArtMethod pointer arrives in x0 and the callee entry
     address lives at a fixed offset inside the ArtMethod;
   - Figure 4b: x19 holds the thread-local runtime segment address and each
     native runtime function sits at a fixed offset;
   - Figure 4c: the stack overflow check probes sp - 0x2000. *)

open Calibro_dex.Dex_ir

(* ---- Registers -------------------------------------------------------- *)

let thread_reg = Calibro_aarch64.Isa.x19   (* runtime function table base *)
let method_table_reg = Calibro_aarch64.Isa.x20 (* ArtMethod array base *)

(* Java calls: x0 = ArtMethod*, arguments in x1..x7, result in x0.
   Runtime calls: arguments in x0..x6, result in x0. *)
let max_java_args = 7

(* ---- Memory map (the simulator adopts these) -------------------------- *)

let text_base = 0x100000          (* OAT text segment load address *)
let dict_base = 0x4000000
(* Load address of the store-wide shared outline dictionary (prelink-style:
   every app maps the same image at the same address, so dictionary-bound
   [bl] sites relocate to a fixed absolute target). dict_base - text_base
   = 0x3F00000 bytes, well inside the ±128MB reach of a [bl] imm26, so an
   app's text can always call into the dictionary directly. *)
let shelf_base = 0x6000000
(* Load address of the shelf image: the original bodies of *shelved*
   (profile-cold) methods, parked outside the text segment. The text keeps
   only a fixed-size stub per shelved method; the first call faults in the
   simulator, which redirects the ArtMethod entry here ("unshelving").
   shelf_base - text_base = 0x5F00000 bytes, inside the ±128MB reach of a
   [bl] imm26, so shelf-resident bodies still call CTO thunks in the text
   directly. *)

let shelf_stub_magic = 0x5e1f
(* The [brk] immediate of a shelf stub ([movz x17, #index; brk #magic]).
   The stub codec lives here — not in lib/shelve — because the emitter
   (lib/shelve), the simulator's fault handler, the invariant checker and
   oatdump all need it, and none of the last three may depend on the
   shelving library. *)

let shelf_stub_bytes = 2 * Calibro_aarch64.Isa.instr_bytes

(* The stub for the [index]-th shelf entry; [Invalid_argument] past the
   16-bit [movz] immediate. *)
let shelf_stub_code ~index =
  let open Calibro_aarch64 in
  if index < 0 || index > 0xffff then
    invalid_arg (Printf.sprintf "shelf index %d out of range" index);
  Encode.to_bytes
    [ Isa.Mov_wide
        { kind = Isa.MOVZ; size = Isa.X; rd = Isa.x17; imm16 = index; hw = 0 };
      Isa.Brk shelf_stub_magic ]

(* [Some index] iff the [shelf_stub_bytes] at [offset] are a shelf stub. *)
let decode_shelf_stub code ~offset =
  let open Calibro_aarch64 in
  if offset < 0 || offset + shelf_stub_bytes > Bytes.length code then None
  else
    let w i = Encode.word_of_bytes code (offset + (i * Isa.instr_bytes)) in
    match (Decode.decode (w 0), Decode.decode (w 1)) with
    | ( Isa.Mov_wide { kind = Isa.MOVZ; size = Isa.X; rd; imm16; hw = 0 },
        Isa.Brk m )
      when rd = Isa.x17 && m = shelf_stub_magic ->
      Some imm16
    | _ -> None

let method_table_base = 0x8000000 (* ArtMethod structs, 32 bytes each *)
let runtime_table_base = 0x9000000
let native_entry_base = 0xA000000 (* fake entry points of native methods *)
let heap_base = 0x10000000
let heap_limit = 0x40000000
let stack_top = 0x7F000000        (* initial sp, grows down *)
let stack_limit = stack_top - 0x100000

let page_size = 4096

(* ---- ArtMethod layout -------------------------------------------------- *)

let art_method_size = 32
let entry_point_offset = 16
(** Offset of the compiled-code entry pointer inside an ArtMethod. The
    paper's hottest instance uses offset 20; we use 16 to keep the slot
    8-byte aligned, which changes nothing structurally. *)

let art_method_addr ~slot = method_table_base + (slot * art_method_size)

(* ---- Runtime function table ------------------------------------------- *)

let runtime_fn_index fn =
  let rec find i = function
    | [] -> invalid_arg "runtime_fn_index"
    | f :: _ when f = fn -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 all_runtime_fns

let runtime_fn_offset fn = 8 * runtime_fn_index fn
let runtime_fn_addr fn = runtime_table_base + runtime_fn_offset fn

(* ---- Stack frames ------------------------------------------------------ *)

let stack_probe_distance = 0x2000 (* Figure 4c: sub x16, sp, #0x2000 *)

(* Frame: [sp+0]=saved x29, [sp+8]=saved x30, vreg i at [sp+16+8i]. *)
let vreg_slot v = 16 + (8 * v)

let frame_size ~num_vregs =
  let raw = 16 + (8 * num_vregs) in
  (raw + 15) / 16 * 16

(* ---- Symbols ------------------------------------------------------------ *)

(* Call targets in unlinked code ([Bl { target = Sym s }]): method slots
   occupy [0, thunk_sym_base); CTO thunks live above. *)
let thunk_sym_base = 0x400000

type thunk =
  | T_java_invoke          (** [ldr x16, [x0, #entry]; br x16] *)
  | T_rt of runtime_fn     (** [ldr x16, [x19, #off]; br x16] *)
  | T_stack_check          (** Figure 4c body followed by [br x30] *)

let thunk_sym = function
  | T_java_invoke -> thunk_sym_base
  | T_stack_check -> thunk_sym_base + 1
  | T_rt fn -> thunk_sym_base + 2 + runtime_fn_index fn

let thunk_of_sym s =
  if s = thunk_sym_base then Some T_java_invoke
  else if s = thunk_sym_base + 1 then Some T_stack_check
  else if s >= thunk_sym_base + 2
          && s < thunk_sym_base + 2 + List.length all_runtime_fns
  then Some (T_rt (List.nth all_runtime_fns (s - thunk_sym_base - 2)))
  else None

let all_thunks =
  T_java_invoke :: T_stack_check :: List.map (fun f -> T_rt f) all_runtime_fns

let thunk_name = function
  | T_java_invoke -> "__cto_java_invoke"
  | T_stack_check -> "__cto_stack_check"
  | T_rt fn -> "__cto_rt_" ^ runtime_fn_name fn

(* Thunk bodies (see DESIGN.md section 4.1 for why the call thunks use a
   tail branch through x16 while the stack-check thunk returns via x30). *)
let thunk_body t =
  let open Calibro_aarch64.Isa in
  match t with
  | T_java_invoke ->
    [ Ldr { size = X; rt = x16; rn = x0; imm = entry_point_offset };
      Br x16 ]
  | T_rt fn ->
    [ Ldr { size = X; rt = x16; rn = thread_reg; imm = runtime_fn_offset fn };
      Br x16 ]
  | T_stack_check -> stack_check_pattern @ [ Br lr ]
