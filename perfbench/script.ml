(* Interaction-script replay on the VM, and the expected-results file.

   [expected.txt] holds, for every app of [Apps.all] and every step of its
   interaction script, a digest of the step's call outcomes and pLogValue
   streams, taken from the Baseline build (no CTO, no LTBO). Outlining
   must not change what a program computes, so every replay of an
   unmutated app, under any configuration, must reproduce these digests.
   OAT bytes are deliberately not pinned. The digest is the standard
   library's MD5, independent of the program's own content hash. *)

open Calibro_workload
module Abi = Calibro_codegen.Abi
module Interp = Calibro_vm.Interp
module Dex_ir = Calibro_dex.Dex_ir
module Obs = Calibro_obs.Obs

type run = {
  r_steps : string list;  (* one digest per script step *)
  r_faults : string list;
  r_cycles : int;
  r_resident_code_bytes : int;
}

let outcome_tag = function
  | Interp.Returned v -> "R" ^ string_of_int v
  | Interp.Thrown fn -> "T" ^ Dex_ir.runtime_fn_name fn
  | Interp.Fault msg -> "F" ^ msg

(* Overwrite every register and every stack page touched so far with
   [v]: what a call finds there is then [v], not what earlier calls left. *)
let poison (t : Interp.t) v =
  let m = t.Interp.machine in
  Hashtbl.iter
    (fun idx page ->
      let addr = idx lsl Calibro_vm.Machine.page_bits in
      if addr >= Abi.stack_limit && addr < Abi.stack_top then
        Bytes.fill page 0 (Bytes.length page) (Char.chr (v land 0xff)))
    m.Calibro_vm.Machine.pages;
  Array.fill m.Calibro_vm.Machine.regs 0 (Array.length m.Calibro_vm.Machine.regs) v

(* Instructions one replay may retire before it faults "out of fuel":
   about six times the largest app's script, so a miscompiled build that
   loops fails in seconds instead of running for minutes. *)
let fuel = 40_000_000

(* Replay [script] on [oat], counting the replay into the VM figures
   ({!Layers}). *)
let replay ?poison_with oat (script : Appgen.script) =
  Layers.time "vm.replay_s" @@ fun () ->
  let t = Interp.load ~fuel oat in
  let faults = ref [] in
  let steps =
    List.map
      (fun (st : Appgen.script_step) ->
        let h = Buffer.create 256 in
        for _ = 1 to st.Appgen.sc_repeat do
          Option.iter (poison t) poison_with;
          let outcome, log =
            Interp.call_traced t st.Appgen.sc_method st.Appgen.sc_args
          in
          (match outcome with
           | Interp.Fault msg ->
             faults :=
               Printf.sprintf "%s: %s"
                 (Dex_ir.method_ref_to_string st.Appgen.sc_method)
                 msg
               :: !faults
           | _ -> ());
          Buffer.add_string h (outcome_tag outcome);
          List.iter (fun v -> Printf.bprintf h " %d" v) log;
          Buffer.add_char h '\n'
        done;
        Digest.to_hex (Digest.string (Buffer.contents h)))
      script
  in
  Obs.Counter.add "vm.replays" 1;
  Obs.Counter.add "vm.instructions" (Interp.instructions_retired t);
  Obs.Counter.add "vm.cycles" (Interp.cycles t);
  { r_steps = steps; r_faults = List.rev !faults; r_cycles = Interp.cycles t;
    r_resident_code_bytes = Interp.resident_code_bytes t }

(* (replay_cycles, resident_code_bytes) over a workload's replays. *)
let totals runs =
  List.fold_left
    (fun (c, r) run -> (c + run.r_cycles, r + run.r_resident_code_bytes))
    (0, 0) runs

(* ---- expected.txt: "<app> <step> <entry method> <digest>" per line ---- *)

(* A step whose digest changes when the Baseline replay is repeated with
   registers and stack poisoned before every call reads memory no earlier
   instruction of the call wrote (some generated methods read registers
   they never assign). Its result depends on what earlier calls left
   behind, which differs legitimately between builds, so it is recorded
   as [undefined] and not compared; it must still not fault. *)
let undefined = "undefined"

let write_expected path =
  let oc = open_out path in
  output_string oc
    "# Baseline-build script digests: app, step, entry method, digest of \
     the step's call outcomes and pLogValue streams, or \"undefined\" for \
     a step whose result depends on stale registers or stack.\n";
  List.iter
    (fun p ->
      let a = Appgen.generate p in
      let b =
        Calibro_core.Pipeline.build ~cache:None
          ~config:Calibro_core.Config.baseline a.Appgen.app
      in
      let run ?poison_with () =
        replay ?poison_with b.Calibro_core.Pipeline.b_oat a.Appgen.app_script
      in
      let r = run () in
      if r.r_faults <> [] then
        failwith ("baseline replay faults: " ^ String.concat "; " r.r_faults);
      let p1 = run ~poison_with:0x5a5a5a5a () and p2 = run ~poison_with:(-1) () in
      List.iteri
        (fun i (st : Appgen.script_step) ->
          let d = List.nth r.r_steps i in
          let defined = d = List.nth p1.r_steps i && d = List.nth p2.r_steps i in
          Printf.fprintf oc "%s %d %s %s\n" p.Appgen.p_name i
            (Dex_ir.method_ref_to_string st.Appgen.sc_method)
            (if defined then d else undefined))
        a.Appgen.app_script)
    Apps.all;
  close_out oc

(* app name -> step digests, in step order *)
let read_expected path : (string, string list) Hashtbl.t =
  let ic = open_in path in
  let tbl = Hashtbl.create 8 in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> ()
    | line when String.length line = 0 || line.[0] = '#' -> go ()
    | line -> (
      match String.split_on_char ' ' line with
      | [ app; _step; _entry; digest ] ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl app) in
        Hashtbl.replace tbl app (digest :: prev);
        go ()
      | _ -> failwith ("malformed expected-results line: " ^ line))
  in
  go ();
  close_in ic;
  Hashtbl.filter_map_inplace (fun _ ds -> Some (List.rev ds)) tbl;
  tbl

(* Mismatch messages of one replay against the expected digests. *)
let check expected ~app r =
  match Hashtbl.find_opt expected app with
  | None -> [ "no expected results for " ^ app ]
  | Some want ->
    if List.length want <> List.length r.r_steps then
      [ Printf.sprintf "%s: %d script steps, expected %d" app
          (List.length r.r_steps) (List.length want) ]
    else
      List.concat
        (List.mapi
           (fun i (w, got) ->
             if w = got || w = undefined then []
             else [ Printf.sprintf "%s: script step %d diverged" app i ])
           (List.combine want r.r_steps))

(* Count one replay as an operation of [tally]: it fails, as "diverged",
   when a call faulted or, given the expected results of [app], a
   defined step differs from them. *)
let judge tally ~name ?expected r =
  Common.attempt tally;
  let problems =
    r.r_faults
    @ match expected with Some (e, app) -> check e ~app r | None -> []
  in
  match problems with
  | [] -> ()
  | first :: _ ->
    Common.fail tally "diverged"
      (Printf.sprintf "%s: %s (%d problems)" name first (List.length problems))

let undefined_steps expected =
  Hashtbl.fold
    (fun _ ds acc -> acc + List.length (List.filter (( = ) undefined) ds))
    expected 0
