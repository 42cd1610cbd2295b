(* lib/shelve tests: stub encoding, plan canonicalization and policy
   digests, the ?shelve pipeline composition, the OAT shelf round-trip,
   the oatdump annotations, and the interpreter's first-fault unshelve
   accounting — including the three fault edges the release-train
   workload leans on: a shelved method calling a shelved method, a
   shelved method reached from a dictionary-bound build, and a
   re-entrant fault during unshelve accounting (recursion through the
   freshly unshelved body). *)

open Calibro_dex
open Calibro_core
open Calibro_vm
module Shelve = Calibro_shelve.Shelve
module Oat = Calibro_oat.Oat_file
module Oatdump = Calibro_oat.Oatdump
module Abi = Calibro_codegen.Abi
module Dict = Calibro_dict.Dict
module Profile = Calibro_profile.Profile
module Appgen = Calibro_workload.Appgen
module Apps = Calibro_workload.Apps

let parse src =
  match Dex_text.parse src with
  | Ok apk -> (
    match Dex_check.check apk with
    | Ok () -> apk
    | Error errs ->
      Alcotest.failf "check: %s"
        (String.concat "; " (List.map Dex_check.error_to_string errs)))
  | Error e -> Alcotest.failf "parse: %s" e

let header = ".apk t\n.dex d\n.class t\n"
let m name = { Dex_ir.class_name = "t"; method_name = name }

(* The fault-edge program. Warm entry [f] calls cold [g] twice (first
   fault unshelves, second call goes through the repointed ArtMethod
   entry), cold [g] calls cold [h] (shelved -> shelved), and cold [fact]
   recurses (the recursive invokes land after the entry was repointed,
   so the fault must be charged exactly once). Every cold body compiles
   well past [Abi.shelf_stub_bytes], so the splitter really shelves it. *)
let edges_src =
  header
  ^ {|.method h params #1 regs #3
  mul v1, v0, v0
  rtcall pLogValue (v1)
  add v2, v1, #3
  return v2
.end
.method g params #1 regs #4
  add v1, v0, #1
  rtcall pLogValue (v1)
  invoke t.h (v1) -> v2
  add v3, v2, v1
  return v3
.end
.method fact params #1 regs #4
  ifz ne v0, :rec
  const v1, #1
  return v1
:rec
  sub v1, v0, #1
  invoke t.fact (v1) -> v2
  mul v3, v0, v2
  return v3
.end
.method f params #1 regs #8 entry
  invoke t.g (v0) -> v1
  invoke t.g (v1) -> v2
  invoke t.fact (v0) -> v3
  rtcall pLogValue (v3)
  add v4, v1, v2
  add v4, v4, v3
  return v4
.end
|}

let warm_f = Shelve.plan ~coverage:0.9 ~warm:[ m "f" ]

let build ?shelve src =
  (Pipeline.build ~config:Config.baseline ?shelve (parse src)).Pipeline.b_oat

(* Run [f n] on a fresh interpreter; return (outcome, log, interp). *)
let call_f ?dict oat n =
  let t = Interp.load ?dict oat in
  let outcome = Interp.call t (m "f") [ n ] in
  (outcome, Interp.log t, t)

let check_faithful name (base_out, base_log, _) (out, log, _) =
  Alcotest.(check string) (name ^ " outcome")
    (match base_out with
     | Interp.Returned v -> Printf.sprintf "Returned %d" v
     | Interp.Thrown fn -> "Thrown " ^ Dex_ir.runtime_fn_name fn
     | Interp.Fault msg -> "Fault " ^ msg)
    (match out with
     | Interp.Returned v -> Printf.sprintf "Returned %d" v
     | Interp.Thrown fn -> "Thrown " ^ Dex_ir.runtime_fn_name fn
     | Interp.Fault msg -> "Fault " ^ msg);
  Alcotest.(check (list int)) (name ^ " log") base_log log

let fault_count t name =
  match List.assoc_opt (m name) (Interp.shelf_fault_counts t) with
  | Some n -> n
  | None -> Alcotest.failf "%s is not on the shelf" name

let unit_tests =
  [ Alcotest.test_case "stub encode/decode round-trip" `Quick (fun () ->
        List.iter
          (fun index ->
            let code = Abi.shelf_stub_code ~index in
            Alcotest.(check int) "stub size" Abi.shelf_stub_bytes
              (Bytes.length code);
            Alcotest.(check (option int)) "decodes" (Some index)
              (Abi.decode_shelf_stub code ~offset:0))
          [ 0; 1; 5; 1000 ];
        (* a corrupted stub must not decode *)
        let code = Abi.shelf_stub_code ~index:7 in
        Bytes.set code 7 '\x00';
        Alcotest.(check (option int)) "corrupt" None
          (Abi.decode_shelf_stub code ~offset:0));
    Alcotest.test_case "plan rejects nonsense coverage" `Quick (fun () ->
        List.iter
          (fun coverage ->
            match Shelve.plan ~coverage ~warm:[ m "f" ] with
            | exception Shelve.Shelve_error _ -> ()
            | _ -> Alcotest.failf "coverage %f accepted" coverage)
          [ -0.1; 1.5; Float.nan ]);
    Alcotest.test_case "plan canonicalizes the warm set" `Quick (fun () ->
        let p = Shelve.plan ~coverage:0.5 ~warm:[ m "b"; m "a"; m "b" ] in
        Alcotest.(check int) "deduped" 2 (List.length p.Shelve.sp_warm);
        let q = Shelve.plan ~coverage:0.5 ~warm:[ m "a"; m "b" ] in
        Alcotest.(check string) "order-insensitive digest"
          q.Shelve.sp_digest p.Shelve.sp_digest);
    Alcotest.test_case "policy digest keys on coverage and warm set" `Quick
      (fun () ->
        let p = Shelve.plan ~coverage:0.5 ~warm:[ m "a" ] in
        let q = Shelve.plan ~coverage:0.6 ~warm:[ m "a" ] in
        let r = Shelve.plan ~coverage:0.5 ~warm:[ m "a"; m "b" ] in
        Alcotest.(check bool) "coverage matters" true
          (p.Shelve.sp_digest <> q.Shelve.sp_digest);
        Alcotest.(check bool) "warm set matters" true
          (p.Shelve.sp_digest <> r.Shelve.sp_digest))
  ]

let pipeline_tests =
  [ Alcotest.test_case "shelved build shrinks text, records the policy"
      `Quick (fun () ->
        let plain = build edges_src in
        let b =
          Pipeline.build ~config:Config.baseline ~shelve:warm_f
            (parse edges_src)
        in
        Alcotest.(check int) "three methods shelved" 3 b.Pipeline.b_shelved;
        let oat = b.Pipeline.b_oat in
        Alcotest.(check bool) "text shrank" true
          (Oat.text_size oat < Oat.text_size plain);
        match oat.Oat.shelve with
        | None -> Alcotest.fail "no shelf section"
        | Some s ->
          Alcotest.(check string) "policy digest recorded"
            warm_f.Shelve.sp_digest s.Oat.shf_digest;
          Alcotest.(check int) "one entry per shelved method" 3
            (List.length s.Oat.shf_entries));
    Alcotest.test_case "OAT round-trip preserves the shelf" `Quick (fun () ->
        let oat = build ~shelve:warm_f edges_src in
        match Oat.of_bytes (Oat.to_bytes oat) with
        | Error e -> Alcotest.failf "reparse: %s" e
        | Ok oat' -> (
          match (oat.Oat.shelve, oat'.Oat.shelve) with
          | Some s, Some s' ->
            Alcotest.(check string) "digest" s.Oat.shf_digest s'.Oat.shf_digest;
            Alcotest.(check bool) "image" true
              (Bytes.equal s.Oat.shf_image s'.Oat.shf_image);
            Alcotest.(check bool) "entries" true
              (s.Oat.shf_entries = s'.Oat.shf_entries);
            Alcotest.(check bool) "text" true
              (Bytes.equal oat.Oat.text oat'.Oat.text)
          | _ -> Alcotest.fail "shelf lost in round-trip"));
    Alcotest.test_case "oatdump annotates stubs and the policy" `Quick
      (fun () ->
        let dump = Oatdump.dump (build ~shelve:warm_f edges_src) in
        List.iter
          (fun affix ->
            Alcotest.(check bool) affix true
              (Astring.String.is_infix ~affix dump))
          [ "shelf-stub #"; "shelve policy"; "shelved t.g" ];
        (* an unshelved build must not grow shelf annotations *)
        let plain = Oatdump.dump (build edges_src) in
        Alcotest.(check bool) "plain dump has no stubs" false
          (Astring.String.is_infix ~affix:"shelf-stub" plain))
  ]

let fault_edge_tests =
  [ Alcotest.test_case "first fault unshelves once, later calls bypass"
      `Quick (fun () ->
        let base = call_f (build edges_src) 4 in
        let ((_, _, t) as shelved) = call_f (build ~shelve:warm_f edges_src) 4 in
        check_faithful "shelved" base shelved;
        Alcotest.(check int) "three on the shelf" 3
          (Interp.shelved_method_count t);
        Alcotest.(check int) "three unshelved" 3 (Interp.unshelved_count t);
        (* f calls g twice; the second call dispatches through the
           repointed ArtMethod entry, so g faults exactly once *)
        Alcotest.(check int) "g faults once" 1 (fault_count t "g");
        Alcotest.(check bool) "g unshelved" true
          (Interp.is_unshelved t (m "g")));
    Alcotest.test_case "shelved method calling a shelved method" `Quick
      (fun () ->
        let _, _, t = call_f (build ~shelve:warm_f edges_src) 4 in
        (* g faults, executes from the shelf, and its invoke of h faults
           again — both must land on their parked bodies with correct
           per-slot accounting *)
        Alcotest.(check int) "h faults once" 1 (fault_count t "h");
        Alcotest.(check bool) "h unshelved" true
          (Interp.is_unshelved t (m "h")));
    Alcotest.test_case "re-entrant fault during unshelve accounting" `Quick
      (fun () ->
        (* fact 4 recurses through the body that was unshelved by the
           outermost call: only the first frame may be charged a fault *)
        let _, _, t = call_f (build ~shelve:warm_f edges_src) 4 in
        Alcotest.(check int) "fact faults once" 1 (fault_count t "fact");
        Alcotest.(check int) "one unshelve for fact" 1
          (match
             List.assoc_opt (m "fact") (Interp.shelf_fault_counts t)
           with
           | Some _ when Interp.is_unshelved t (m "fact") -> 1
           | _ -> 0))
  ]

(* The composition edge: a dictionary-bound, shelve-enabled build of the
   demo app. Outlining mines the warm set, the dictionary binds the
   outlined bodies, and cold methods still fault into the shelf — the
   run must stay call-for-call faithful to the plain build. *)
let dict_tests =
  [ Alcotest.test_case "shelved method inside a dictionary-bound build"
      `Quick (fun () ->
        let gen = Appgen.generate Apps.demo in
        let apk = gen.Appgen.app and script = gen.Appgen.app_script in
        let config = Config.cto_ltbo_pl ~k:8 () in
        let run ?dict oat =
          let t = Interp.load ?dict oat in
          List.iter
            (fun (st : Appgen.script_step) ->
              for _ = 1 to st.Appgen.sc_repeat do
                match Interp.call t st.Appgen.sc_method st.Appgen.sc_args with
                | Interp.Fault msg -> Alcotest.failf "script fault: %s" msg
                | _ -> ()
              done)
            script;
          t
        in
        let plain = Pipeline.build ~config apk in
        let tp = run plain.Pipeline.b_oat in
        (* 0.99, not lower: the demo script concentrates its mass on a
           handful of methods, and a small warm set leaves LTBO nothing
           to outline — the test needs outlined bodies *and* executed
           cold methods in the same build *)
        let plan = Shelve.of_profile ~coverage:0.99 (Profile.of_interp tp) in
        let shelved = Pipeline.build ~config ~shelve:plan apk in
        Alcotest.(check bool) "something shelved" true
          (shelved.Pipeline.b_shelved > 0);
        (* the dictionary keeps only bodies at least two apps share;
           mine over the app and a same-code sibling, as a store would
           over two releases shipping the same library *)
        let sibling =
          Pipeline.build ~config ~shelve:plan
            { apk with Dex_ir.apk_name = apk.Dex_ir.apk_name ^ "-v2" }
        in
        let d = Dict.of_oats [ shelved.Pipeline.b_oat; sibling.Pipeline.b_oat ] in
        Alcotest.(check bool) "dictionary has bodies" true
          (Dict.n_bodies d > 0);
        let bound =
          Pipeline.build ~config ~dict:(Dict.linker_dict d) ~shelve:plan apk
        in
        Alcotest.(check (option string)) "bound against the dict"
          (Some (Dict.digest d)) bound.Pipeline.b_oat.Oat.dict_digest;
        let tb = run ~dict:(Dict.vm_image d) bound.Pipeline.b_oat in
        Alcotest.(check (list int)) "log faithful" (Interp.log tp)
          (Interp.log tb);
        Alcotest.(check bool) "cold methods faulted" true
          (Interp.unshelved_count tb > 0))
  ]

let oracle_tests =
  [ Alcotest.test_case "oracle +shelve variants pass" `Quick (fun () ->
        let apk = (Appgen.generate Apps.demo).Appgen.app in
        match
          Calibro_check.Oracle.run ~configs:[ Config.cto ] ~shelve:0.8 apk
        with
        | Error e -> Alcotest.failf "oracle error: %s" e
        | Ok r ->
          Alcotest.(check (list string)) "no divergences" []
            (List.map Calibro_check.Oracle.divergence_to_string
               r.Calibro_check.Oracle.r_divergences);
          Alcotest.(check bool) "+shelve variant ran" true
            (List.exists
               (fun n -> Astring.String.is_suffix ~affix:"+shelve" n)
               r.Calibro_check.Oracle.r_variants))
  ]

let suite = unit_tests @ pipeline_tests @ fault_edge_tests @ dict_tests @ oracle_tests
