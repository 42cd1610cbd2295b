(* Tests for the DEX-like IR: parser/printer round trips, checker. *)

open Calibro_dex
open Dex_ir

let sample =
  {|
.apk demo
.dex classes01
.class com.demo.Main
.method run params #1 regs #4 entry
  const v1, #2
  mul v2, v0, v1
  ifz eq v2, :zero
  rtcall pLogValue (v2)
  goto :done
:zero
  const v2, #0
:done
  return v2
.end
.method helper params #2 regs #3
  add v2, v0, v1
  return v2
.end
.class com.demo.Aux
.method caller params #0 regs #3 entry
  const v0, #1
  const v1, #2
  invoke com.demo.Main.helper (v0, v1) -> v2
  rtcall pLogValue (v2)
  return
.end
|}

let parse_ok src =
  match Dex_text.parse src with
  | Ok apk -> apk
  | Error e -> Alcotest.failf "parse error: %s" e

let suite =
  [ Alcotest.test_case "parse sample" `Quick (fun () ->
        let apk = parse_ok sample in
        Alcotest.(check string) "name" "demo" apk.apk_name;
        Alcotest.(check int) "methods" 3 (method_count apk);
        let run =
          Option.get
            (find_method apk { class_name = "com.demo.Main"; method_name = "run" })
        in
        Alcotest.(check bool) "entry" true run.is_entry;
        Alcotest.(check int) "insns" 7 (Array.length run.insns);
        (match run.insns.(2) with
         | Ifz (Eq, 2, 5) -> ()
         | _ -> Alcotest.fail "ifz target mis-resolved");
        match run.insns.(4) with
        | Goto 6 -> ()
        | _ -> Alcotest.fail "goto target mis-resolved");
    Alcotest.test_case "print/parse round trip" `Quick (fun () ->
        let apk = parse_ok sample in
        let printed = Dex_text.to_string apk in
        let apk2 = parse_ok printed in
        Alcotest.(check string) "stable" printed (Dex_text.to_string apk2);
        Alcotest.(check bool) "structurally equal" true (apk = apk2));
    Alcotest.test_case "checker accepts sample" `Quick (fun () ->
        match Dex_check.check (parse_ok sample) with
        | Ok () -> ()
        | Error errs ->
          Alcotest.failf "unexpected: %s"
            (String.concat "; " (List.map Dex_check.error_to_string errs)));
    Alcotest.test_case "parse errors carry line numbers" `Quick (fun () ->
        match Dex_text.parse ".apk x\n.dex d\n.class c\n.method m params #0 regs #1\n  bogus v0\n.end\n" with
        | Ok _ -> Alcotest.fail "expected parse error"
        | Error e ->
          Alcotest.(check bool) ("mentions line 5: " ^ e) true
            (Astring.String.is_infix ~affix:"line 5" e
             || String.length e > 0 && Astring.String.is_infix ~affix:"bogus" e));
    Alcotest.test_case "undefined label rejected" `Quick (fun () ->
        match Dex_text.parse ".apk x\n.dex d\n.class c\n.method m params #0 regs #1\n  goto :nowhere\n.end\n" with
        | Ok _ -> Alcotest.fail "expected parse error"
        | Error e ->
          Alcotest.(check bool) e true
            (Astring.String.is_infix ~affix:"nowhere" e));
    Alcotest.test_case "duplicate label rejected" `Quick (fun () ->
        match
          Dex_text.parse
            ".apk x\n.dex d\n.class c\n.method m params #0 regs #1\n:l\n  const v0, #1\n:l\n  return\n.end\n"
        with
        | Ok _ -> Alcotest.fail "expected parse error"
        | Error e ->
          Alcotest.(check bool) e true (Astring.String.is_infix ~affix:"duplicate" e));
    Alcotest.test_case "checker: register out of range" `Quick (fun () ->
        let m =
          { name = { class_name = "c"; method_name = "m" };
            num_params = 0; num_vregs = 2; is_native = false; is_entry = false;
            insns = [| Const (5, 1); Return None |] }
        in
        Alcotest.(check bool) "errors" true (Dex_check.check_method m <> []));
    Alcotest.test_case "checker: register count above the DEX limit" `Quick
      (fun () ->
        let m =
          { name = { class_name = "c"; method_name = "m" };
            num_params = 0; num_vregs = Dex_check.max_vregs;
            is_native = false; is_entry = false;
            insns = [| Const (0, 1); Return None |] }
        in
        Alcotest.(check int) "limit accepted" 0
          (List.length (Dex_check.check_method m));
        Alcotest.(check int) "one over rejected" 1
          (List.length
             (Dex_check.check_method
                { m with num_vregs = Dex_check.max_vregs + 1 })));
    Alcotest.test_case "checker: fallthrough off end" `Quick (fun () ->
        let m =
          { name = { class_name = "c"; method_name = "m" };
            num_params = 0; num_vregs = 2; is_native = false; is_entry = false;
            insns = [| Const (0, 1) |] }
        in
        Alcotest.(check bool) "errors" true (Dex_check.check_method m <> []));
    Alcotest.test_case "checker: call arity mismatch" `Quick (fun () ->
        let src =
          ".apk x\n.dex d\n.class c\n.method f params #2 regs #3\n  return v0\n.end\n.method g params #0 regs #2\n  const v0, #1\n  invoke c.f (v0) -> v1\n  return\n.end\n"
        in
        match Dex_check.check (parse_ok src) with
        | Ok () -> Alcotest.fail "expected arity error"
        | Error errs ->
          Alcotest.(check bool) "mentions arity" true
            (List.exists
               (fun e ->
                 Astring.String.is_infix ~affix:"expects 2"
                   (Dex_check.error_to_string e))
               errs));
    Alcotest.test_case "checker: undefined callee" `Quick (fun () ->
        let src =
          ".apk x\n.dex d\n.class c\n.method g params #0 regs #1\n  invoke c.missing ()\n  return\n.end\n"
        in
        match Dex_check.check (parse_ok src) with
        | Ok () -> Alcotest.fail "expected undefined-callee error"
        | Error errs ->
          Alcotest.(check bool) "mentions undefined" true
            (List.exists
               (fun e ->
                 Astring.String.is_infix ~affix:"undefined"
                   (Dex_check.error_to_string e))
               errs));
    Alcotest.test_case "native method parses" `Quick (fun () ->
        let src = ".apk x\n.dex d\n.class c\n.method n params #1 regs #1 native\n.end\n" in
        let apk = parse_ok src in
        let m = List.hd (methods_of_apk apk) in
        Alcotest.(check bool) "native" true m.is_native;
        match Dex_check.check apk with
        | Ok () -> ()
        | Error errs ->
          Alcotest.failf "unexpected: %s"
            (String.concat "; " (List.map Dex_check.error_to_string errs)));
    Alcotest.test_case "switch parses and resolves" `Quick (fun () ->
        let src =
          ".apk x\n.dex d\n.class c\n.method s params #1 regs #2\n  switch v0 (:a, :b)\n:a\n  const v1, #1\n  return v1\n:b\n  const v1, #2\n  return v1\n.end\n"
        in
        let apk = parse_ok src in
        let m = List.hd (methods_of_apk apk) in
        (match m.insns.(0) with
         | Switch (0, [ 1; 3 ]) -> ()
         | _ -> Alcotest.fail "switch targets wrong");
        Alcotest.(check bool) "check ok" true (Dex_check.check apk = Ok ()));
    Alcotest.test_case "string literals with escapes round trip" `Quick
      (fun () ->
        let src =
          ".apk x\n.dex d\n.class c\n.method m params #0 regs #1\n  string v0, \"a\\n\\\"b\\\\c\"\n  return\n.end\n"
        in
        let apk = parse_ok src in
        let m = List.hd (methods_of_apk apk) in
        (match m.insns.(0) with
         | Const_string (0, s) -> Alcotest.(check string) "escaped" "a\n\"b\\c" s
         | _ -> Alcotest.fail "expected string insn");
        let apk2 = parse_ok (Dex_text.to_string apk) in
        Alcotest.(check bool) "round trip" true (apk = apk2))
  ]

let literal_div_tests =
  [ Alcotest.test_case "checker: literal division by zero" `Quick (fun () ->
        let m =
          { name = { class_name = "c"; method_name = "m" };
            num_params = 1; num_vregs = 2; is_native = false; is_entry = false;
            insns = [| Binop_lit (Div, 1, 0, 0); Return (Some 1) |] }
        in
        Alcotest.(check bool) "rejected" true (Dex_check.check_method m <> []);
        let ok =
          { m with insns = [| Binop_lit (Div, 1, 0, 2); Return (Some 1) |] }
        in
        Alcotest.(check (list string)) "non-zero fine" []
          (List.map Dex_check.error_to_string (Dex_check.check_method ok)))
  ]

let suite = suite @ literal_div_tests
