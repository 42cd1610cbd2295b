(* HGraph construction and optimization pass tests. *)

open Calibro_dex.Dex_ir
open Calibro_hgraph
open Hgraph

let mk_method ?(params = 0) ?(vregs = 8) insns =
  { name = { class_name = "t"; method_name = "m" };
    num_params = params; num_vregs = vregs; is_native = false;
    is_entry = false; insns = Array.of_list insns }

let graph ?params ?vregs insns = of_method (mk_method ?params ?vregs insns)

let count_insns g = size g

let has_insn g pred =
  Array.exists (fun b -> List.exists pred b.insns) g.blocks

let basics =
  [ Alcotest.test_case "straight line is one block" `Quick (fun () ->
        let g = graph [ Const (0, 1); Const (1, 2); Return (Some 0) ] in
        Alcotest.(check int) "blocks" 1 (Array.length g.blocks);
        verify g);
    Alcotest.test_case "diamond CFG shape" `Quick (fun () ->
        (* 0: ifz -> 2 ; 1: goto 3 ; 2: ... ; 3: return *)
        let g =
          graph
            [ Ifz (Eq, 0, 3);          (* B0 *)
              Const (1, 1); Goto 4;    (* B1 *)
              Const (1, 2);            (* B2, falls through *)
              Return (Some 1) ]        (* B3 *)
        in
        Alcotest.(check int) "blocks" 4 (Array.length g.blocks);
        verify g;
        (match g.blocks.(0).term with
         | TIfz (Eq, 0, 2, 1) -> ()
         | t -> Alcotest.failf "entry term %s" (term_to_string t));
        match g.blocks.(2).term with
        | TGoto 3 -> ()
        | t -> Alcotest.failf "fallthrough term %s" (term_to_string t));
    Alcotest.test_case "null and bounds checks materialized" `Quick (fun () ->
        let g = graph [ Aget (1, 0, 2); Return (Some 1) ] in
        Alcotest.(check bool) "null" true
          (has_insn g (function HNull_check 0 -> true | _ -> false));
        Alcotest.(check bool) "bounds" true
          (has_insn g (function HBounds_check (2, 0) -> true | _ -> false)));
    Alcotest.test_case "div emits zero check" `Quick (fun () ->
        let g = graph [ Binop (Div, 2, 0, 1); Return (Some 2) ] in
        Alcotest.(check bool) "check" true
          (has_insn g (function HDiv_zero_check 1 -> true | _ -> false)));
    Alcotest.test_case "const_fold folds arithmetic" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 6); Const (1, 7); Binop (Mul, 2, 0, 1);
              Return (Some 2) ]
        in
        ignore (Passes.const_fold g);
        Alcotest.(check bool) "folded" true
          (has_insn g (function HConst (2, 42) -> true | _ -> false)));
    Alcotest.test_case "const_fold removes provably-nonzero div check" `Quick
      (fun () ->
        let g =
          graph [ Const (1, 3); Binop (Div, 2, 0, 1); Return (Some 2) ]
        in
        ignore (Passes.const_fold g);
        Alcotest.(check bool) "check gone" false
          (has_insn g (function HDiv_zero_check _ -> true | _ -> false)));
    Alcotest.test_case "const_fold keeps div-by-zero check" `Quick (fun () ->
        let g =
          graph [ Const (1, 0); Binop (Div, 2, 0, 1); Return (Some 2) ]
        in
        ignore (Passes.const_fold g);
        Alcotest.(check bool) "check kept" true
          (has_insn g (function HDiv_zero_check _ -> true | _ -> false)));
    Alcotest.test_case "const_fold resolves constant branch" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 0); Ifz (Eq, 0, 3); Return (Some 0); Const (1, 9);
              Return (Some 1) ]
        in
        ignore (Passes.const_fold g);
        match g.blocks.(0).term with
        | TGoto _ -> ()
        | t -> Alcotest.failf "expected goto, got %s" (term_to_string t));
    Alcotest.test_case "copy_prop forwards moves" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 5); Move (1, 0); Binop (Add, 2, 1, 1);
              Return (Some 2) ]
        in
        ignore (Passes.copy_prop g);
        Alcotest.(check bool) "uses v0" true
          (has_insn g (function HBinop (Add, 2, 0, 0) -> true | _ -> false)));
    Alcotest.test_case "copy_prop invalidated by redefinition" `Quick
      (fun () ->
        let g =
          graph
            [ Move (1, 0);      (* v1 = v0 *)
              Const (0, 9);     (* v0 redefined: copy stale *)
              Binop (Add, 2, 1, 1);
              Return (Some 2) ]
        in
        ignore (Passes.copy_prop g);
        Alcotest.(check bool) "still uses v1" true
          (has_insn g (function HBinop (Add, 2, 1, 1) -> true | _ -> false)));
    Alcotest.test_case "cse merges duplicate expressions" `Quick (fun () ->
        let g =
          graph
            [ Binop (Add, 2, 0, 1); Binop (Add, 3, 0, 1);
              Binop (Mul, 4, 2, 3); Return (Some 4) ]
        in
        ignore (Passes.cse g);
        Alcotest.(check bool) "second becomes move" true
          (has_insn g (function HMove (3, 2) -> true | _ -> false)));
    Alcotest.test_case "cse respects operand invalidation" `Quick (fun () ->
        let g =
          graph
            [ Binop (Add, 2, 0, 1);
              Const (0, 7);          (* operand changed *)
              Binop (Add, 3, 0, 1);
              Binop (Mul, 4, 2, 3);
              Return (Some 4) ]
        in
        ignore (Passes.cse g);
        Alcotest.(check bool) "no bogus merge" false
          (has_insn g (function HMove (3, 2) -> true | _ -> false)));
    Alcotest.test_case "dce removes dead code" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 1); Const (1, 99); Binop (Add, 2, 1, 1);
              Return (Some 0) ]
        in
        ignore (Passes.dce g);
        Alcotest.(check int) "only live const remains" 1 (count_insns g));
    Alcotest.test_case "dce keeps side effects" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 1);
              Invoke_runtime (Log_value, [ 0 ], Some 1); (* result dead, call kept *)
              Return (Some 0) ]
        in
        ignore (Passes.dce g);
        Alcotest.(check bool) "call kept" true
          (has_insn g (function HInvoke_runtime _ -> true | _ -> false)));
    Alcotest.test_case "dce respects cross-block liveness" `Quick (fun () ->
        let g =
          graph
            [ Const (1, 42);         (* live only in B2 *)
              Ifz (Eq, 0, 4);
              Const (1, 7);
              Return (Some 1);
              Return (Some 1) ]
        in
        ignore (Passes.dce g);
        Alcotest.(check bool) "cross-block const kept" true
          (has_insn g (function HConst (1, 42) -> true | _ -> false)));
    Alcotest.test_case "simplify collapses same-target if" `Quick (fun () ->
        let g = graph [ Ifz (Eq, 0, 1); Return (Some 0) ] in
        ignore (Passes.simplify_branches g);
        match g.blocks.(0).term with
        | TGoto _ -> ()
        | t -> Alcotest.failf "expected goto, got %s" (term_to_string t));
    Alcotest.test_case "simplify drops unreachable blocks" `Quick (fun () ->
        let g =
          graph
            [ Const (0, 0); Ifz (Eq, 0, 4); Return (Some 0); Return (Some 0);
              Return (Some 0) ]
        in
        ignore (Passes.const_fold g);
        ignore (Passes.simplify_branches g);
        verify g;
        Alcotest.(check bool) "fewer blocks" true (Array.length g.blocks <= 3));
    Alcotest.test_case "optimize reaches fixpoint and verifies" `Quick
      (fun () ->
        let g =
          graph
            [ Const (0, 2); Const (1, 3); Binop (Add, 2, 0, 1);
              Move (3, 2); Binop (Mul, 4, 3, 3); Ifz (Eq, 4, 8);
              Const (5, 1); Return (Some 5); Const (5, 0); Return (Some 5) ]
        in
        let rounds = Passes.optimize g in
        verify g;
        Alcotest.(check bool) "terminates" true (rounds <= 8);
        (* 2+3=5, 5*5=25, ifz eq 25 is false -> falls to const 1 branch *)
        Alcotest.(check bool) "branch resolved" true
          (Array.for_all
             (fun b -> match b.term with TIfz _ | TIf _ -> false | _ -> true)
             g.blocks));
    Alcotest.test_case "native method has no blocks" `Quick (fun () ->
        let m =
          { name = { class_name = "t"; method_name = "n" };
            num_params = 1; num_vregs = 1; is_native = true; is_entry = false;
            insns = [||] }
        in
        let g = of_method m in
        Alcotest.(check int) "blocks" 0 (Array.length g.blocks);
        Alcotest.(check int) "optimize no-op" 0 (Passes.optimize g))
  ]

(* The optimized IR of every method of the evaluation apps, digested. It
   pins the pass pipeline's output before codegen and layout, which could
   otherwise hide an IR change behind identical OAT bytes. *)
let ir_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun p ->
      let a = Calibro_workload.Appgen.generate p in
      List.iter
        (fun m ->
          let g = of_method m in
          ignore (Passes.optimize g);
          Buffer.add_string buf (to_string g))
        (methods_of_apk a.Calibro_workload.Appgen.app))
    Calibro_workload.Apps.all;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden =
  [ Alcotest.test_case "optimized IR of the evaluation apps is pinned" `Quick
      (fun () ->
        Alcotest.(check string) "IR digest" "c152cfa8ef54b5c8f62133b9fa67a615"
          (ir_digest ())) ]
(* A graph whose input breaks [verify] must fail as the typed
   [Pass_error], not as an array index out of bounds inside a pass. *)
let raises_pass_error g =
  match Passes.optimize g with
  | _ -> Alcotest.fail "optimize accepted an invalid graph"
  | exception Passes.Pass_error msg ->
    Alcotest.(check bool) msg true
      (Astring.String.is_infix ~affix:"invalid input graph" msg)

let dexsim_of_method ~regs body =
  Printf.sprintf
    ".apk a\n.dex d\n.class c\n.method m params #1 regs #%d entry\n%s.end\n"
    regs body

let typed_failure =
  [ Alcotest.test_case "optimize types an out-of-range vreg as Pass_error"
      `Quick (fun () ->
        raises_pass_error
          (graph ~vregs:2 [ Const (5, 1); Return (Some 5) ]);
        raises_pass_error (graph ~vregs:2 [ Move (1, -1); Return (Some 1) ]);
        raises_pass_error (graph ~vregs:2 [ Ifz (Eq, 7, 0); Return None ]));
    Alcotest.test_case "an out-of-range vreg fails only its own request"
      `Quick (fun () ->
        let module Protocol = Calibro_server.Protocol in
        let module Worker = Calibro_server.Worker in
        let request dexsim =
          { Protocol.rq_config = Calibro_core.Config.baseline;
            rq_dexsim = dexsim; rq_profile = None; rq_deadline_ms = None;
            rq_dict = None; rq_shelve = None }
        in
        (* The checker rejects the method before HGraph construction, so
           the worker answers with a typed rejection naming the register. *)
        (match
           Worker.build_response ~cache:None
             (request
                (dexsim_of_method ~regs:2 "  const v5, #1\n  return v5\n"))
         with
         | Protocol.Rejected (Protocol.Build_failed msg) ->
           Alcotest.(check bool) msg true
             (Astring.String.is_infix ~affix:"v5 out of range" msg)
         | Protocol.Rejected r ->
           Alcotest.failf "expected Build_failed, got %s"
             (Protocol.rejection_to_string r)
         | _ -> Alcotest.fail "an out-of-range vreg built");
        match
          Worker.build_response ~cache:None
            (request
               (dexsim_of_method ~regs:2
                  "  add v1, v0, #1\n  return v1\n"))
        with
        | Protocol.Built _ -> ()
        | Protocol.Rejected r ->
          Alcotest.failf "the next request failed: %s"
            (Protocol.rejection_to_string r)
        | _ -> Alcotest.fail "the next request got a non-build answer") ]

(* Liveness is kept in words of 62 registers. For each register count,
   the top register (in the top word) is live only around the loop's
   back-edge and its decrement must survive; its dead store after the
   loop must go. *)
let dce_edges =
  [ Alcotest.test_case "dce with no registers" `Quick (fun () ->
        let g = graph ~vregs:0 [ Goto 1; Return None ] in
        Alcotest.(check bool) "nothing to drop" false (Passes.dce g);
        verify g);
    Alcotest.test_case "dce keeps the top bitset word live across a back-edge"
      `Quick (fun () ->
        List.iter
          (fun nv ->
            let r = nv - 1 in
            let g =
              graph ~vregs:nv
                [ Const (r, 3);                  (* B0 *)
                  Ifz (Eq, r, 4);                (* B1: loop header *)
                  Binop_lit (Sub, r, r, 1);      (* B2: live via back-edge *)
                  Goto 1;
                  Const (r, 99); Return None ]   (* B3: dead store *)
            in
            ignore (Passes.dce g);
            verify g;
            let name = Printf.sprintf "%d regs: " nv in
            Alcotest.(check bool) (name ^ "decrement kept") true
              (has_insn g (function
                 | HBinop_lit (Sub, d, a, 1) -> d = r && a = r
                 | _ -> false));
            Alcotest.(check bool) (name ^ "initial value kept") true
              (has_insn g (function HConst (d, 3) -> d = r | _ -> false));
            Alcotest.(check bool) (name ^ "dead store dropped") false
              (has_insn g (function HConst (_, 99) -> true | _ -> false)))
          [ 1; 62; 63; 64; 130 ]) ]

let local_passes =
  [ Alcotest.test_case "copy_prop: killing the source ends a copy chain"
      `Quick (fun () ->
        let g =
          graph
            [ Move (1, 0);            (* v1 = v0 *)
              Move (2, 1);            (* v2 = v1, forwarded to v0 *)
              Const (0, 9);           (* v0 redefined: both copies stale *)
              Binop (Add, 3, 1, 2);
              Return (Some 3) ]
        in
        ignore (Passes.copy_prop g);
        Alcotest.(check bool) "chain forwarded" true
          (has_insn g (function HMove (2, 0) -> true | _ -> false));
        Alcotest.(check bool) "stale copies not used" true
          (has_insn g (function HBinop (Add, 3, 1, 2) -> true | _ -> false)));
    Alcotest.test_case "cse drops only the expressions an operand kills"
      `Quick (fun () ->
        let g =
          graph
            [ Binop_lit (Add, 2, 0, 5);
              Binop (Add, 3, 0, 1);
              Const (1, 7);             (* second operand of v3 redefined *)
              Binop (Add, 4, 0, 1);
              Binop_lit (Add, 5, 0, 5); (* does not read v1: still there *)
              Return (Some 4) ]
        in
        ignore (Passes.cse g);
        Alcotest.(check bool) "killed expression recomputed" true
          (has_insn g (function HBinop (Add, 4, 0, 1) -> true | _ -> false));
        Alcotest.(check bool) "other expression reused" true
          (has_insn g (function HMove (5, 2) -> true | _ -> false)));
    Alcotest.test_case "cse moves an expression to its new holder" `Quick
      (fun () ->
        let g =
          graph
            [ Binop (Add, 2, 0, 1);
              Binop (Add, 2, 0, 1);  (* same key, same holder *)
              Binop (Add, 3, 0, 1);
              Const (2, 0);          (* holder v2 redefined *)
              Binop (Add, 4, 0, 1);  (* no holder left: v4 holds it now *)
              Binop (Add, 5, 0, 1);
              Return (Some 5) ]
        in
        ignore (Passes.cse g);
        Alcotest.(check bool) "same holder kept" true
          (has_insn g (function HMove (3, 2) -> true | _ -> false));
        Alcotest.(check bool) "recomputed after the holder died" true
          (has_insn g (function HBinop (Add, 4, 0, 1) -> true | _ -> false));
        Alcotest.(check bool) "new holder used" true
          (has_insn g (function HMove (5, 4) -> true | _ -> false))) ]

let suite = basics @ typed_failure @ dce_edges @ local_passes @ golden
