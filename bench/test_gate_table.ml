(* The gate table's two folds, without a measurement: every kind judged
   just inside and just outside its limit, the committed value each kind
   derives, missing data failing by name, a doctored baseline failing
   exactly the doctored row, and the baseline writer refusing to loosen
   an exact row while writing tightenings through. *)

module Json = Calibro_obs.Json
open Gate_table

let rec set doc path v =
  match (path, doc) with
  | [], _ -> v
  | k :: rest, Json.Obj fields ->
    Json.Obj
      (List.map (fun (k', x) -> if k' = k then (k, set x rest v) else (k', x)) fields)
  | _ -> Alcotest.fail "set: path leaves the object tree"

let judge ?(checks = []) doc rows = snd (gate ~checks doc rows)

(* One row against one committed value: the failure messages. *)
let against ?dir kind ~committed measured =
  let r = row ?dir kind [ "x" ] "x" measured in
  judge (Json.Obj [ ("x", json committed) ]) [ r ]

let check_limit name ?dir kind ~committed ~inside ~outside =
  Alcotest.(check int) (name ^ " inside") 0
    (List.length (against ?dir kind ~committed inside));
  Alcotest.(check int) (name ^ " outside") 1
    (List.length (against ?dir kind ~committed outside))

let test_kinds_at_their_limits () =
  check_limit "exact floor" Exact ~committed:(I 100) ~inside:(I 100)
    ~outside:(I 99);
  check_limit "exact ceiling" ~dir:Ceiling Exact ~committed:(I 100)
    ~inside:(I 100) ~outside:(I 101);
  check_limit "near floor" Near ~committed:(F 0.2) ~inside:(F 0.1991)
    ~outside:(F 0.1989);
  check_limit "near-rounded ceiling" ~dir:Ceiling Near_rounded
    ~committed:(F 2.091) ~inside:(F 2.091) ~outside:(F 2.0911);
  check_limit "near-rounded floor" Near_rounded ~committed:(F 0.921)
    ~inside:(F 0.921) ~outside:(F 0.9209);
  check_limit "wall floor" (Wall 2) ~committed:(F 8.) ~inside:(F 6.)
    ~outside:(F 5.99);
  check_limit "wall ceiling" ~dir:Ceiling (Wall 3) ~committed:(F 4.)
    ~inside:(F 5.) ~outside:(F 5.01);
  check_limit "half floor" (Half 2) ~committed:(F 0.77) ~inside:(F 0.77)
    ~outside:(F 0.769);
  check_limit "half int floor" (Half 0) ~committed:(I 790) ~inside:(I 790)
    ~outside:(I 789);
  check_limit "constant ceiling" ~dir:Ceiling (Const 4.6) ~committed:(F 4.6)
    ~inside:(F 4.6) ~outside:(F 4.61);
  Alcotest.(check int) "record is never judged" 0
    (List.length (against Record ~committed:(I 1) (I 7)));
  let same_run m = judge (Json.Obj []) [ row (Same_run 10.) [] "s" (F m) ] in
  Alcotest.(check int) "same-run inside" 0 (List.length (same_run 10.));
  Alcotest.(check int) "same-run outside" 1 (List.length (same_run 9.99))

let committed ?dir kind measured =
  commit (row ?dir kind [ "x" ] "x" measured)

let value =
  Alcotest.testable
    (fun ppf v ->
      match v with
      | I n -> Format.fprintf ppf "I %d" n
      | F f -> Format.fprintf ppf "F %.17g" f)
    ( = )

let test_commit_derivations () =
  let c name expect got = Alcotest.(check (option value)) name expect got in
  c "exact" (Some (I 25528)) (committed Exact (I 25528));
  c "near keeps the measurement" (Some (F 0.1977293508))
    (committed Near (F 0.1977293508));
  c "near-rounded ceiling widens up" (Some (F 2.091))
    (committed ~dir:Ceiling Near_rounded (F 2.0903));
  c "near-rounded floor widens down" (Some (F 0.921))
    (committed Near_rounded (F 0.9224));
  c "wall floor is a third" (Some (F 8.63)) (committed (Wall 2) (F 25.9));
  c "wall floor to the unit" (Some (F 108996.)) (committed (Wall 0) (F 326987.));
  c "wall ceiling is thrice" (Some (F 0.657))
    (committed ~dir:Ceiling (Wall 3) (F 0.219));
  c "half float" (Some (F 0.77)) (committed (Half 2) (F 1.54));
  c "half int" (Some (I 790)) (committed (Half 0) (I 1581));
  c "constant" (Some (F 4.6)) (committed ~dir:Ceiling (Const 4.6) (F 0.));
  c "same-run commits nothing" None (committed (Same_run 3.) (F 4.));
  c "record" (Some (I 151168)) (committed Record (I 151168))

(* A table with one row of every kind, the shape of bench/baseline.json. *)
let table ?(speedup = 5.2) ?(words = 1000) ?(saved = 25528)
    ?(reduction = 0.1977) ?(cycles = 2.0903) () =
  [ row Record [ "schema" ] "" (I 1);
    row Record [ "apps"; "A"; "text_base" ] "" (I 4000);
    row Near [ "apps"; "A"; "reduction_pl" ] "A reduction" (F reduction);
    row Near [ "apps"; "B"; "reduction_pl" ] "B reduction" (F 0.18);
    row ~dir:Ceiling (Wall 2) [ "build_time_envelope_s" ] "build time" (F 2.);
    row ~dir:Ceiling Exact [ "hgraph"; "words" ] "IR words" (I words);
    row (Wall 2) [ "incr"; "speedup" ] "incr speedup" (F speedup);
    row (Same_run 10.) [] "fleet vs serve" (F 20.);
    row Exact [ "store"; "saved" ] "store saved" (I saved);
    row (Half 2) [ "pgo"; "stale" ] "pgo stale" (F 1.54);
    row ~dir:Ceiling (Const 4.6) [ "pgo"; "relinked" ] "pgo relinked" (F 0.);
    row ~dir:Ceiling Near_rounded [ "train"; "cycles" ] "train cycles"
      (F cycles);
    row Near_rounded [ "train"; "incr_hit" ] "train incr hits" (F 0.9224);
    row (Half 0) [ "train"; "hits" ] "train hits" (I 1581) ]

let derived rows =
  match baseline ~checks:[] ~old:None rows with
  | Ok (doc, []) -> doc
  | Ok (_, l) -> Alcotest.failf "fresh baseline loosened: %s" (String.concat "; " l)
  | Error e -> Alcotest.failf "fresh baseline refused: %s" (String.concat "; " e)

let test_doctored_row_fails_alone () =
  let rows = table () in
  let doc = derived rows in
  Alcotest.(check (list string)) "own baseline passes" [] (judge doc rows);
  Alcotest.(check (list string)) "written in table order"
    (List.filter_map (fun r -> if r.path = [] then None else Some (path_name r.path)) rows)
    (match Json.parse (Json.to_string doc) with
     | Ok d -> List.map path_name (leaves [] d)
     | Error e -> Alcotest.fail e);
  List.iter
    (fun r ->
      match r.kind with
      | Record | Same_run _ -> ()
      | _ ->
        let m = to_float r.measured in
        let past =
          if r.dir = Floor then F ((10. *. m) +. 10.) else F (-.(m +. 10.))
        in
        match judge (set doc r.path (json past)) rows with
        | [ msg ] ->
          Alcotest.(check bool)
            (Printf.sprintf "%s failure names it: %s" r.label msg)
            true
            (String.starts_with ~prefix:r.label msg)
        | l ->
          Alcotest.failf "doctoring %s failed %d rows: %s" (path_name r.path)
            (List.length l) (String.concat "; " l))
    rows

let test_missing_data_fails_by_name () =
  let rows = table () in
  let doc = derived rows in
  let drop path doc =
    let rec go path doc =
      match (path, doc) with
      | [ k ], Json.Obj fields -> Json.Obj (List.remove_assoc k fields)
      | k :: rest, Json.Obj fields ->
        Json.Obj (List.map (fun (k', x) -> if k' = k then (k, go rest x) else (k', x)) fields)
      | _ -> doc
    in
    go path doc
  in
  Alcotest.(check (list string)) "row missing from the baseline"
    [ "baseline has no apps.B.reduction_pl" ]
    (judge (drop [ "apps"; "B"; "reduction_pl" ] doc) rows);
  Alcotest.(check (list string)) "app missing from the measurement"
    [ "baseline has apps.B.reduction_pl, which no gate row measures" ]
    (judge doc
       (List.filter (fun r -> r.path <> [ "apps"; "B"; "reduction_pl" ]) rows));
  Alcotest.(check (list string)) "a non-number committed value"
    [ "baseline store.saved is not a number" ]
    (judge (set doc [ "store"; "saved" ] (Json.Str "25528")) rows);
  Alcotest.(check (list string)) "a failed correctness check"
    [ "bytes differ" ]
    (judge ~checks:[ ("bytes differ", false); ("fine", true) ] doc rows)

let test_writer_guards_exact_rows () =
  let old = derived (table ()) in
  let expect_refused name rows path =
    match baseline ~checks:[] ~old:(Some old) rows with
    | Error [ msg ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%s refusal names %s: %s" name path msg)
        true
        (Astring.String.is_infix ~affix:path msg)
    | Error l -> Alcotest.failf "%s: %d refusals" name (List.length l)
    | Ok _ -> Alcotest.failf "%s: loosening written" name
  in
  let expect_written name rows path v =
    match baseline ~checks:[] ~old:(Some old) rows with
    | Ok (doc, []) ->
      Alcotest.(check (option (float 0.)))
        (name ^ " written through") (Some v)
        (Option.bind (lookup doc path) Json.get_float)
    | Ok (_, l) -> Alcotest.failf "%s: loosened %s" name (String.concat "; " l)
    | Error e -> Alcotest.failf "%s: refused %s" name (String.concat "; " e)
  in
  expect_refused "IR words up" (table ~words:1001 ()) "hgraph.words";
  expect_refused "store bytes down" (table ~saved:25527 ()) "store.saved";
  expect_refused "reduction down" (table ~reduction:0.1976 ()) "apps.A.reduction_pl";
  expect_refused "cycle ratio up" (table ~cycles:2.0913 ()) "train.cycles";
  expect_written "IR words down" (table ~words:999 ()) [ "hgraph"; "words" ] 999.;
  expect_written "store bytes up" (table ~saved:26000 ()) [ "store"; "saved" ] 26000.;
  expect_written "reduction up" (table ~reduction:0.2 ())
    [ "apps"; "A"; "reduction_pl" ] 0.2;
  expect_written "cycle ratio down" (table ~cycles:2.05 ()) [ "train"; "cycles" ]
    2.051;
  (match baseline ~checks:[] ~old:(Some old) (table ~speedup:4. ()) with
   | Ok (_, [ note ]) ->
     Alcotest.(check string) "wall loosening is printed"
       "loosened incr.speedup 1.73 -> 1.33" note
   | _ -> Alcotest.fail "a wall-clock loosening is written with one note");
  match baseline ~checks:[ ("bytes differ", false) ] ~old:None (table ()) with
  | Error [ "bytes differ" ] -> ()
  | _ -> Alcotest.fail "a failed check must refuse the baseline"

let () =
  Alcotest.run "gate_table"
    [ ( "gate_table",
        [ Alcotest.test_case "each kind just inside and outside its limit"
            `Quick test_kinds_at_their_limits;
          Alcotest.test_case "committed value per kind" `Quick
            test_commit_derivations;
          Alcotest.test_case "a doctored row fails alone" `Quick
            test_doctored_row_fails_alone;
          Alcotest.test_case "missing data fails by name" `Quick
            test_missing_data_fails_by_name;
          Alcotest.test_case "baseline refuses to loosen exact rows" `Quick
            test_writer_guards_exact_rows ] ) ]
