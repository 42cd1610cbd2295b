(* The CI perf gate as one declarative table.

   Every number committed to bench/baseline.json is one [row]: a JSON
   path, the value measured this run, a direction and a [kind]. The kind
   fixes both halves of the row's life:
   - [baseline] derives the value to commit from the measurement;
   - [gate] derives the limit from the committed value and judges the
     measurement against it.
   The two commands are two folds over the same rows, so a number cannot
   be written one way and judged another. The rows themselves are listed
   in [Harness.rows]; this module knows nothing about what they measure.

   Correctness checks (byte identity, a failover that happened, a
   re-link that happened once) are not budgets: both folds enforce the
   same list of them whatever the baseline says. *)

module Json = Calibro_obs.Json

type dir =
  | Floor  (* the measurement may not fall below the limit *)
  | Ceiling  (* the measurement may not rise above the limit *)

type kind =
  | Record
      (* Committed as measured, never judged: the text sizes behind a
         reduction, the detection workload's element count, the schema. *)
  | Exact
      (* A deterministic count (bytes, words, cache hits): committed as
         measured, judged against the committed value itself. *)
  | Near
      (* A deterministic ratio: committed as measured, judged within a
         thousandth, which only absorbs float formatting. *)
  | Near_rounded
      (* A deterministic ratio committed rounded to thousandths and
         widened by one thousandth; judged against the committed value. *)
  | Wall of int
      (* Machine-dependent: committed as measured/3 (floor) or measured*3
         (ceiling), rounded to this many decimals, so slower machines
         still pass; fails below 0.75x the floor or above 1.25x the
         envelope, so a real blow-up does not. *)
  | Half of int
      (* Racy, or shrinkable by a legitimate change, but must stay
         positive: committed as half the measurement, rounded to this
         many decimals (integers halve exactly); judged against the
         committed value. *)
  | Const of float
      (* A fixed envelope (the paper's Table 7 bound), whatever was
         measured. *)
  | Same_run of float
      (* Nothing committed: the limit is another measurement of the same
         run, so no cross-machine slack applies. *)

type value = I of int | F of float

type row = {
  label : string;  (* what the verdict line and failures call the row *)
  path : string list;  (* in baseline.json; [] for [Same_run] *)
  dir : dir;
  kind : kind;
  measured : value;
}

let row ?(dir = Floor) kind path label measured =
  { label; path; dir; kind; measured }

let near_tolerance = 0.001
let wall_slack = 3.0

let to_float = function I n -> float_of_int n | F f -> f

let json = function I n -> Json.Int n | F f -> Json.Float f

let path_name p = String.concat "." p

let round digits x =
  let scale = 10. ** float_of_int digits in
  Float.round (x *. scale) /. scale

(* The deterministic kinds: their committed value is a fact about the
   code, so [baseline] refuses to loosen it. *)
let exact = function Exact | Near | Near_rounded -> true | _ -> false

(* Same representation as the measurement: integer rows stay integers. *)
let like v x = match v with I _ -> I (int_of_float x) | F _ -> F x

let commit r : value option =
  let m = to_float r.measured and floor = r.dir = Floor in
  match r.kind with
  | Record | Exact | Near -> Some r.measured
  | Near_rounded ->
    let unit = if floor then -1. else 1. in
    Some (like r.measured ((Float.round (m *. 1000.) +. unit) /. 1000.))
  | Wall d ->
    Some
      (like r.measured
         (round d (if floor then m /. wall_slack else m *. wall_slack)))
  | Half d -> (
    match r.measured with
    | I n -> Some (I (n / 2))
    | F f -> Some (F (round d (f /. 2.))))
  | Const c -> Some (like r.measured c)
  | Same_run _ -> None

let limit r ~committed =
  let floor = r.dir = Floor in
  match r.kind with
  | Near ->
    if floor then committed -. near_tolerance else committed +. near_tolerance
  | Wall _ -> if floor then committed *. 0.75 else committed *. 1.25
  | Same_run l -> l
  | Record | Exact | Near_rounded | Half _ | Const _ -> committed

let passes r ~limit =
  let m = to_float r.measured in
  match r.dir with Floor -> m >= limit | Ceiling -> m <= limit

(* A new committed value that makes the row easier to pass. *)
let loosens r ~old ~fresh =
  match r.dir with Floor -> fresh < old | Ceiling -> fresh > old

let lookup doc path =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some doc) path

let rec leaves prefix = function
  | Json.Obj fields ->
    List.concat_map (fun (k, v) -> leaves (prefix @ [ k ]) v) fields
  | _ -> [ prefix ]

(* Insert [v] at [path], keeping first-insertion order of every key. *)
let rec insert fields path v =
  match path with
  | [] -> fields
  | [ k ] -> fields @ [ (k, v) ]
  | k :: rest -> (
    match List.assoc_opt k fields with
    | Some (Json.Obj sub) ->
      List.map
        (fun (k', x) ->
          if k' = k then (k, Json.Obj (insert sub rest v)) else (k', x))
        fields
    | _ -> fields @ [ (k, Json.Obj (insert [] rest v)) ])

(* The rows' values as one JSON tree at their paths: [commit] gives the
   baseline document, the measurements give the metrics export. *)
let tree value rows =
  Json.Obj
    (List.fold_left
       (fun acc r ->
         match (r.path, value r) with
         | [], _ | _, None -> acc
         | path, Some v -> insert acc path (json v))
       [] rows)

(* Printed figures: integers and large floats to the unit, the rest to
   five significant digits. *)
let show x =
  if Float.is_integer x || Float.abs x >= 1000. then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.5g" x

let failed_checks checks =
  List.filter_map (fun (what, ok) -> if ok then None else Some what) checks

(* ---- gate: judge a measurement against a committed baseline ---------- *)

(* One verdict line per judged row, and the failure messages (empty =
   pass). A row the baseline lacks and a baseline number no row measures
   both fail by name, so missing data can never pass silently. *)
let gate ~checks doc rows : string list * string list =
  let verdict r =
    let name = path_name r.path in
    let bound =
      match (r.kind, lookup doc r.path) with
      | Record, Some _ -> `Skip
      | Same_run l, _ -> `Limit (l, "same-run")
      | _, None -> `Missing ("baseline has no " ^ name)
      | _, Some c -> (
        match Json.get_float c with
        | None -> `Missing (Printf.sprintf "baseline %s is not a number" name)
        | Some c -> `Limit (limit r ~committed:c, name ^ " " ^ show c))
    in
    match bound with
    | `Skip -> (None, None)
    | `Missing m ->
      (Some (Printf.sprintf "  %-42s FAIL (%s)" r.label m), Some m)
    | `Limit (l, against) ->
      let ok = passes r ~limit:l and m = show (to_float r.measured) in
      ( Some
          (Printf.sprintf "  %-42s %10s (%s, limit %s)  %s" r.label m against
             (show l) (if ok then "ok" else "FAIL")),
        if ok then None
        else
          Some
            (Printf.sprintf "%s %s is %s the limit %s (%s)" r.label m
               (if r.dir = Floor then "below" else "above")
               (show l) against) )
  in
  let verdicts = List.map verdict rows in
  let unmeasured =
    List.filter_map
      (fun p ->
        if List.exists (fun r -> r.path = p) rows then None
        else
          Some
            (Printf.sprintf "baseline has %s, which no gate row measures"
               (path_name p)))
      (leaves [] doc)
  in
  let broken = failed_checks checks in
  let check_line =
    Printf.sprintf "  correctness: %d of %d checks hold  %s"
      (List.length checks - List.length broken)
      (List.length checks)
      (if broken = [] then "ok" else "FAIL")
  in
  ( List.filter_map fst verdicts @ [ check_line ],
    broken @ List.filter_map snd verdicts @ unmeasured )

(* ---- baseline: derive the committed document from a measurement ----- *)

(* [Ok (doc, loosened)] is the document to write and one note per
   non-exact bound it loosens against [old]; [Error] lists every failed
   correctness check and every exact row the measurement would loosen.
   A deliberate loosening of an exact row is a hand edit of the file. *)
let baseline ~checks ~old rows : (Json.t * string list, string list) result =
  let doc = tree commit rows in
  (* Compare committed values as written, after the JSON float format. *)
  let written path d =
    Option.bind (lookup d path) (fun v ->
        Option.bind
          (Result.to_option (Json.parse (Json.to_string v)))
          Json.get_float)
  in
  let moves =
    List.filter_map
      (fun r ->
        match (r.kind, old) with
        | (Record | Same_run _), _ | _, None -> None
        | _, Some old -> (
          match (written r.path old, written r.path doc) with
          | Some o, Some f when loosens r ~old:o ~fresh:f ->
            Some
              ( exact r.kind,
                Printf.sprintf "%s %s -> %s" (path_name r.path) (show o)
                  (show f) )
          | _ -> None))
      rows
  in
  let refused, loosened = List.partition fst moves in
  match
    failed_checks checks
    @ List.map (fun (_, m) -> "refusing to loosen the exact row " ^ m) refused
  with
  | [] -> Ok (doc, List.map (fun (_, m) -> "loosened " ^ m) loosened)
  | errors -> Error errors
