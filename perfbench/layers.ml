(* The per-layer figures of a traced run, recorded through the program's
   own observability instruments ({!Calibro_obs.Obs}) from the benchmark's
   files only: the program under test gains no instrumentation for the
   benchmark.

   - Build-, phase- and group-level boundaries are [Obs.span]s of category
     "perfbench", each carrying its own id, its parent's id (0 at the root)
     and the id of the build it belongs to in its args. [write] exports
     them, with the program's own spans, as a Chrome trace.
   - Per-method boundaries (HGraph construction, each IR pass, codegen,
     cache key and lookup), which run thousands of times per build, are
     [Obs.Histogram] observations ([time]); counts are [Obs.Counter]s.

   Sequence mapping, suffix-tree build and repeat fold run inside
   [Ltbo.detect], and the per-group times inside [Parallel.detect_parallel];
   their figures are read from the spans the program already records
   ([ltbo.map_sequence], [ltbo.tree_build], [ltbo.fold_repeats],
   [plopti.detect_group]).

   Obs records from program start, so the workloads call [Obs.reset]
   after their untraced half, and take [Obs.events] right after the traced
   half: the checks that follow call Pipeline.build, whose detection spans
   would count. *)

module Obs = Calibro_obs.Obs
module Json = Calibro_obs.Json
module Clock = Calibro_obs.Clock

let cat = "perfbench"

(* ---- Recording ---------------------------------------------------------- *)

(* Per domain: the open benchmark spans, innermost first, and the current
   build's id. Serve's two client threads share one domain and record
   under a lock. *)
type ctx = { mutable stack : int list; mutable build : int }

let ctx_key = Domain.DLS.new_key (fun () -> { stack = []; build = 0 })
let next_id = Atomic.make 1

let span name f =
  let c = Domain.DLS.get ctx_key in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match c.stack with p :: _ -> p | [] -> 0 in
  let build = c.build in
  c.stack <- id :: c.stack;
  Fun.protect
    ~finally:(fun () -> c.stack <- List.tl c.stack)
    (fun () ->
      Obs.span ~cat
        ~args:(fun () ->
          [ ("id", Json.Int id); ("parent", Json.Int parent);
            ("build", Json.Int build) ])
        name f)

(* One build: a fresh build id shared by every span it opens. Nested in
   another build (serve's job around its replayed build) it is part of
   that one. *)
let build name f =
  let c = Domain.DLS.get ctx_key in
  if c.stack = [] then begin
    c.build <- Atomic.fetch_and_add next_id 1;
    Obs.Counter.incr "perfbench.builds"
  end;
  span name f

let time name f =
  let t0 = Clock.now_ns () in
  let r = f () in
  Obs.Histogram.observe name (Clock.since_s t0);
  r

let write path = Obs.export ~metrics:None ~trace:(Some path) ()

(* ---- Reading (after every load domain has joined) ----------------------- *)

let ratio a b = if b > 0.0 then a /. b else 0.0

let total name =
  match Obs.Histogram.summary name with
  | Some s -> float_of_int s.Obs.Histogram.count *. s.Obs.Histogram.mean
  | None -> 0.0

let counter name = float_of_int (Obs.Counter.value name)

let dur_s (e : Obs.span_event) = Int64.to_float e.Obs.ev_dur_ns /. 1e9

let span_total events ~cat:c name =
  List.fold_left
    (fun acc (e : Obs.span_event) ->
      if e.Obs.ev_cat = c && e.Obs.ev_name = name then acc +. dur_s e else acc)
    0.0 events

(* Detection groups per build: the [plopti.detect_group] spans inside each
   of the benchmark's [ltbo.detect] spans, or, where detection ran as one
   global group (no such span inside), the detect span itself. A group
   run on a PlOpti worker domain is matched by time alone; with two load
   domains detecting at once that can credit it to the other build, which
   only happens where [Parallel.detect_parallel] spawns workers (more than
   2 cores). Returns (groups, per-build longest group, group time). *)
let group_figures events =
  let inside (outer : Obs.span_event) (e : Obs.span_event) =
    e.Obs.ev_start_ns >= outer.Obs.ev_start_ns
    && Int64.add e.Obs.ev_start_ns e.Obs.ev_dur_ns
       <= Int64.add outer.Obs.ev_start_ns outer.Obs.ev_dur_ns
  in
  let detects, groups =
    List.fold_left
      (fun (ds, gs) (e : Obs.span_event) ->
        if e.Obs.ev_cat = cat && e.Obs.ev_name = "ltbo.detect" then (e :: ds, gs)
        else if e.Obs.ev_name = "plopti.detect_group" then (ds, e :: gs)
        else (ds, gs))
      ([], []) events
  in
  let owner (g : Obs.span_event) =
    let candidates = List.filter (fun d -> inside d g) detects in
    match List.find_opt (fun d -> d.Obs.ev_tid = g.Obs.ev_tid) candidates with
    | Some d -> Some d
    | None -> List.nth_opt candidates 0
  in
  let per_detect = Hashtbl.create 64 in
  List.iter
    (fun g ->
      Option.iter
        (fun (d : Obs.span_event) ->
          let key = (d.Obs.ev_tid, d.Obs.ev_start_ns) in
          Hashtbl.replace per_detect key
            (dur_s g :: Option.value ~default:[] (Hashtbl.find_opt per_detect key)))
        (owner g))
    groups;
  List.fold_left
    (fun (n, maxes, sum) (d : Obs.span_event) ->
      let times =
        match Hashtbl.find_opt per_detect (d.Obs.ev_tid, d.Obs.ev_start_ns) with
        | Some ts -> ts
        | None -> [ dur_s d ]
      in
      ( n + List.length times,
        maxes +. List.fold_left max 0.0 times,
        sum +. List.fold_left ( +. ) 0.0 times ))
    (0, 0.0, 0.0) detects

(* Elements mapped per second of suffix-tree construction, from the
   program's [ltbo.tree_build] spans and their element counts. *)
let elements_per_s events =
  let elements, secs =
    List.fold_left
      (fun (n, s) (e : Obs.span_event) ->
        if e.Obs.ev_name = "ltbo.tree_build" then
          match List.assoc_opt "sequence_elements" e.Obs.ev_args with
          | Some (Json.Int k) -> (n + k, s +. dur_s e)
          | _ -> (n, s +. dur_s e)
        else (n, s))
      (0, 0.0) events
  in
  ratio (float_of_int elements) secs

(* ---- The metrics -------------------------------------------------------- *)

(* Times and counts are per replayed build (server figures per request,
   VM figures per script replay); ratios carry their base as a separate
   count. Every workload prints the full list; a layer a workload does not
   exercise reads 0. *)

type source =
  | Hist  (* an Obs histogram total *)
  | Count  (* an Obs counter *)
  | Span of string * string  (* total time of (category, span name) *)

let per_build = [
  ("dex.check_s", "s", Span (cat, "dex.check"));
  ("dex.parse_s", "s", Span (cat, "dex.parse"));
  ("hgraph.build_s", "s", Hist); ("hgraph.passes_s", "s", Hist);
  ("hgraph.const_fold_s", "s", Hist); ("hgraph.copy_prop_s", "s", Hist);
  ("hgraph.cse_s", "s", Hist); ("hgraph.dce_s", "s", Hist);
  ("hgraph.simplify_branches_s", "s", Hist);
  ("hgraph.alloc_words", "words", Count); ("hgraph.nodes_out", "count", Count);
  ("codegen.s", "s", Hist); ("codegen.insns", "count", Count);
  ("codegen.cto_hits", "count", Count);
  ("cache.key_s", "s", Hist); ("cache.lookup_s", "s", Hist);
  ("cache.store_s", "s", Hist);
  ("ltbo.map_sequence_s", "s", Span ("ltbo", "ltbo.map_sequence"));
  ("ltbo.detect_s", "s", Span (cat, "ltbo.detect"));
  ("ltbo.rewrite_s", "s", Span (cat, "ltbo.rewrite"));
  ("ltbo.sequence_elements", "count", Count);
  ("ltbo.repeats_considered", "count", Count);
  ("ltbo.outlined_functions", "count", Count);
  ("ltbo.occurrences_replaced", "count", Count);
  ("suffix_tree.build_s", "s", Span ("ltbo", "ltbo.tree_build"));
  ("suffix_tree.fold_s", "s", Span ("ltbo", "ltbo.fold_repeats"));
  ("suffix_tree.nodes", "count", Count);
  ("oat.link_s", "s", Span (cat, "oat.link"));
  ("oat.emit_s", "s", Span (cat, "oat.emit"));
  ("oat.container_bytes", "bytes", Count) ]

let per_request = [
  ("server.send_s", "s", Hist); ("server.wait_s", "s", Hist);
  ("server.request_bytes", "bytes", Count);
  ("server.response_bytes", "bytes", Count) ]

let per_replay = [
  ("vm.replay_s", "s", Hist); ("vm.instructions", "count", Count);
  ("vm.cycles", "cycles", Count) ]

(* Daemon-side figures, read from calibrod's --metrics export (serve). *)
let daemon_names = [
  ("server.daemon_job_s", "s"); ("server.daemon_queue_wait_s", "s");
  ("server.daemon_alloc_bytes_per_build", "bytes");
  ("server.daemon_method_hit_ratio", "ratio");
  ("server.daemon_detect_hit_ratio", "ratio");
  ("server.daemon_stores", "count") ]

(* [events]: the spans of the traced half; [lost_writes]:
   cache entries the workload's disk writes lost (see
   {!Common.lost_writes}). *)
let metrics ?(daemon = []) ?(lost_writes = 0) ~events ~disk_bytes ~overhead
    () : Common.metric list =
  let value (name, _, src) =
    match src with
    | Hist -> total name
    | Count -> counter name
    | Span (c, n) -> span_total events ~cat:c n
  in
  let over base ((name, unit, _) as m) = (name, ratio (value m) base, unit) in
  let builds = counter "perfbench.builds" in
  let groups, group_max, group_sum = group_figures events in
  List.map (over builds) per_build
  @ [ ("plopti.groups", ratio (float_of_int groups) builds, "count");
      ("plopti.group_max_s", ratio group_max builds, "s");
      ("plopti.group_mean_s", ratio group_sum (float_of_int groups), "s");
      ("suffix_tree.elements_per_s", elements_per_s events, "1/s");
      ("cache.method_hit_ratio",
       ratio (counter "cache.method_hits") (counter "cache.method_lookups"),
       "ratio");
      ("cache.method_lookups", counter "cache.method_lookups", "count");
      ("cache.detect_hit_ratio",
       ratio (counter "cache.detect_hits") (counter "cache.detect_lookups"),
       "ratio");
      ("cache.detect_lookups", counter "cache.detect_lookups", "count");
      ("cache.disk_bytes", float_of_int disk_bytes, "bytes");
      ("cache.lost_writes", float_of_int lost_writes, "count") ]
  @ List.map (over (counter "vm.replays")) per_replay
  @ List.map (over (counter "server.requests")) per_request
  @ [ ("server.rejected", counter "server.rejected", "count") ]
  @ List.map
      (fun (name, unit) ->
        (name, Option.value ~default:0.0 (List.assoc_opt name daemon), unit))
      daemon_names
  @ [ ("obs.traced_builds", builds, "count");
      ("obs.trace_overhead_ratio", overhead, "ratio") ]
