(* Shared pieces of the three workloads: the failure tally, latency
   statistics, set-up timing, memory readings and the result line. *)

module Clock = Calibro_obs.Clock

type args = {
  seed : int;
  seconds : float;
  trace : bool;
  calibrod : string;  (* path of the daemon binary (serve) *)
  work : string;  (* scratch directory inside the checkout *)
  expected : string;  (* the committed expected-results file *)
}

(* ---- Failures, by kind ---------------------------------------------------

   raised: the build raised; mismatch: bytes differ from their reference;
   diverged: a VM replay faulted or disagreed with the expected results;
   refused: the daemon answered Rejected; transport: the connection or the
   frame failed. mismatch and diverged make the run incorrect. *)

let kinds = [ "raised"; "mismatch"; "diverged"; "refused"; "transport" ]

type tally = { attempted : int Atomic.t; failed : (string * int Atomic.t) list }

let tally () =
  { attempted = Atomic.make 0;
    failed = List.map (fun k -> (k, Atomic.make 0)) kinds }

let attempt t = Atomic.incr t.attempted

let notes = ref []
let notes_lock = Mutex.create ()

let note msg =
  Mutex.protect notes_lock (fun () ->
      if List.length !notes < 20 then notes := msg :: !notes)

let fail t kind msg =
  Atomic.incr (List.assoc kind t.failed);
  note (kind ^ ": " ^ msg)

let failed t kind = Atomic.get (List.assoc kind t.failed)

(* [f] over [xs] on two domains, the calling one included; order kept. *)
let par_map f xs =
  let n = List.length xs in
  let first = List.filteri (fun i _ -> i < n / 2) xs
  and second = List.filteri (fun i _ -> i >= n / 2) xs in
  let d = Domain.spawn (fun () -> List.map f first) in
  let rest = List.map f second in
  Domain.join d @ rest

(* The fewest timed builds or requests an untraced run measures, running
   past its seconds if need be (up to twice as long, should builds keep
   failing): the 90th percentile then has at least 10 samples beyond it. *)
let min_samples = 100

(* Whether a loop started at [t0] for [seconds] is done, having measured
   [samples]. *)
let loop_done ~t0 ~seconds ~min_samples samples =
  let elapsed = Clock.since_s t0 in
  elapsed >= seconds && (samples >= min_samples || elapsed >= 2.0 *. seconds)

(* Nearest-rank percentile. *)
let percentile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  match Array.length a with
  | 0 -> 0.0
  | n ->
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile (Array.of_list xs) 0.5

(* Builds per second, as the median over passes of [size] / pass time:
   a slow stretch of a shared machine then moves one pass, not the
   figure. [ends] holds (pass, completion time) for every build of the
   complete passes; a pass ends when its last build does and starts when
   the one before it ended, or at [t0]. *)
let pass_throughput ~size ~t0 ends =
  let last = Hashtbl.create 16 in
  List.iter
    (fun (p, t) ->
      match Hashtbl.find_opt last p with
      | Some t' when t' >= t -> ()
      | _ -> Hashtbl.replace last p t)
    ends;
  let n = Hashtbl.length last in
  let ends = Array.init n (Hashtbl.find last) in
  let durations =
    List.init n (fun p ->
        Clock.elapsed_s (if p = 0 then t0 else ends.(p - 1)) ends.(p))
  in
  float_of_int size /. median durations

(* Set up [n] times, timing each; keep the last set-up's products. The
   median of the timings is the [setup_s] metric. *)
let setup ~n f =
  let rec go i times =
    let t0 = Clock.now_ns () in
    let r = f () in
    let times = Clock.since_s t0 :: times in
    if i + 1 < n then go (i + 1) times else (r, median times)
  in
  go 0 []

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
      else find ()
  in
  let v = find () in
  close_in ic;
  v

(* Cache entries this process failed to write to disk
   ([cache.<ns>.disk_write_errors]): the entry stays in the writer's
   memory view only, so a later view misses and recompiles it. *)
let lost_writes () =
  List.fold_left
    (fun acc ns ->
      acc + Calibro_obs.Obs.Counter.value ("cache." ^ ns ^ ".disk_write_errors"))
    0 [ "method"; "detect" ]

let rm_rf path =
  if Sys.file_exists path then
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote path)))

let fresh_dir path =
  rm_rf path;
  Sys.mkdir path 0o755

let dir_bytes dir =
  let rec walk path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc f -> acc + walk (Filename.concat path f))
        0 (Sys.readdir path)
    else (Unix.stat path).Unix.st_size
  in
  if Sys.file_exists dir then walk dir else 0

(* ---- End-to-end metrics shared by every workload ---------------------- *)

type metric = string * float * string  (* name, value, unit *)

(* The sample count behind both percentiles is printed on its own line:
   as a metric it would only restate throughput. *)
let latency_metrics ~lats ~throughput : metric list =
  Printf.printf "latency samples: %d\n" (Array.length lats);
  [ ("throughput_per_s", throughput, "1/s");
    ("latency_p50_s", percentile lats 0.5, "s");
    ("latency_p90_s", percentile lats 0.9, "s") ]

(* The result line: the last line of standard output. The failure
   breakdown and any notes go on the lines before it. *)
let print_result t ~correct (metrics : metric list) =
  List.iter (fun n -> Printf.printf "note: %s\n" n) (List.rev !notes);
  Printf.printf "failures: %s\n"
    (String.concat " "
       (List.map (fun k -> Printf.sprintf "%s=%d" k (failed t k)) kinds));
  let failed = List.fold_left (fun acc k -> acc + failed t k) 0 kinds in
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else if Float.is_finite v then Printf.sprintf "%.17g" v
    else "0"
  in
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (Atomic.get t.attempted) failed metrics

let correct t =
  Atomic.get t.attempted > 0 && failed t "mismatch" = 0
  && failed t "diverged" = 0
