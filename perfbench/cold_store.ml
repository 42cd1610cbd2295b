(* cold-store: the six apps of [Apps.all], each under CTO+LTBO (one
   global suffix tree) and CTO+LTBO+PlOpti(8), built cold in a fixed
   order, looping, on two load domains. Every compile layer does its full
   work and the cache and server do none.

   The seed rotates where in the fixed order the loop starts; the apps
   themselves are fixed, so text_bytes, replay_cycles and
   resident_code_bytes are identical on every seed.

   Checks: every build's bytes equal the first build of the same (app,
   config); every distinct output replays each app's interaction script
   with exactly the expected results of the Baseline build. *)

open Calibro_core
open Calibro_workload
module Oat_file = Calibro_oat.Oat_file
module Clock = Calibro_obs.Clock
module Obs = Calibro_obs.Obs

let configs = [ Config.cto_ltbo; Config.cto_ltbo_pl ~k:8 () ]
let domains = 2

(* Set-ups per untraced run; [setup_s] is their median. One takes about
   0.15 s, so the median needs many to hold still. *)
let setup_runs = 9

type job = { app : Appgen.app; config : Config.t; first : string option Atomic.t }

let job_name j =
  j.app.Appgen.app_profile.Appgen.p_name ^ "/" ^ j.config.Config.name

let prepare ~(args : Common.args) () =
  let apps = List.map Appgen.generate Apps.all in
  let jobs =
    Array.of_list
      (List.concat_map
         (fun app ->
           List.map
             (fun config -> { app; config; first = Atomic.make None })
             configs)
         apps)
  in
  let n = Array.length jobs in
  let start = ((args.Common.seed mod n) + n) mod n in
  let jobs = Array.init n (fun i -> jobs.((start + i) mod n)) in
  (jobs, Script.read_expected args.Common.expected)

(* Record the first output of a job, or check a later one against it. *)
let check_bytes tally j bytes =
  if not (Atomic.compare_and_set j.first None (Some bytes)) then
    match Atomic.get j.first with
    | Some b when String.equal b bytes -> ()
    | _ ->
      Common.fail tally "mismatch"
        (job_name j ^ ": bytes differ from the first pass")

(* The jobs in order, looping, shared by the load domains through one
   counter. When the time is up and [min_builds] have started, the pass
   under way is finished, so every (app, config) is measured equally
   often: a partial pass would weigh the percentiles and the throughput
   towards whichever jobs it held. *)
let run_loop ~tally ~seconds ~min_builds jobs build =
  let n = Array.length jobs in
  let next = Atomic.make 0 and stop_at = Atomic.make max_int in
  let t0 = Clock.now_ns () in
  let worker () =
    let lats = ref [] in
    let rec go () =
      let k = Atomic.fetch_and_add next 1 in
      if Common.loop_done ~t0 ~seconds ~min_samples:min_builds k then begin
        let pass_end = ((k / n) + 1) * n in
        let rec lower () =
          let cur = Atomic.get stop_at in
          if pass_end < cur && not (Atomic.compare_and_set stop_at cur pass_end)
          then lower ()
        in
        lower ()
      end;
      if k < Atomic.get stop_at then begin
        let j = jobs.(k mod n) in
        Common.attempt tally;
        (match build j with
         | l, bytes ->
           check_bytes tally j bytes;
           lats := (l, (k / n, Clock.now_ns ())) :: !lats
         | exception Replay.Invalid_replay msg ->
           Common.fail tally "mismatch" (job_name j ^ ": " ^ msg)
         | exception e ->
           Common.fail tally "raised" (job_name j ^ ": " ^ Printexc.to_string e));
        go ()
      end
    in
    go ();
    !lats
  in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
  let mine = worker () in
  let lats = List.concat (mine :: List.map Domain.join others) in
  ( Array.of_list (List.map fst lats),
    Common.pass_throughput ~size:n ~t0 (List.map snd lats) )

(* One build is one [Pipeline.build] call; the container is serialized
   after the clock stops, for the byte checks. *)
let pipeline_build j =
  let t0 = Clock.now_ns () in
  let b = Pipeline.build ~cache:None ~config:j.config j.app.Appgen.app in
  let l = Clock.since_s t0 in
  (l, Bytes.unsafe_to_string (Oat_file.to_bytes b.Pipeline.b_oat))

let run (args : Common.args) =
  let tally = Common.tally () in
  let (jobs, expected), setup_s =
    Common.setup ~n:(if args.Common.trace then 1 else setup_runs) (prepare ~args)
  in
  let seconds =
    if args.Common.trace then args.Common.seconds /. 2.0 else args.Common.seconds
  in
  let lats, throughput =
    run_loop ~tally ~seconds ~min_builds:Common.min_samples jobs pipeline_build
  in
  (* A job the loop never reached is built once here, untimed, so every
     distinct output is checked and measured. *)
  Array.iter
    (fun j ->
      if Atomic.get j.first = None then
        check_bytes tally j (snd (pipeline_build j)))
    jobs;
  let traced =
    if not args.Common.trace then None
    else begin
      Obs.reset ();
      let _, tthroughput =
        run_loop ~tally ~seconds ~min_builds:0 jobs (fun j ->
            let t0 = Clock.now_ns () in
            let _, bytes =
              Replay.build ~cache:None ~config:j.config j.app.Appgen.app
            in
            (Clock.since_s t0, bytes))
      in
      Some (Obs.events (), tthroughput /. throughput)
    end
  in
  (* Replays of every distinct output against the expected results. *)
  let outputs =
    Array.map
      (fun j ->
        match Atomic.get j.first with
        | Some b -> (j, b)
        | None -> assert false)
      jobs
  in
  let replay (j, bytes) =
    match Oat_file.of_bytes (Bytes.unsafe_of_string bytes) with
    | Error e ->
      Common.fail tally "mismatch"
        (job_name j ^ ": container does not decode: " ^ e);
      None
    | Ok oat -> Some (j, oat, Script.replay oat j.app.Appgen.app_script)
  in
  let replays =
    List.filter_map Fun.id (Common.par_map replay (Array.to_list outputs))
  in
  let text =
    List.fold_left (fun acc (_, oat, _) -> acc + Oat_file.text_size oat) 0 replays
  in
  let cycles, resident = Script.totals (List.map (fun (_, _, r) -> r) replays) in
  List.iter
    (fun (j, _, r) ->
      let app = j.app.Appgen.app_profile.Appgen.p_name in
      Script.judge tally ~name:(job_name j) ~expected:(expected, app) r)
    replays;
  Common.note
    (Printf.sprintf
       "%d script steps read stale registers or stack in the Baseline build \
        and are checked for faults only"
       (Script.undefined_steps expected));
  let metrics =
    match traced with
    | Some (events, overhead) ->
      Layers.metrics ~events ~disk_bytes:0 ~overhead ()
    | None ->
      Common.latency_metrics ~lats ~throughput
      @ [ ("text_bytes", float_of_int text, "bytes");
          ("replay_cycles", float_of_int cycles, "cycles");
          ("resident_code_bytes", float_of_int resident, "bytes");
          ("peak_rss_mb", Common.peak_rss_mb "self", "MB");
          ("setup_s", setup_s, "s") ]
  in
  (tally, metrics)
