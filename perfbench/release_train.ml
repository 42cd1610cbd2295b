(* release-train: deterministic [Train.fold] trains of Kuaishou (the
   largest and most outlined app) and Taobao (the least reduced), built
   under PlOpti(8), one load domain per app. Each version is built against a
   fresh [Cache.create ~dir] view over one persistent disk cache, as a CI
   run invoking calibroc with CALIBRO_CACHE_DIR once per release would.

   Set-up builds version 0 of each app into the disk cache. The timed loop
   then runs passes; each pass of an app streams a fresh train of
   [deltas] versions from the base apk, one method change per release
   ([Train.fold]'s default, and what [bench train] and
   [calibro_load --train] replay), so every timed build is a new release
   whose unchanged methods and detection groups hit the disk cache and
   whose edited ones miss and are written back.

   Checks: the first and last version of each app's first train are
   rebuilt cold after the loop and must be byte-equal to the warm builds;
   the last version replays the app's interaction script without a VM
   fault. *)

open Calibro_core
open Calibro_workload
module Cache = Calibro_cache.Cache
module Obs = Calibro_obs.Obs
module Oat_file = Calibro_oat.Oat_file
module Clock = Calibro_obs.Clock

let config = Config.cto_ltbo_pl ~k:8 ()
let deltas = 8

(* Set-ups per untraced run; [setup_s] is their median. Each warms a
   cache directory of its own, and none is deleted: deleting thousands of
   entry files slows the disk writes that follow (see run.py). *)
let setup_runs = 3

let apps_of () = List.map Appgen.generate [ Apps.kuaishou; Apps.taobao ]
let app_name (a : Appgen.app) = a.Appgen.app_profile.Appgen.p_name

exception Stop

(* Warm a fresh disk cache with version 0 of each app, one domain each. *)
let warm dir apps =
  Common.fresh_dir dir;
  ignore
    (Common.par_map
       (fun (a : Appgen.app) ->
         Pipeline.build ~cache:(Some (Cache.create ~dir ())) ~config a.Appgen.app)
       apps)

(* Pass [p] replays train [p] of each app, on every seed. With trains
   drawn from the seed, the 90th percentile's quartile spread over ten
   seeds was 23%: how many releases delete a method early in the slot
   order, and so recompile much of the app, is luck. The seed is
   therefore not used here. Pass 0 carries the checks and the exact
   metrics (text_bytes, replay_cycles, resident_code_bytes). *)
let train_seed ~pass ~app = (pass * 2) + app

type first_pass = {
  fp_bytes : (string * int, string) Hashtbl.t;  (* (app, version) -> bytes *)
  fp_samples : (string * int * Calibro_dex.Dex_ir.apk) list ref;
}

(* The latency percentiles are taken over the first [latency_passes]
   passes of each app: the same 7 x 2 x 8 = 112 builds on every run, at
   least [Common.min_samples]. Taken over every pass, a run's speed
   decided which trains entered them. *)
let latency_passes = 7

(* One app's train on its own load domain: whole passes until the time
   is up and at least [min_passes] are done. [build dir apk] returns
   (latency, container bytes). Returns the latencies of the first
   [min_passes] passes, the number of builds, the first pass's outputs
   and the pass end times. Pass 0 always completes, so the first-pass
   outputs (text_bytes and the checks) are the same set on every run. *)
let drive_app ~tally ~t0 ~seconds ~min_passes ~dir ~ai (a : Appgen.app) build
    =
  let name = app_name a in
  let fp = { fp_bytes = Hashtbl.create 16; fp_samples = ref [] } in
  let lats = ref [] and builds = ref 0 in
  let pass = ref 0 in
  let pass_ends = ref [] in
  (try
     while true do
       Train.fold ~deltas
         ~seed:(train_seed ~pass:!pass ~app:ai)
         a.Appgen.app ~init:()
         ~f:(fun () (v : Train.version) ->
           let i = v.Train.v_index in
           if i > 0 then begin
             (* Whole passes only: every version index is measured
                equally often. *)
             if
               i = 1 && !pass > 0 && !pass >= min_passes
               && Clock.since_s t0 >= seconds
             then raise Stop;
             Common.attempt tally;
             match build dir v.Train.v_apk with
             | l, bytes ->
               incr builds;
               if !pass < min_passes then lats := l :: !lats;
               if !pass = 0 then begin
                 Hashtbl.replace fp.fp_bytes (name, i) bytes;
                 if i = 1 || i = deltas then
                   fp.fp_samples := (name, i, v.Train.v_apk) :: !(fp.fp_samples)
               end
             | exception Replay.Invalid_replay msg ->
               Common.fail tally "mismatch" (name ^ ": " ^ msg)
             | exception e ->
               Common.fail tally "raised"
                 (Printf.sprintf "%s v%d: %s" name i (Printexc.to_string e))
           end);
       pass_ends := (!pass, Clock.now_ns ()) :: !pass_ends;
       incr pass
     done
   with Stop -> ());
  (!lats, !builds, fp, !pass_ends)

(* Both trains at once, one load domain each, over one disk cache. *)
let drive ~tally ~seconds ~min_passes ~dir ~apps build =
  let t0 = Clock.now_ns () in
  (* Each app runs whole passes on its own domain, so each has its own
     loaded time, up to the end of its last pass: the throughput is the
     sum of the two apps' rates. *)
  let results =
    Common.par_map
      (fun (ai, a) ->
        drive_app ~tally ~t0 ~seconds ~min_passes ~dir ~ai a build)
      (List.mapi (fun i a -> (i, a)) apps)
  in
  let fp = { fp_bytes = Hashtbl.create 32; fp_samples = ref [] } in
  List.iter
    (fun (_, _, f, _) ->
      Hashtbl.iter (Hashtbl.replace fp.fp_bytes) f.fp_bytes;
      fp.fp_samples := !(f.fp_samples) @ !(fp.fp_samples))
    results;
  let throughput =
    List.fold_left
      (fun acc (_, builds, _, ends) ->
        match ends with
        | (_, last) :: _ ->
          acc +. (float_of_int builds /. Clock.elapsed_s t0 last)
        | [] -> acc)
      0.0 results
  in
  ( Array.of_list (List.concat_map (fun (l, _, _, _) -> l) results),
    throughput,
    fp )

let pipeline_build dir apk =
  let cache = Cache.create ~dir () in
  let t0 = Clock.now_ns () in
  let b = Pipeline.build ~cache:(Some cache) ~config apk in
  let l = Clock.since_s t0 in
  (l, Bytes.unsafe_to_string (Oat_file.to_bytes b.Pipeline.b_oat))

let replay_build dir apk =
  let cache = Cache.create ~dir () in
  let t0 = Clock.now_ns () in
  let _, bytes = Replay.build ~cache:(Some cache) ~config apk in
  (Clock.since_s t0, bytes)

let run (args : Common.args) =
  let tally = Common.tally () in
  let rep = ref 0 in
  let dirs () =
    let d name =
      Filename.concat args.Common.work (Printf.sprintf "%s%d" name !rep)
    in
    (d "train-cache", d "train-cache-traced")
  in
  let apps, setup_s =
    Common.setup ~n:(if args.Common.trace then 1 else setup_runs)
      (fun () ->
        incr rep;
        let dir_a, dir_b = dirs () in
        let apps = apps_of () in
        warm dir_a apps;
        if args.Common.trace then warm dir_b apps;
        apps)
  in
  let dir_a, dir_b = dirs () in
  let seconds =
    if args.Common.trace then args.Common.seconds /. 2.0 else args.Common.seconds
  in
  let lats, throughput, fp =
    drive ~tally ~seconds ~min_passes:latency_passes ~dir:dir_a ~apps
      pipeline_build
  in
  let lost_writes = Common.lost_writes () in
  let traced =
    if not args.Common.trace then None
    else begin
      Obs.reset ();
      let _, tthroughput, tfp =
        drive ~tally ~seconds ~min_passes:0 ~dir:dir_b ~apps replay_build
      in
      let events = Obs.events () and lost = Common.lost_writes () in
      Hashtbl.iter
        (fun (name, i) bytes ->
          match Hashtbl.find_opt fp.fp_bytes (name, i) with
          | Some b when String.equal b bytes -> ()
          | _ ->
            Common.fail tally "mismatch"
              (Printf.sprintf
                 "%s v%d: traced replay differs from Pipeline.build" name i))
        tfp.fp_bytes;
      Some (events, lost, tthroughput /. throughput)
    end
  in
  let lost_writes =
    lost_writes + Option.fold ~none:0 ~some:(fun (_, l, _) -> l) traced
  in
  if lost_writes > 0 then
    Common.note
      (Printf.sprintf
         "%d cache entries lost: a Cache.create on one load domain swept \
          the other's in-flight tmp file, so its rename failed"
         lost_writes);
  (* Cold rebuilds of the sampled versions, and script replays of the
     last, one app per domain. *)
  let check (name, i, apk) =
    Common.attempt tally;
    let warm = Hashtbl.find fp.fp_bytes (name, i) in
    match Pipeline.build ~cache:None ~config apk with
    | exception e ->
      Common.fail tally "raised" (name ^ " cold rebuild: " ^ Printexc.to_string e);
      None
    | b ->
      let cold = Bytes.unsafe_to_string (Oat_file.to_bytes b.Pipeline.b_oat) in
      if not (String.equal warm cold) then
        Common.fail tally "mismatch"
          (Printf.sprintf "%s v%d: warm build differs from a cold rebuild" name i);
      if i <> deltas then None
      else begin
        let app = List.find (fun a -> app_name a = name) apps in
        let r = Script.replay b.Pipeline.b_oat app.Appgen.app_script in
        Script.judge tally ~name r;
        Some r
      end
  in
  let samples_of name = List.filter (fun (n, _, _) -> n = name) !(fp.fp_samples) in
  let replays =
    List.concat
      (Common.par_map
         (fun a -> List.filter_map check (samples_of (app_name a)))
         apps)
  in
  let cycles, resident = Script.totals replays in
  let text =
    Hashtbl.fold
      (fun _ bytes acc ->
        match Oat_file.of_bytes (Bytes.unsafe_of_string bytes) with
        | Ok oat -> acc + Oat_file.text_size oat
        | Error e ->
          Common.fail tally "mismatch" ("container does not decode: " ^ e);
          acc)
      fp.fp_bytes 0
  in
  let metrics =
    match traced with
    | Some (events, _, overhead) ->
      Layers.metrics ~events ~lost_writes ~disk_bytes:(Common.dir_bytes dir_b)
        ~overhead ()
    | None ->
      Common.latency_metrics ~lats ~throughput
      @ [ ("text_bytes", float_of_int text, "bytes");
          ("replay_cycles", float_of_int cycles, "cycles");
          ("resident_code_bytes", float_of_int resident, "bytes");
          ("peak_rss_mb", Common.peak_rss_mb "self", "MB");
          ("setup_s", setup_s, "s") ]
  in
  (tally, metrics)
