(* serve: calibrod as its own process (--workers 2 --cache-dir), driven
   by this process over 2 connections in a closed loop: each client waits
   for its reply before sending again. Requests are PlOpti(8) builds of
   Taobao, Fanqie and Meituan. Three in four repeat a small fixed pool of
   release mutants (one single-change mutant per app), warmed before
   timing starts (cache reads); every fourth is a fresh
   [Mutate.mutate ~ops:4] mutant, whose deletes shift slots, so it misses
   the method tier and writes to disk.

   The share is the mix the repository's own load generator sends by
   default: [calibro_load] runs 4 clients x 4 requests over a pool of 4
   release seeds, so 4 of its 16 requests are the first build of their
   release and 12 repeat one.

   This is the wire path: frame write and read, request decode,
   [Dex_text.parse] of ~2.5 MB of .dexsim text, queueing, the build and
   the [Built] emit.

   Checks: every served OAT equals the in-process [Worker.build_response]
   for the same request. Pool references are computed during set-up;
   fresh mutants are generated during set-up, and their references are
   computed after the timed loop, for the ones sent. Each pool output
   replays the app's interaction script without a VM fault. *)

open Calibro_core
open Calibro_workload
module Cache = Calibro_cache.Cache
module Obs = Calibro_obs.Obs
module Protocol = Calibro_server.Protocol
module Transport = Calibro_server.Transport
module Worker = Calibro_server.Worker
module Oat_file = Calibro_oat.Oat_file
module Clock = Calibro_obs.Clock
module Json = Calibro_obs.Json

let config = Config.cto_ltbo_pl ~k:8 ()
let apps_of () = List.map Appgen.generate [ Apps.taobao; Apps.fanqie; Apps.meituan ]
let fresh_every = 4
let clients = 2

(* Fresh mutants prepared in set-up per measured second: a run sends
   about 1 to 1.2 per second. Should a run outpace them, the client generates
   the next one itself before it starts the request's clock. *)
let fresh_per_s = 1.4

(* In-process set-ups per untraced run; [setup_s] counts their median. *)
let setup_runs = 3

type slot = {
  app : Appgen.app;
  payload : string;  (* the encoded request frame payload *)
  expected : string option;
      (* the in-process Worker.build_response OAT; [None] for a fresh
         mutant, checked after the loop *)
}

type daemon = { pid : int; endpoint : Transport.endpoint; metrics : string }

let request apk =
  { Protocol.rq_config = config;
    rq_dexsim = Calibro_dex.Dex_text.to_string apk;
    rq_profile = None;
    rq_deadline_ms = None;
    rq_dict = None;
    rq_shelve = None }

let reference cache rq =
  match Worker.build_response ~cache:(Some cache) rq with
  | Protocol.Built { oat; _ } -> oat
  | Protocol.Rejected r ->
    failwith
      ("serve set-up: reference build refused: "
      ^ Protocol.rejection_to_string r)
  | Protocol.Dict_info _ | Protocol.Report_ack _ ->
    failwith "serve set-up: reference build answered a non-build response"

let request_of s =
  match Protocol.decode_request s.payload with
  | Ok (Protocol.Build rq) -> rq
  | Ok _ | Error _ -> failwith "serve: a prepared request does not decode"

(* Fresh mutant [k]: an app in turn, seeded from [k]. A run sends mutants
   [seed], [seed + 1], ... so nearby seeds share most of them. *)
let fresh_slot apps k =
  let n = Array.length apps in
  let app = apps.(((k mod n) + n) mod n) in
  let apk, _ = Mutate.mutate ~ops:4 ~seed:(1000 + k) app.Appgen.app in
  { app; payload = Protocol.encode_request (request apk); expected = None }

(* The pool, with references computed over one in-process memory cache,
   and [count] fresh mutants. *)
let slots ~seed ~count apps =
  (* The pool is the same on every seed, so text_bytes, replay_cycles
     and resident_code_bytes, taken over it, are too. *)
  let pool =
    let cache = Cache.create () in
    Array.of_list
      (Common.par_map
         (fun (i, (app : Appgen.app)) ->
           let apk, _ = Mutate.mutate ~ops:1 ~seed:i app.Appgen.app in
           let rq = request apk in
           { app; payload = Protocol.encode_request rq;
             expected = Some (reference cache rq) })
         (List.mapi (fun i a -> (i, a)) apps))
  in
  let apps = Array.of_list apps in
  let fresh =
    Array.of_list
      (Common.par_map (fresh_slot apps) (List.init count (fun i -> seed + i)))
  in
  (pool, fresh)

let rec wait_for_socket pid path tries =
  if Sys.file_exists path then ()
  else if tries = 0 then failwith "calibrod did not open its socket"
  else
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      Unix.sleepf 0.02;
      wait_for_socket pid path (tries - 1)
    | _ -> failwith "calibrod exited during start-up"

let start_daemon ~(args : Common.args) ~tag =
  let sock = Filename.concat args.Common.work (tag ^ ".sock")
  and cache_dir = Filename.concat args.Common.work (tag ^ "-cache")
  and metrics = Filename.concat args.Common.work (tag ^ "-metrics.json")
  and log = Filename.concat args.Common.work (tag ^ ".log") in
  Common.fresh_dir cache_dir;
  let log_fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process args.Common.calibrod
      [| args.Common.calibrod; "--socket"; sock; "--workers"; "2";
         "--cache-dir"; cache_dir; "--metrics"; metrics |]
      Unix.stdin log_fd log_fd
  in
  Unix.close log_fd;
  (try wait_for_socket pid sock 1500
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] pid);
     raise e);
  { pid; endpoint = Transport.Unix_socket { path = sock }; metrics }

(* SIGTERM drains the daemon and makes it write its --metrics export. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

(* One request over a fresh connection, as [Client.request] sends it but
   with the payload encoded in set-up, so the load process spends its
   time waiting rather than encoding: (send seconds, wait seconds,
   response), or the transport error. *)
let exchange endpoint payload =
  match Transport.connect endpoint with
  | exception Unix.Unix_error (e, _, _) ->
    Error ("connect: " ^ Unix.error_message e)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let t0 = Clock.now_ns () in
        match Protocol.write_frame fd payload with
        | exception Unix.Unix_error (e, _, _) ->
          Error ("send: " ^ Unix.error_message e)
        | exception Protocol.Frame_error e -> Error e
        | () -> (
          let send_s = Clock.since_s t0 in
          let t1 = Clock.now_ns () in
          match Protocol.decode_response (Protocol.read_frame fd) with
          | Ok resp -> Ok (send_s, Clock.since_s t1, resp)
          | Error e -> Error e
          | exception Protocol.Frame_error e -> Error e
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)))

let slot_name s = s.app.Appgen.app_profile.Appgen.p_name

let check_oat tally s ~expected oat =
  if not (String.equal oat expected) then
    Common.fail tally "mismatch"
      (slot_name s ^ ": served OAT differs from Worker.build_response")

(* Answer bookkeeping shared by the warm-up and the timed loop; [Some
   oat] for a Built response. *)
let judge tally s = function
  | Error e ->
    Common.fail tally "transport" (slot_name s ^ ": " ^ e);
    None
  | Ok (_, _, Protocol.Built { oat; _ }) ->
    Option.iter (fun expected -> check_oat tally s ~expected oat) s.expected;
    Some oat
  | Ok (_, _, Protocol.Rejected r) ->
    Common.fail tally "refused"
      (slot_name s ^ ": " ^ Protocol.rejection_to_string r);
    None
  | Ok (_, _, (Protocol.Dict_info _ | Protocol.Report_ack _)) ->
    Common.fail tally "transport" (slot_name s ^ ": non-build response");
    None

(* Run [body] on [clients] threads until [seconds] pass and [min_samples]
   latencies are in; returns the latencies and the loaded wall time. *)
let closed_loop ~seconds ~min_samples body =
  let t0 = Clock.now_ns () in
  let lats = Array.make clients [] and samples = Atomic.make 0 in
  let client c () =
    while
      not (Common.loop_done ~t0 ~seconds ~min_samples (Atomic.get samples))
    do
      match body () with
      | Some l ->
        Atomic.incr samples;
        lats.(c) <- l :: lats.(c)
      | None -> ()
    done
  in
  let ts = List.init clients (fun c -> Thread.create (client c) ()) in
  List.iter Thread.join ts;
  (Array.of_list (List.concat (Array.to_list lats)), Clock.since_s t0)

(* Request [i] of a run: every [fresh_every]-th a fresh mutant, the others
   the pool in turn. A fresh mutant set-up did not prepare is generated
   here, before the caller starts the request's clock. *)
let schedule ~seed ~apps ~pool ~fresh ~late i =
  if i mod fresh_every <> fresh_every - 1 then pool.(i mod Array.length pool)
  else
    let k = i / fresh_every in
    if k < Array.length fresh then fresh.(k)
    else begin
      Atomic.incr late;
      fresh_slot apps (seed + k)
    end

let daemon_metrics path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse text with
  | Error e -> failwith ("calibrod metrics: " ^ e)
  | Ok j ->
    (* A missing figure (no such counter yet) reads 0. *)
    let rec num j = function
      | [] -> (
        match (Json.get_float j, Json.get_int j) with
        | Some f, _ -> f
        | None, Some i -> float_of_int i
        | None, None -> 0.0)
      | k :: rest -> (
        match Json.member k j with Some j -> num j rest | None -> 0.0)
    in
    let num = num j in
    let counter n = num [ "counters"; n ] in
    let hit_ratio ns =
      let c what = counter ("cache." ^ ns ^ "." ^ what) in
      let hits = c "hits" +. c "disk_hits" in
      Layers.ratio hits (hits +. c "misses")
    in
    [ ("server.daemon_job_s", num [ "spans"; "server.job"; "mean_s" ]);
      ("server.daemon_queue_wait_s",
       num [ "histograms"; "server.queue_wait_s"; "mean" ]);
      ("server.daemon_alloc_bytes_per_build",
       Layers.ratio
         (counter "server.built.alloc_bytes")
         (counter "server.jobs.ok"));
      ("server.daemon_method_hit_ratio", hit_ratio "method");
      ("server.daemon_detect_hit_ratio", hit_ratio "detect");
      ("server.daemon_stores",
       counter "cache.method.stores" +. counter "cache.detect.stores") ]

(* Start the daemon and warm it with the pool, two connections at a time;
   a traced run also warms its replay cache with the pool only, as the
   daemon's is. *)
let start ~tally ~(args : Common.args) pool =
  let daemon = start_daemon ~args ~tag:"serve" in
  let warm () =
    let next = Atomic.make 0 in
    let client () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < Array.length pool then begin
          let s = pool.(i) in
          ignore (judge tally s (exchange daemon.endpoint s.payload));
          go ()
        end
      in
      go ()
    in
    List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
    if not args.Common.trace then None
    else begin
      let dir = Filename.concat args.Common.work "serve-replay-cache" in
      Common.fresh_dir dir;
      let c = Cache.create ~dir () in
      Array.iter (fun s -> ignore (reference c (request_of s))) pool;
      Some c
    end
  in
  match warm () with
  | replay_cache -> (daemon, replay_cache)
  | exception e ->
    stop_daemon daemon;
    raise e

let run (args : Common.args) =
  let tally = Common.tally () in
  (* A daemon hanging up mid-request must fail that request, not kill
     this process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Set-up: the in-process part (inputs and references) runs
     [setup_runs] times and its median counts; the daemon's start and
     warm-up run once and count as measured. *)
  let count = int_of_float (Float.ceil (fresh_per_s *. args.Common.seconds)) in
  let (pool, fresh), inputs_s =
    Common.setup ~n:(if args.Common.trace then 1 else setup_runs) (fun () ->
        slots ~seed:args.Common.seed ~count (apps_of ()))
  in
  let apps = Array.map (fun s -> s.app) pool and late = Atomic.make 0 in
  let t0 = Clock.now_ns () in
  let daemon, replay_cache = start ~tally ~args pool in
  let setup_s = inputs_s +. Clock.since_s t0 in
  let running = ref true in
  Fun.protect
    ~finally:(fun () -> if !running then stop_daemon daemon)
    (fun () ->
      let seconds =
        if args.Common.trace then args.Common.seconds /. 2.0
        else args.Common.seconds
      in
      let next = Atomic.make 0 in
      (* Fresh answers, checked after the loop. *)
      let served_fresh = ref [] and fresh_lock = Mutex.create () in
      let sent () =
        let s =
          schedule ~seed:args.Common.seed ~apps ~pool ~fresh ~late
            (Atomic.fetch_and_add next 1)
        in
        Common.attempt tally;
        let t0 = Clock.now_ns () in
        let r = exchange daemon.endpoint s.payload in
        let l = Clock.since_s t0 in
        let served = judge tally s r in
        (match (served, s.expected) with
         | Some oat, None ->
           Mutex.protect fresh_lock (fun () ->
               served_fresh := (s, oat) :: !served_fresh)
         | _ -> ());
        (s, r, l, served)
      in
      let lats, wall =
        closed_loop ~seconds ~min_samples:Common.min_samples (fun () ->
            let _, _, l, served = sent () in
            Option.map (fun _ -> l) served)
      in
      let traced =
        match replay_cache with
        | None -> None
        | Some cache ->
          Obs.reset ();
          (* The two client threads share this domain's recorder: the
             lock keeps their records apart. *)
          let lock = Mutex.create () in
          let tlats, twall =
            closed_loop ~seconds ~min_samples:0 (fun () ->
                let s, r, l, served = sent () in
                Mutex.protect lock (fun () ->
                    Obs.Counter.add "server.requests" 1;
                    Obs.Counter.add "server.request_bytes" (String.length s.payload);
                    (match r with
                     | Ok (send_s, wait_s, resp) ->
                       Obs.Histogram.observe "server.send_s" send_s;
                       Obs.Histogram.observe "server.wait_s" wait_s;
                       Obs.Counter.add "server.response_bytes"
                         (String.length (Protocol.encode_response resp));
                       (match resp with
                        | Protocol.Rejected _ -> Obs.Counter.add "server.rejected" 1
                        | _ -> ())
                     | Error _ -> ());
                    (* The daemon's job, replayed in-process layer by layer. *)
                    match
                      Layers.build "job" (fun () ->
                          let rq = request_of s in
                          match
                            Layers.span "dex.parse" (fun () ->
                                Calibro_dex.Dex_text.parse rq.Protocol.rq_dexsim)
                          with
                          | Error e -> failwith e
                          | Ok apk ->
                            snd (Replay.build ~cache:(Some cache) ~config apk))
                    with
                    | bytes -> (
                      (* A fresh answer is checked against its reference
                         after the loop; the replay must equal it. *)
                      match (s.expected, served) with
                      | Some want, _ | None, Some want ->
                        if not (String.equal bytes want) then
                          Common.fail tally "mismatch"
                            (slot_name s
                            ^ ": traced replay differs from the reference")
                      | None, None -> ())
                    | exception e ->
                      Common.fail tally "mismatch"
                        (slot_name s ^ ": traced replay failed: "
                        ^ Printexc.to_string e));
                Option.map (fun _ -> l) served)
          in
          Some
            ( Obs.events (),
              (float_of_int (Array.length tlats) /. twall)
              /. (float_of_int (Array.length lats) /. wall) )
      in
      if Atomic.get late > 0 then
        Common.note
          (Printf.sprintf
             "%d fresh mutants were generated during the loop, outside the \
              request clock: set-up prepared too few"
             (Atomic.get late));
      let rss = Common.peak_rss_mb (string_of_int daemon.pid) in
      stop_daemon daemon;
      running := false;
      let daemon_figures = daemon_metrics daemon.metrics in
      let c = Cache.create () in
      let refs =
        Common.par_map (fun (s, _) -> reference c (request_of s)) !served_fresh
      in
      List.iter2
        (fun (s, oat) expected -> check_oat tally s ~expected oat)
        !served_fresh refs;
      (* Script replays of the pool outputs. *)
      let outputs =
        Array.to_list pool
        |> List.filter_map (fun (s : slot) ->
               let bytes = Bytes.unsafe_of_string (Option.get s.expected) in
               match Oat_file.of_bytes bytes with
               | Error e ->
                 Common.fail tally "mismatch" (slot_name s ^ ": " ^ e);
                 None
               | Ok oat ->
                 let r = Script.replay oat s.app.Appgen.app_script in
                 Script.judge tally ~name:(slot_name s) r;
                 Some (oat, r))
      in
      let cycles, resident = Script.totals (List.map snd outputs) in
      let text =
        List.fold_left (fun acc (oat, _) -> acc + Oat_file.text_size oat) 0 outputs
      in
      let metrics =
        match traced with
        | Some (events, overhead) ->
          let cache_dir = Filename.concat args.Common.work "serve-cache" in
          Layers.metrics ~daemon:daemon_figures ~events
            ~disk_bytes:(Common.dir_bytes cache_dir) ~overhead ()
        | None ->
          Common.latency_metrics ~lats
            ~throughput:(float_of_int (Array.length lats) /. wall)
          @ [ ("text_bytes", float_of_int text, "bytes");
              ("replay_cycles", float_of_int cycles, "cycles");
              ("resident_code_bytes", float_of_int resident, "bytes");
              ("peak_rss_mb", rss, "MB");
              ("setup_s", setup_s, "s") ]
      in
      (tally, metrics))
