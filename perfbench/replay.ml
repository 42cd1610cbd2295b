(* Pipeline.build, replayed layer by layer for the traced runs.

   The replay calls the same public layer functions, in the same order,
   that [Pipeline.build] calls for the two configurations the workloads
   use (CTO+LTBO with one global tree, and PlOpti), timing each call from
   outside. Its output must be byte-identical to [Pipeline.build] on the
   same input; the workloads check that on every replayed build and mark
   the traced run invalid otherwise.

   Detection goes through [Parallel.detect_parallel] for PlOpti and one
   [Ltbo.detect] call for the global tree, as in [Pipeline.build], so it
   runs on the same domains; its sub-phases and per-group times are read
   from the spans the program records there (see {!Layers}). *)

open Calibro_dex
open Calibro_core
open Calibro_hgraph
open Calibro_codegen
open Calibro_oat
module Cache = Calibro_cache.Cache
module Obs = Calibro_obs.Obs

exception Invalid_replay of string

(* [Passes.optimize] with one timer per pass: the same bounded fixpoint
   (8 rounds), verifying after each pass. *)
let optimize (g : Hgraph.t) =
  if not g.Hgraph.g_is_native then begin
    let rec round n =
      if n < 8 then begin
        let changed =
          List.fold_left
            (fun acc (p : Passes.pass) ->
              let c =
                Layers.time ("hgraph." ^ p.Passes.pass_name ^ "_s") (fun () ->
                    p.Passes.run g)
              in
              (try Hgraph.verify g
               with Hgraph.Invalid msg ->
                 raise
                   (Passes.Pass_error
                      (Printf.sprintf "pass %s broke %s: %s" p.Passes.pass_name
                         (Dex_ir.method_ref_to_string g.Hgraph.g_name)
                         msg)));
              acc || c)
            false Passes.all_passes
        in
        if changed then round (n + 1)
      end
    in
    round 0
  end

let compile_method ~(config : Config.t) ~slot_of_method (m : Dex_ir.meth) =
  let w0 = Gc.minor_words () in
  let g = Layers.time "hgraph.build_s" (fun () -> Hgraph.of_method m) in
  if config.Config.optimize_ir then
    Layers.time "hgraph.passes_s" (fun () -> optimize g);
  Obs.Counter.add "hgraph.alloc_words" (int_of_float (Gc.minor_words () -. w0));
  Obs.Counter.add "hgraph.nodes_out" (Hgraph.size g);
  let cm =
    Layers.time "codegen.s" (fun () ->
        Codegen.compile ~config:{ Codegen.cto = config.Config.cto }
          ~slot_of_method g)
  in
  Obs.Counter.add "codegen.insns" (Bytes.length cm.Compiled_method.code / 4);
  Obs.Counter.add "codegen.cto_hits"
    (List.fold_left (fun a (_, n) -> a + n) 0 cm.Compiled_method.cto_hits);
  cm

(* The detection memo key, as [Ltbo.detect] forms it for a build with no
   dictionary, no shelving and no hot methods. Should it ever drift from
   Ltbo's, the check after a miss below stops the replay. *)
let detect_key ~(options : Ltbo.options) ~digest group =
  Cache.key
    ([ Cache.salt; "detect"; string_of_int options.Ltbo.min_length;
       string_of_int options.Ltbo.max_length ]
    @ List.concat_map (fun mi -> [ string_of_int mi; digest mi ]) group)

let ltbo ~cache ~digests ~(config : Config.t) compiled =
  let options = Config.ltbo_options config in
  let marr = Array.of_list compiled in
  let candidates =
    List.concat
      (List.mapi
         (fun i (cm : Compiled_method.t) ->
           if Meta.outlinable cm.Compiled_method.meta then [ i ] else [])
         compiled)
  in
  let groups =
    if config.Config.parallel_trees > 1 then
      Parallel.partition ~k:config.Config.parallel_trees ~seed:42 candidates
    else [ candidates ]
  in
  let digest_of =
    Option.map
      (fun _ mi -> digests.(marr.(mi).Compiled_method.slot))
      cache
  in
  let digest mi =
    match digests.(marr.(mi).Compiled_method.slot) with
    | Some d -> d
    | None -> Seq_map.method_digest marr.(mi)
  in
  (* With a cache, look every group up first: the disk reads and decodes
     are timed as cache.lookup_s, and detection then finds the entries in
     memory. Each group comes with its key and whether it hit. *)
  let looked_up =
    List.map
      (fun g ->
        match cache with
        | None -> (None, false)
        | Some c ->
          let key = detect_key ~options ~digest g in
          Obs.Counter.add "cache.detect_lookups" 1;
          let hit =
            Layers.time "cache.lookup_s" (fun () ->
                Cache.find_json c ~ns:"detect" key)
            |> Option.is_some
          in
          if hit then Obs.Counter.add "cache.detect_hits" 1;
          (Some (c, key), hit))
      groups
  in
  let results =
    Layers.span "ltbo.detect" (fun () ->
        if config.Config.parallel_trees > 1 then
          Parallel.detect_parallel ?cache ?digest_of ~options marr groups
        else List.map (Ltbo.detect ?cache ?digest_of ~options marr) groups)
  in
  List.iter2
    (fun (lookup, hit) (_, st) ->
      if not hit then begin
        (match lookup with
         | Some (c, key) when Option.is_none (Cache.find_json c ~ns:"detect" key) ->
           raise
             (Invalid_replay
                "detection memo key differs from the one Ltbo.detect stores")
         | _ -> ());
        Obs.Counter.add "suffix_tree.nodes" st.Ltbo.s_tree_nodes
      end)
    looked_up results;
  let r =
    Layers.span "ltbo.rewrite" (fun () ->
        Ltbo.run_with ~detect_results:results compiled)
  in
  let st = r.Ltbo.stats in
  Obs.Counter.add "ltbo.sequence_elements" st.Ltbo.s_sequence_elements;
  Obs.Counter.add "ltbo.repeats_considered" st.Ltbo.s_repeats_considered;
  Obs.Counter.add "ltbo.outlined_functions" st.Ltbo.s_outlined_functions;
  Obs.Counter.add "ltbo.occurrences_replaced" st.Ltbo.s_occurrences_replaced;
  (r.Ltbo.methods, r.Ltbo.outlined)

(* The replay of [Pipeline.build ?cache ~config apk] (no dictionary, no
   shelving); returns the OAT and its serialized container. *)
let build ~cache ~(config : Config.t) (apk : Dex_ir.apk) =
  if config.Config.ltbo_rounds > 1 || config.Config.hot_methods <> [] then
    invalid_arg "Replay.build: multi-round and HfOpti configs are not replayed";
  Layers.build "build" @@ fun () ->
  (match Layers.span "dex.check" (fun () -> Dex_check.check apk) with
   | Ok () -> ()
   | Error errs ->
     raise
       (Pipeline.Build_error
          (String.concat "; " (List.map Dex_check.error_to_string errs))));
  let methods = Dex_ir.methods_of_apk apk in
  let slots = Hashtbl.create (List.length methods) in
  List.iteri
    (fun i (m : Dex_ir.meth) -> Hashtbl.replace slots m.Dex_ir.name i)
    methods;
  let slot_of_method name =
    match Hashtbl.find_opt slots name with
    | Some s -> s
    | None ->
      raise
        (Pipeline.Build_error
           ("undefined method " ^ Dex_ir.method_ref_to_string name))
  in
  let digests = Array.make (List.length methods) None in
  let compiled =
    Layers.span "compile" (fun () ->
        match cache with
        | None -> List.map (compile_method ~config ~slot_of_method) methods
        | Some c ->
          List.mapi
            (fun i (m : Dex_ir.meth) ->
              let key =
                Layers.time "cache.key_s" (fun () ->
                    Pipeline.method_key ~config ~slot_of_method
                      ~slot:(slot_of_method m.Dex_ir.name) m)
              in
              Obs.Counter.add "cache.method_lookups" 1;
              match
                Layers.time "cache.lookup_s" (fun () -> Cache.find_method c key)
              with
              | Some e ->
                Obs.Counter.add "cache.method_hits" 1;
                digests.(i) <- Some e.Cache.ce_token_digest;
                e.Cache.ce_method
              | None ->
                let cm = compile_method ~config ~slot_of_method m in
                Layers.time "cache.store_s" (fun () ->
                    let d = Seq_map.method_digest cm in
                    digests.(i) <- Some d;
                    Cache.add_method c key
                      { Cache.ce_method = cm; ce_token_digest = d });
                cm)
            methods)
  in
  let linked, outlined =
    if config.Config.ltbo then
      Layers.span "ltbo" (fun () -> ltbo ~cache ~digests ~config compiled)
    else (compiled, [])
  in
  let oat =
    Layers.span "oat.link" (fun () ->
        Linker.link ~apk_name:apk.Dex_ir.apk_name
          ~thunks:(if config.Config.cto then Abi.all_thunks else [])
          ~extra:outlined linked)
  in
  let bytes = Layers.span "oat.emit" (fun () -> Oat_file.to_bytes oat) in
  Obs.Counter.add "oat.container_bytes" (Bytes.length bytes);
  (oat, Bytes.unsafe_to_string bytes)
