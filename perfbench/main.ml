(* The repository benchmark: one command, three workloads.

     main.exe --workload cold-store|release-train|serve --seed N
              --seconds S --trace 0|1 --calibrod PATH --work DIR

   With --trace 0 it prints the end-to-end metrics of the workload; with
   --trace 1 it runs the same inputs untraced for half the time, then
   replayed layer by layer for the other half, and prints the per-layer
   metrics. The last line of
   standard output is the JSON result. perfbench/run.py builds the
   program and calls this; see perfbench/NOTES.md.

     main.exe --write-expected FILE

   regenerates the expected-results file from Baseline builds. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0
  and trace = ref 0 and calibrod = ref "" and work = ref ""
  and expected = ref "perfbench/expected.txt" and write_expected = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME cold-store, release-train or serve");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--calibrod", Arg.Set_string calibrod, "PATH the daemon binary (serve)");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--expected", Arg.Set_string expected, "FILE expected-results file");
      ("--write-expected", Arg.Set_string write_expected,
       "FILE regenerate the expected-results file and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench: the repository benchmark";
  if !write_expected <> "" then Script.write_expected !write_expected
  else begin
    if !work = "" then (prerr_endline "perfbench: --work is required"; exit 2);
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "perfbench: --trace takes 0 or 1";
      exit 2
    end;
    let args =
      { Common.seed = !seed; seconds = !seconds; trace = !trace = 1;
        calibrod = !calibrod; work = !work; expected = !expected }
    in
    let run =
      match !workload with
      | "cold-store" -> Cold_store.run
      | "release-train" -> Release_train.run
      | "serve" -> Serve.run
      | w ->
        Printf.eprintf "perfbench: unknown workload %S\n" w;
        exit 2
    in
    let tally, metrics = run args in
    (* The traced run's spans, beside the per-run scratch directory. *)
    if args.Common.trace then
      Layers.write
        (Filename.concat (Filename.dirname !work)
           (Printf.sprintf "trace-%s-seed%d.json" !workload !seed));
    let correct = Common.correct tally in
    Common.print_result tally ~correct metrics;
    if not correct then exit 1
  end
