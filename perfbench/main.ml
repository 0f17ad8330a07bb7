(* The campaign benchmark. One run measures one workload for [--seconds]
   and prints, as its last line, one JSON object: the end-to-end metrics
   with [--trace 0], the per-layer metrics of a separate traced run with
   [--trace 1], and the count of checked outputs that failed.

     perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads, metrics and the layer each per-layer metric belongs to are
   described in perfbench/README.md. *)

let workloads = [ "fuzz-boom"; "fuzz-nutshell-dual-traced"; "static-rtl" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("items_per_s", "1/s");
    ("sim_cycles_per_s", "1/s");
    ("peak_rss_mb", "MiB");
  ]

(* Layers a workload does not exercise report 0. *)
let per_layer =
  [
    ("testcase.generate_us", "us");
    ("testcase.materialize_us", "us");
    ("golden.run_us", "us");
    ("golden.calls_per_testcase", "count");
    ("machine.dual_run_us.p50", "us");
    ("machine.dual_run_us.p99", "us");
    ("machine.busy_share", "share");
    ("machine.ns_per_modelled_cycle", "ns");
    ("machine.commit_cycle_share", "share");
    ("machine.ipc", "1/cycle");
    ("machine.cycle_limit_runs", "count");
    ("machine.minor_words_per_run", "words");
    ("checkpoint.hit_share", "share");
    ("checkpoint.cycles_saved_share", "share");
    ("checkpoint.wall_saved_share", "share");
    ("executor.min_intervals_us", "us");
    ("executor.triggered_us", "us");
    ("coverage.add_us", "us");
    ("detector.detect_us", "us");
    ("detector.finding_share", "share");
    ("feedback.fold_us", "us");
    ("feedback.retained_share", "share");
    ("domain_pool.speedup", "x");
    ("domain_pool.minor_collections", "count");
    ("telemetry.events", "count");
    ("telemetry.bytes", "bytes");
    ("telemetry.emit_us_per_event", "us");
    ("telemetry.overhead_share", "share");
    ("report.parse_events_per_s", "1/s");
    ("report.render_s", "s");
    ("report.skipped_lines", "count");
    ("serve.metrics_render_us", "us");
    ("serve.metrics_bytes", "bytes");
    ("netlist_gen.s", "s");
    ("analysis.s", "s");
    ("analysis.points_monitored", "count");
    ("instrument.s", "s");
    ("instrument.stmts_added", "count");
    ("engine.compile_s", "s");
    ("engine.step_ns", "ns");
    ("engine.minor_words_per_step", "words");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("tracing.overhead_share", "share");
    ("tracing.uncovered_share", "share");
  ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest when List.mem w workloads ->
        workload := Some w;
        go rest
    | "--seed" :: s :: rest ->
        seed := Int64.of_string_opt s;
        go rest
    | "--seconds" :: s :: rest ->
        seconds := Option.bind (int_of_string_opt s) (fun s -> if s > 0 then Some s else None);
        go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := Some (t = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some n, Some t -> (w, s, float_of_int n, t)
  | _ -> usage ()

(* Scratch output (traces, span files) lives in the checkout, outside
   every committed directory. *)
let out_dir = ".perfbench-out"

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload, seed, seconds, trace = parse_args () in
  let expected =
    Sonar.Json.of_string
      (In_channel.with_open_bin "perfbench/expected.json" In_channel.input_all)
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let fuzz = function
    | "fuzz-boom" -> Fuzz.boom
    | _ -> Fuzz.nutshell
  in
  let measured =
    match (workload, trace) with
    | "static-rtl", false -> Static_rtl.untraced ~expected ~seed ~seconds
    | "static-rtl", true -> Static_rtl.traced ~expected ~seed ~seconds ~out:out_dir
    | w, false -> Fuzz.untraced (fuzz w) ~expected ~seed ~seconds ~out:out_dir
    | w, true -> Fuzz.traced (fuzz w) ~seed ~seconds ~out:out_dir
  in
  let metrics = if trace then per_layer else end_to_end in
  let value name = Option.value (List.assoc_opt name measured) ~default:0. in
  List.iter
    (fun (name, unit) -> Printf.printf "%-32s %16.6g %s\n" name (value name) unit)
    metrics;
  let attempted = !Check.attempted and failed = !Check.failed in
  Printf.printf "%-32s %16.6g share (%d of %d checked outputs)\n" "failed_share"
    (Measure.ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && attempted > 0)
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number (value name))
              unit)
          metrics))
