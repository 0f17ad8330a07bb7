(* The two fuzz workloads. End-to-end numbers come from untraced
   [Fuzzer.run] passes; per-layer numbers come from [replay], which runs
   the same campaign loop through the public layer functions, in
   [Fuzzer.run]'s order, with a bench-side span around every call. The
   replay must reproduce the untraced outcome exactly, and on the observed
   workload its trace file must be byte-identical. *)

open Sonar
open Measure
module Config = Sonar_uarch.Config
module Machine = Sonar_uarch.Machine

type spec = {
  name : string;
  cfg : Config.t;
  dual : bool;
  observed : bool;
      (** attach the sinks of [sonar fuzz --trace FILE --serve PORT], scrape
          /metrics once per generation and render the report at the end *)
}

let boom = { name = "fuzz-boom"; cfg = Config.boom; dual = false; observed = false }

let nutshell =
  {
    name = "fuzz-nutshell-dual-traced";
    cfg = Config.nutshell;
    dual = true;
    observed = true;
  }

(* One pass is one campaign of [iterations] testcases under the paper's
   policy, in generations of the default batch, on one domain. *)
let iterations = 1000
let batch = Fuzzer.default_batch
let strategy = Feedback.sonar

(* Campaign seed of pass [k]: pass 0 runs the workload seed itself, so
   [sonar fuzz --seed N -n 1000] reproduces it. *)
let pass_seed seed k = Int64.add seed (Int64.mul (Int64.of_int k) 1_000_003L)

let options spec ~seed ~sinks =
  { Fuzzer.Options.default with seed; dual = spec.dual; batch; jobs = 1; sinks }

let modelled_cycles (o : Fuzzer.outcome) = o.cycles_simulated + o.cycles_saved

(* ------------------------------------------------------------------ *)
(* Sinks and report                                                    *)

type observers = {
  sinks : Telemetry.sink list;
  scrapes : int ref;
  scrape_bytes : int ref;
}

(* A JSONL trace file, a mutex-guarded aggregator + observatory (what
   [--serve] feeds) and a scraper rendering [Serve.prometheus] at every
   generation end, without HTTP. [scrape] wraps each render. *)
let observers ?(scrape = fun f -> f ()) path =
  let mutex = Mutex.create () in
  let agg, agg_snap = Telemetry.aggregator () in
  let obs, obs_snap = Telemetry.observatory () in
  let live =
    Telemetry.synchronized mutex
      (Telemetry.make
         ~close:(fun () ->
           Telemetry.close agg;
           Telemetry.close obs)
         (fun ev ->
           agg.Telemetry.emit ev;
           obs.Telemetry.emit ev))
  in
  let scrapes = ref 0 and scrape_bytes = ref 0 in
  let scraper =
    Telemetry.make (function
      | Telemetry.Generation_end _ ->
          let body =
            scrape (fun () ->
                Mutex.protect mutex (fun () ->
                    Serve.prometheus (agg_snap ()) (obs_snap ())))
          in
          incr scrapes;
          scrape_bytes := !scrape_bytes + String.length body
      | _ -> ())
  in
  { sinks = [ Telemetry.jsonl_file path; live; scraper ]; scrapes; scrape_bytes }

let load_report path =
  match Report.load path with
  | Ok r -> r
  | Error msg -> failwith ("perfbench: report: " ^ msg)

let render_report r =
  String.length (Report.to_markdown r)
  + String.length (Json.to_string (Report.to_json r))

let check_report label r =
  Check.check (label ^ ": report outcome is completed")
    (Report.outcome r = Some "completed");
  Check.int (label ^ ": report skipped lines") ~expected:0 (Report.skipped r)

(* ------------------------------------------------------------------ *)
(* Untraced pass                                                        *)

type pass = {
  wall_s : float;  (** campaign + report *)
  campaign_s : float;
  outcome : Fuzzer.outcome;
}

let run_pass spec ~seed ~path =
  let t0 = Trace.now_ns () in
  let sinks = if spec.observed then (observers path).sinks else [] in
  let outcome =
    Fuzzer.run ~options:(options spec ~seed ~sinks) spec.cfg strategy
      ~iterations
  in
  List.iter Telemetry.close sinks;
  let campaign_s = Trace.seconds_since t0 in
  if spec.observed then begin
    let r = load_report path in
    ignore (render_report r);
    check_report spec.name r
  end;
  { wall_s = Trace.seconds_since t0; campaign_s; outcome }

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)

type replay = {
  coverage : float;
  timing_diffs : int;
  testcases_with_diffs : int;
  contention_testcases : int;
  cycles_simulated : int;
  cycles_saved : int;
  checkpoint_hits : int;
  retained : int;
  runs : int;  (** single-secret runs: two per testcase *)
  commits : int;
  commit_cycles : int;  (** cycles in which at least one core committed *)
  cycle_limit_runs : int;
  events : int;  (** telemetry events handed to the sinks *)
  scrapes : int;
  scrape_bytes : int;
  sample : (Testcase.t * Executor.pair) list;
      (** every [sample_every]-th testcase with its checkpointed pair *)
  first_generation : Testcase.t list;
}

let apply_operator rng mstate op tc =
  match (op : Feedback.operator) with
  | Feedback.Composite ->
      Mutation.mutate rng mstate
        ~directed_enabled:strategy.Feedback.directed_mutation tc
  | Feedback.Directed -> Mutation.directed rng mstate tc
  | Feedback.Random_edit -> Mutation.random_edit rng tc
  | Feedback.Similarity -> Mutation.enhance_similarity rng tc

let commit_cycles (r : Machine.result) =
  Array.to_list r.cores
  |> List.concat_map (fun (c : Machine.core_result) ->
         List.map (fun (cr : Sonar_uarch.Core_model.commit_record) -> cr.c_cycle)
           c.commits)
  |> List.sort_uniq Int.compare |> List.length

let commit_count (r : Machine.result) =
  Array.fold_left
    (fun a (c : Machine.core_result) -> a + List.length c.commits)
    0 r.cores

(* [Fuzzer.run]'s loop, step for step: per generation, select and mutate
   (or generate) each candidate, materialise and run both secrets, then
   fold min-intervals, coverage, detection and the strategy hooks in
   candidate order, emitting the same telemetry events (into a trace at
   [path]) when the workload is observed. *)
let replay tr spec ~seed ~path ~sample_every =
  let span nm f = Trace.span tr nm f and nm = Trace.name tr in
  let s_campaign = nm "campaign" and s_generation = nm "generation"
  and s_phase_generate = nm "phase.generate"
  and s_phase_execute = nm "phase.execute"
  and s_phase_feedback = nm "phase.feedback"
  and s_generate = nm "testcase.generate"
  and s_materialize = nm "testcase.materialize"
  and s_machine = nm "machine.run_dual"
  and s_emit = nm "telemetry.emit"
  and s_observe = nm "telemetry.observe"
  and s_min_intervals = nm "executor.min_intervals"
  and s_triggered = nm "executor.triggered"
  and s_coverage = nm "coverage.add"
  and s_detect = nm "detector.detect"
  and s_fold = nm "feedback.fold"
  and s_scrape = nm "serve.metrics" in
  let observers =
    if spec.observed then Some (observers ~scrape:(span s_scrape) path)
    else None
  in
  let sinks = match observers with Some o -> o.sinks | None -> [] in
  let telemetry_on = sinks <> [] in
  let events = ref 0 in
  let emit ev =
    incr events;
    span s_emit (fun () -> Telemetry.emit_all sinks ev)
  in
  let emit_opt = if telemetry_on then Some emit else None in
  let hists =
    if telemetry_on then Some (Telemetry.Histogram.registry ()) else None
  in
  let tspan =
    if telemetry_on then
      let recorder = Telemetry.Span.recorder emit in
      fun name -> Telemetry.Span.enter recorder name
    else fun _ () -> ()
  in
  let rng = Rng.create seed in
  let corpus = Corpus.create () in
  let mstate = Mutation.create_state () in
  let coverage = Coverage.create () in
  let campaign =
    {
      Feedback.corpus;
      mstate;
      emit = emit_opt;
      mutate_ratio = strategy.Feedback.mutate_ratio;
    }
  in
  let timing_diffs = ref 0 and tcs_with_diffs = ref 0
  and contention = ref 0 and cycles_simulated = ref 0 and cycles_saved = ref 0
  and hits = ref 0 and retained = ref 0 and runs = ref 0 and commits = ref 0
  and commit_cyc = ref 0 and limit_runs = ref 0 and sample = ref []
  and first_generation = ref [] in
  let generate iteration =
    span s_generate (fun () ->
        let crng = Rng.split rng in
        match strategy.Feedback.select campaign crng with
        | Some sel ->
            ( iteration,
              sel.Feedback.target,
              Some sel.Feedback.op,
              apply_operator crng mstate sel.Feedback.op
                sel.Feedback.entry.Corpus.tc )
        | None ->
            ( iteration,
              None,
              None,
              Testcase.random crng ~id:iteration ~dual:spec.dual ))
  in
  let execute (_, _, _, tc) =
    let i0, i1 =
      span s_materialize (fun () ->
          (Testcase.materialize tc ~secret:0, Testcase.materialize tc ~secret:1))
    in
    let pair =
      span s_machine (fun () ->
          Executor.run_pair spec.cfg (fun ~secret -> if secret = 0 then i0 else i1))
    in
    if telemetry_on then begin
      emit
        (Telemetry.Testcase_executed
           {
             testcase_id = tc.Testcase.id;
             cycles0 = pair.Executor.run0.Machine.cycles;
             cycles1 = pair.Executor.run1.Machine.cycles;
           });
      Option.iter
        (fun h ->
          span s_observe (fun () ->
              List.iter
                (fun ((point, src_pair), v) ->
                  Telemetry.Histogram.observe h ~point ~src_pair v)
                (Executor.min_intervals pair)))
        hists
    end;
    pair
  in
  let fold (iteration, target, op, tc) (pair : Executor.pair) =
    let saved = pair.cp.Machine.cycles_saved in
    cycles_simulated :=
      !cycles_simulated + pair.run0.Machine.cycles + pair.run1.Machine.cycles
      - saved;
    cycles_saved := !cycles_saved + saved;
    if saved > 0 then incr hits;
    List.iter
      (fun (r : Machine.result) ->
        incr runs;
        commits := !commits + commit_count r;
        commit_cyc := !commit_cyc + commit_cycles r;
        if r.hit_cycle_limit then incr limit_runs)
      [ pair.run0; pair.run1 ];
    if iteration mod sample_every = 0 then sample := (tc, pair) :: !sample;
    let intervals = span s_min_intervals (fun () -> Executor.min_intervals pair) in
    let added, component_delta =
      span s_coverage (fun () -> Coverage.add_pair_delta coverage pair)
    in
    if added > 0. then begin
      incr contention;
      if telemetry_on then
        emit
          (Telemetry.Contention_triggered
             { iteration; added; coverage = Coverage.total coverage })
    end;
    let report = span s_detect (fun () -> Detector.detect pair) in
    let n_findings = List.length report.Detector.findings in
    if n_findings > 0 then begin
      timing_diffs := !timing_diffs + n_findings;
      incr tcs_with_diffs;
      if telemetry_on then
        emit
          (Telemetry.Ccd_finding
             {
               iteration;
               findings = n_findings;
               total_delta = report.Detector.total_delta;
             })
    end;
    let triggered = span s_triggered (fun () -> Executor.triggered pair) in
    let obs =
      {
        Feedback.iteration;
        testcase = tc;
        pair;
        intervals;
        triggered;
        coverage_added = added;
        coverage_total = Coverage.total coverage;
        component_delta;
        report;
        target;
        op;
      }
    in
    span s_fold (fun () ->
        strategy.Feedback.reward campaign obs;
        if strategy.Feedback.consider campaign tc obs then incr retained)
  in
  let now () = if telemetry_on then Unix.gettimeofday () else 0. in
  let campaign_t0 = now () in
  let iteration = ref 0 and generation = ref 0 in
  if telemetry_on then
    emit
      (Telemetry.Campaign_start
         {
           strategy = strategy.Feedback.name;
           seed;
           iterations;
           batch;
           dual = spec.dual;
         });
  span s_campaign (fun () ->
      let end_campaign = tspan "campaign" in
      while !iteration < iterations do
        incr generation;
        let k = min batch (iterations - !iteration) in
        if telemetry_on then
          emit
            (Telemetry.Generation_start
               { generation = !generation; first_iteration = !iteration + 1; size = k });
        span s_generation (fun () ->
            let end_generation = tspan "generation" in
            let sim_before = !cycles_simulated and saved_before = !cycles_saved
            and hits_before = !hits in
            let t0 = now () in
            let candidates =
              span s_phase_generate (fun () ->
                  let end_generate = tspan "generate" in
                  let c = List.init k (fun j -> generate (!iteration + j + 1)) in
                  end_generate ();
                  c)
            in
            if !generation = 1 then
              first_generation := List.map (fun (_, _, _, tc) -> tc) candidates;
            let t1 = now () in
            let pairs =
              span s_phase_execute (fun () ->
                  let end_execute = tspan "execute" in
                  let p = List.map execute candidates in
                  end_execute ();
                  p)
            in
            let t2 = now () in
            span s_phase_feedback (fun () ->
                let end_feedback = tspan "feedback" in
                List.iter2 fold candidates pairs;
                end_feedback ());
            iteration := !iteration + k;
            if telemetry_on then begin
              let t3 = now () in
              let timing phase seconds =
                emit
                  (Telemetry.Phase_timing
                     { generation = !generation; phase; seconds })
              in
              timing Telemetry.Generate (t1 -. t0);
              timing Telemetry.Execute (t2 -. t1);
              timing Telemetry.Feedback (t3 -. t2);
              emit
                (Telemetry.Checkpoint_stats
                   {
                     generation = !generation;
                     testcases = k;
                     hits = !hits - hits_before;
                     cycles_saved = !cycles_saved - saved_before;
                     cycles_simulated = !cycles_simulated - sim_before;
                   });
              Option.iter
                (fun reg ->
                  Telemetry.flush_histograms reg ~generation:!generation emit)
                hists;
              emit
                (Telemetry.Coverage_heatmap
                   {
                     generation = !generation;
                     components = Coverage.heatmap coverage;
                   });
              emit
                (Telemetry.Generation_end
                   {
                     generation = !generation;
                     iterations_done = !iteration;
                     coverage = Coverage.total coverage;
                     timing_diffs = !timing_diffs;
                     corpus_size = Corpus.size corpus;
                   })
            end;
            end_generation ())
      done;
      end_campaign ());
  if telemetry_on then
    emit
      (Telemetry.Campaign_end
         {
           outcome = "completed";
           iterations_done = !iteration;
           coverage = Coverage.total coverage;
           timing_diffs = !timing_diffs;
           corpus_size = Corpus.size corpus;
           wall_seconds = Some (now () -. campaign_t0);
         });
  List.iter Telemetry.close sinks;
  let scrapes, scrape_bytes =
    match observers with
    | Some o -> (!(o.scrapes), !(o.scrape_bytes))
    | None -> (0, 0)
  in
  {
    coverage = Coverage.total coverage;
    timing_diffs = !timing_diffs;
    testcases_with_diffs = !tcs_with_diffs;
    contention_testcases = !contention;
    cycles_simulated = !cycles_simulated;
    cycles_saved = !cycles_saved;
    checkpoint_hits = !hits;
    retained = !retained;
    runs = !runs;
    commits = !commits;
    commit_cycles = !commit_cyc;
    cycle_limit_runs = !limit_runs;
    events = !events;
    scrapes;
    scrape_bytes;
    sample = List.rev !sample;
    first_generation = !first_generation;
  }

let modelled (r : replay) = r.cycles_simulated + r.cycles_saved

(* The replay must reproduce the untraced outcome exactly. *)
let check_replay label (o : Fuzzer.outcome) (r : replay) =
  let l what = Printf.sprintf "%s: replay %s" label what in
  Check.float (l "coverage") ~expected:o.final_coverage r.coverage;
  Check.int (l "timing diffs") ~expected:o.final_timing_diffs r.timing_diffs;
  Check.int (l "testcases with diffs") ~expected:o.testcases_with_diffs
    r.testcases_with_diffs;
  Check.int (l "contention testcases")
    ~expected:o.contentions_triggered_testcases r.contention_testcases;
  Check.int (l "modelled cycles") ~expected:(modelled_cycles o) (modelled r);
  Check.int (l "simulated cycles") ~expected:o.cycles_simulated
    r.cycles_simulated;
  Check.int (l "checkpoint hits") ~expected:o.checkpoint_hits r.checkpoint_hits

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A checkpoint-off dual run must equal the checkpointed one. *)
let check_without_checkpoint spec (tc : Testcase.t) (pair : Executor.pair)
    (off : Executor.pair) =
  Check.check
    (Printf.sprintf "%s: testcase %d identical without checkpointing" spec.name
       tc.id)
    (off.run0 = pair.run0 && off.run1 = pair.run1)

let check_trace spec ~replay ~reference =
  Check.check (spec.name ^ ": replay trace byte-identical to Fuzzer.run's")
    (read_file replay = read_file reference)

(* ------------------------------------------------------------------ *)
(* Recorded outcomes                                                    *)

let check_expected spec ~expected ~seed (o : Fuzzer.outcome) =
  let open Json in
  match member (Int64.to_string seed) (member spec.name expected) with
  | Null -> ()
  | e ->
      let l what = Printf.sprintf "%s seed %Ld: %s" spec.name seed what in
      Check.float (l "final coverage")
        ~expected:(to_float (member "final_coverage" e))
        o.final_coverage;
      Check.int (l "timing diffs")
        ~expected:(to_int (member "final_timing_diffs" e))
        o.final_timing_diffs;
      Check.int (l "testcases with diffs")
        ~expected:(to_int (member "testcases_with_diffs" e))
        o.testcases_with_diffs;
      Check.int (l "modelled cycles")
        ~expected:(to_int (member "modelled_cycles" e))
        (modelled_cycles o)

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)

(* Set-up: a short warm-up campaign of four generations through the
   workload's whole path (fills the executor's scratch context and, when
   observed, exercises the sinks and the report), repeated for three
   seconds; the median is reported. *)
let setup spec ~out =
  let path = Filename.concat out (spec.name ^ "-setup.jsonl") in
  snd
    (repeat_for ~seconds:3. (fun () ->
         let sinks = if spec.observed then (observers path).sinks else [] in
         ignore
           (Fuzzer.run
              ~options:(options spec ~seed:0x5E7L ~sinks)
              spec.cfg strategy ~iterations:(4 * batch));
         List.iter Telemetry.close sinks;
         if spec.observed then ignore (render_report (load_report path))))

let sample_every = 4

let untraced spec ~expected ~seed ~seconds ~out =
  let setup_s = setup spec ~out in
  let path k = Filename.concat out (Printf.sprintf "%s-pass%d.jsonl" spec.name (min k 1)) in
  (* Only pass 0's outcome is kept: it is the one checked afterwards. The
     peak resident set is read after pass 0, so it depends on the seed but
     not on how many passes the host's speed allowed. *)
  let outcome0 = ref None and rss = ref 0. in
  let ps =
    passes ~seconds (fun k ->
        let p = run_pass spec ~seed:(pass_seed seed k) ~path:(path k) in
        if k = 0 then begin
          outcome0 := Some p.outcome;
          rss := peak_rss_mb ()
        end;
        (p.wall_s, p.campaign_s, modelled_cycles p.outcome))
  in
  let o0 = Option.get !outcome0 in
  check_expected spec ~expected ~seed o0;
  let tr = Trace.create ~enabled:false in
  let replay_path = Filename.concat out (spec.name ^ "-replay.jsonl") in
  let r = replay tr spec ~seed ~path:replay_path ~sample_every in
  check_replay spec.name o0 r;
  if spec.observed then check_trace spec ~replay:replay_path ~reference:(path 0);
  List.iter
    (fun (tc, pair) ->
      check_without_checkpoint spec tc pair
        (Executor.execute ~checkpoint:false spec.cfg tc))
    r.sample;
  [
    ("setup_s", setup_s);
    ("wall_s", median (List.map (fun (w, _, _) -> w) ps));
    ( "items_per_s",
      median (List.map (fun (_, c, _) -> float_of_int iterations /. c) ps) );
    ( "sim_cycles_per_s",
      median (List.map (fun (_, c, m) -> float_of_int m /. c) ps) );
    ("peak_rss_mb", !rss);
  ]

(* Golden runs the machine makes per testcase: one per core for secret 0,
   plus one per core whose program differs under secret 1 (a core whose
   program is unchanged shares run 0's outcome). *)
let golden_probe tr sample =
  let s_golden = Trace.name tr "probe.golden.run" in
  let calls = ref 0 in
  List.iter
    (fun ((tc : Testcase.t), _) ->
      let i0 = Testcase.materialize tc ~secret:0 in
      let i1 = Testcase.materialize tc ~secret:1 in
      Array.iteri
        (fun c (input : Machine.core_input) ->
          let programs =
            if input.program = i1.(c).Machine.program then [ input.program ]
            else [ input.program; i1.(c).program ]
          in
          List.iter
            (fun p ->
              incr calls;
              ignore (Trace.span tr s_golden (fun () -> Sonar_isa.Golden.run p)))
            programs)
        i0)
    sample;
  ratio (float_of_int !calls) (float_of_int (List.length sample))

(* The same dual runs with checkpointing on and off, on the same
   materialised inputs, interleaved; the checkpoint-off results must equal
   the replay's. *)
let checkpoint_probe tr spec sample =
  let s_on = Trace.name tr "probe.run_dual.checkpoint"
  and s_off = Trace.name tr "probe.run_dual.no_checkpoint" in
  let inputs =
    List.map
      (fun ((tc : Testcase.t), pair) ->
        let i0 = Testcase.materialize tc ~secret:0 in
        let i1 = Testcase.materialize tc ~secret:1 in
        (tc, pair, fun ~secret -> if secret = 0 then i0 else i1))
      sample
  in
  for round = 1 to 2 do
    List.iter
      (fun ((tc : Testcase.t), (pair : Executor.pair), build) ->
        let on () =
          ignore (Trace.span tr s_on (fun () -> Executor.run_pair spec.cfg build))
        in
        let off () =
          let o =
            Trace.span tr s_off (fun () ->
                Executor.run_pair ~checkpoint:false spec.cfg build)
          in
          if round = 1 then check_without_checkpoint spec tc pair o
        in
        if round = 1 then (on (); off ()) else (off (); on ()))
      inputs
  done

(* [execute_batch] on one generation, without a pool and on a pool of up
   to two domains (never more than the host has). *)
let pool_probe spec tcs =
  let jobs = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let time f =
    let t0 = Trace.now_ns () in
    ignore (f ());
    Trace.seconds_since t0
  in
  Domain_pool.with_pool ~jobs (fun pool ->
      let seq () = Executor.execute_batch spec.cfg tcs in
      let par () = Executor.execute_batch ~pool spec.cfg tcs in
      ignore (par ());
      let runs = List.init 3 (fun _ -> (time seq, time par)) in
      let c0 = (Gc.quick_stat ()).minor_collections in
      ignore (par ());
      let collections = (Gc.quick_stat ()).minor_collections - c0 in
      ( ratio (median (List.map fst runs)) (median (List.map snd runs)),
        float_of_int collections ))

let traced spec ~seed ~seconds ~out =
  ignore (setup spec ~out);
  let tr = Trace.create ~enabled:true in
  let s_load = Trace.name tr "report.load"
  and s_render = Trace.name tr "report.render" in
  let untraced_s = ref 0. and traced_s = ref 0. in
  let gc_words = ref 0. and gc_major = ref 0 in
  let report_events = ref 0 and report_skipped = ref 0 in
  let pairs =
    passes ~seconds (fun k ->
        let seed = pass_seed seed k in
        let path = Filename.concat out (spec.name ^ "-pass.jsonl") in
        let g0 = Gc.quick_stat () in
        let p = run_pass spec ~seed ~path in
        let g1 = Gc.quick_stat () in
        gc_words := !gc_words +. (g1.minor_words -. g0.minor_words);
        gc_major := !gc_major + (g1.major_collections - g0.major_collections);
        untraced_s := !untraced_s +. p.wall_s;
        let replay_path = Filename.concat out (spec.name ^ "-replay.jsonl") in
        let t0 = Trace.now_ns () in
        let r =
          replay tr spec ~seed ~path:replay_path
            ~sample_every:(if k = 0 then sample_every else max_int)
        in
        if spec.observed then begin
          let rep = Trace.span tr s_load (fun () -> load_report replay_path) in
          ignore (Trace.span tr s_render (fun () -> render_report rep));
          report_events := !report_events + Report.events rep;
          report_skipped := !report_skipped + Report.skipped rep;
          check_trace spec ~replay:replay_path ~reference:path
        end;
        traced_s := !traced_s +. Trace.seconds_since t0;
        check_replay spec.name p.outcome r;
        r)
  in
  let n_passes = float_of_int (List.length pairs) in
  let r0 = List.hd pairs in
  let sum f = List.fold_left (fun a r -> a + f r) 0 pairs |> float_of_int in
  let calls_per_testcase = golden_probe tr r0.sample in
  checkpoint_probe tr spec r0.sample;
  let pool_speedup, pool_collections = pool_probe spec r0.first_generation in
  let trace_bytes =
    if spec.observed then
      float_of_int (String.length (read_file (Filename.concat out (spec.name ^ "-replay.jsonl"))))
    else 0.
  in
  Trace.write tr (Filename.concat out (spec.name ^ "-spans.jsonl"));
  let stats = Trace.summarize tr in
  Trace.print_self_times stats;
  let st = Trace.stat stats in
  let per_call name = ratio (st name).self_s (float_of_int (st name).calls) *. 1e6 in
  let machine = st "machine.run_dual" in
  let testcases = float_of_int iterations *. n_passes in
  let modelled = sum modelled in
  let runs = sum (fun r -> r.runs) in
  let layer_self =
    List.fold_left (fun a nm -> a +. (st nm).self_s) 0.
      [
        "testcase.generate"; "testcase.materialize"; "machine.run_dual";
        "telemetry.emit"; "telemetry.observe"; "executor.min_intervals";
        "executor.triggered"; "coverage.add"; "detector.detect"; "feedback.fold";
        "serve.metrics"; "report.load"; "report.render";
      ]
  in
  (* Sink work only: the /metrics renders nested in it are serve's. *)
  let emit_s = (st "telemetry.emit").self_s in
  let telemetry_s = emit_s +. (st "telemetry.observe").total_s in
  let events = sum (fun r -> r.events) in
  let on = st "probe.run_dual.checkpoint" and off = st "probe.run_dual.no_checkpoint" in
  [
    ("testcase.generate_us", per_call "testcase.generate");
    ("testcase.materialize_us", per_call "testcase.materialize");
    ("golden.run_us", per_call "probe.golden.run");
    ("golden.calls_per_testcase", calls_per_testcase);
    ("machine.dual_run_us.p50", percentile machine.durations 0.5 *. 1e6);
    ("machine.dual_run_us.p99", percentile machine.durations 0.99 *. 1e6);
    ("machine.busy_share", ratio machine.total_s !traced_s);
    ("machine.ns_per_modelled_cycle", ratio (machine.total_s *. 1e9) modelled);
    ("machine.commit_cycle_share", ratio (sum (fun r -> r.commit_cycles)) modelled);
    ("machine.ipc", ratio (sum (fun r -> r.commits)) modelled);
    ("machine.cycle_limit_runs", sum (fun r -> r.cycle_limit_runs) /. n_passes);
    ("machine.minor_words_per_run", ratio machine.self_words (float_of_int machine.calls));
    ("checkpoint.hit_share", ratio (sum (fun r -> r.checkpoint_hits)) (runs /. 2.));
    ("checkpoint.cycles_saved_share", ratio (sum (fun r -> r.cycles_saved)) modelled);
    ("checkpoint.wall_saved_share", 1. -. ratio on.total_s off.total_s);
    ("executor.min_intervals_us", per_call "executor.min_intervals");
    ("executor.triggered_us", per_call "executor.triggered");
    ("coverage.add_us", per_call "coverage.add");
    ("detector.detect_us", per_call "detector.detect");
    ("detector.finding_share", ratio (sum (fun r -> r.testcases_with_diffs)) testcases);
    ("feedback.fold_us", per_call "feedback.fold");
    ("feedback.retained_share", ratio (sum (fun r -> r.retained)) testcases);
    ("domain_pool.speedup", pool_speedup);
    ("domain_pool.minor_collections", pool_collections);
    ("telemetry.events", events /. n_passes);
    ("telemetry.bytes", trace_bytes);
    ("telemetry.emit_us_per_event", ratio (emit_s *. 1e6) events);
    ("telemetry.overhead_share", ratio telemetry_s !traced_s);
    ("report.parse_events_per_s", ratio (float_of_int !report_events) (st "report.load").total_s);
    ("report.render_s", ratio (st "report.render").total_s n_passes);
    ("report.skipped_lines", float_of_int !report_skipped);
    ("serve.metrics_render_us", per_call "serve.metrics");
    ("serve.metrics_bytes", ratio (sum (fun r -> r.scrape_bytes)) (sum (fun r -> r.scrapes)));
    ("gc.minor_words", !gc_words /. n_passes);
    ("gc.major_collections", float_of_int !gc_major /. n_passes);
    ("tracing.overhead_share", ratio (!traced_s -. !untraced_s) !untraced_s);
    ("tracing.uncovered_share", 1. -. ratio layer_self !traced_s);
  ]
