(* The static-rtl workload: for both DUTs, generate the padded netlist at
   full scale, analyse and instrument it (Figures 6/7 and Table 2's
   compile stage), then compile the instrumented reduced-scale netlist on
   the Compiled engine and step it (Table 2's simulation speed). It never
   calls the timing model. *)

open Sonar_ir
open Measure
module Engine = Sonar_rtlsim.Engine
module Config = Sonar_uarch.Config

let duts = [ Config.boom; Config.nutshell ]

(* Clock cycles stepped per DUT per pass; one cycle steps every module. *)
let rtl_cycles = 20_000

(* The engine's inputs: each DUT's instrumented netlist at Table 2's
   reduced simulation scale. *)
let reduced cfg =
  (Instrument.instrument (Sonar_dut.Netlist_gen.generate ~scale:0.01 ~pad:false cfg))
    .circuit
    .modules

let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

(* Drive every input of [m] with the next values of the seeded stream. *)
let poke_inputs engines m state =
  List.iter
    (fun (name, _) ->
      state := lcg !state;
      List.iter (fun e -> Engine.poke_int e name !state) engines)
    (Fmodule.inputs m)

type pass = {
  wall_s : float;
  analyze_s : float;  (** generate + analyse + instrument, both DUTs *)
  stmts : int;  (** statements of the full-scale netlists *)
  step_s : float;
  steps : int;  (** [Engine.step] calls *)
  step_words : float;
  monitored : int;
  stmts_added : int;
}

let expected_points expected cfg =
  let e = Sonar.Json.member cfg.Config.name (Sonar.Json.member "static-rtl" expected) in
  (Sonar.Json.(to_int (member "identified" e)), Sonar.Json.(to_int (member "monitored" e)))

let run_pass tr ~expected ~seed reduced =
  let span nm f = Trace.span tr nm f and nm = Trace.name tr in
  let s_gen = nm "netlist_gen.generate" and s_analysis = nm "analysis.summarize"
  and s_instrument = nm "instrument.instrument"
  and s_compile = nm "engine.compile" and s_step = nm "engine.step" in
  let t0 = Trace.now_ns () in
  let analyze_s = ref 0. and stmts = ref 0 and step_s = ref 0. and steps = ref 0
  and step_words = ref 0. and monitored = ref 0 and added = ref 0 in
  List.iter2
    (fun cfg modules ->
      let ta = Trace.now_ns () in
      let circuit =
        span s_gen (fun () -> Sonar_dut.Netlist_gen.generate ~pad:true cfg)
      in
      let summary = span s_analysis (fun () -> Analysis.summarize circuit) in
      let instr = span s_instrument (fun () -> Instrument.instrument circuit) in
      analyze_s := !analyze_s +. Trace.seconds_since ta;
      stmts := !stmts + Circuit.stmt_count circuit;
      monitored := !monitored + summary.monitored_points;
      added := !added + instr.stmts_added;
      let identified, mon = expected_points expected cfg in
      let l what = Printf.sprintf "static-rtl %s: %s" cfg.Config.name what in
      Check.int (l "identified points") ~expected:identified
        summary.identified_points;
      Check.int (l "monitored points") ~expected:mon summary.monitored_points;
      Check.int (l "instrumented points") ~expected:mon
        instr.points_instrumented;
      let engines =
        span s_compile (fun () ->
            List.map (Engine.compile ~backend:Engine.Compiled) modules)
      in
      let state = ref (Int64.to_int seed lor 1) in
      List.iter2 (fun e m -> poke_inputs [ e ] m state) engines modules;
      let step_all () =
        for _ = 1 to rtl_cycles do
          List.iter Engine.step engines
        done
      in
      let ts = Trace.now_ns () and w0 = Gc.minor_words () in
      span s_step step_all;
      step_words := !step_words +. (Gc.minor_words () -. w0);
      step_s := !step_s +. Trace.seconds_since ts;
      steps := !steps + (rtl_cycles * List.length engines))
    duts reduced;
  {
    wall_s = Trace.seconds_since t0;
    analyze_s = !analyze_s;
    stmts = !stmts;
    step_s = !step_s;
    steps = !steps;
    step_words = !step_words;
    monitored = !monitored;
    stmts_added = !added;
  }

(* Tree (the reference interpreter) against Compiled on every module of
   both reduced netlists, under a seeded stimulus: every signal must agree
   every cycle. One checked output per module and cycle. *)
let differential ~seed reduced =
  let state = ref (Int64.to_int seed lor 1) in
  List.iter
    (List.iter (fun m ->
         let tree = Engine.compile ~backend:Engine.Tree m in
         let compiled = Engine.compile ~backend:Engine.Compiled m in
         let names = Engine.signal_names tree in
         for cycle = 1 to 16 do
           poke_inputs [ tree; compiled ] m state;
           Engine.step tree;
           Engine.step compiled;
           Check.check
             (Printf.sprintf "static-rtl: %s cycle %d Tree = Compiled"
                m.Fmodule.name cycle)
             (List.for_all
                (fun n ->
                  Sonar_rtlsim.Bitvec.equal (Engine.peek tree n)
                    (Engine.peek compiled n))
                names)
         done))
    reduced

(* Set-up builds the engine's inputs. *)
let setup () = repeat_for ~seconds:2. (fun () -> List.map reduced duts)

let untraced ~expected ~seed ~seconds =
  let reduced, setup_s = setup () in
  let tr = Trace.create ~enabled:false in
  (* Peak resident set after pass 0, as in the fuzz workloads. *)
  let rss = ref 0. in
  let ps =
    passes ~seconds (fun k ->
        let p = run_pass tr ~expected ~seed reduced in
        if k = 0 then rss := peak_rss_mb ();
        p)
  in
  differential ~seed reduced;
  let sum f = List.fold_left (fun a p -> a +. f p) 0. ps in
  [
    ("setup_s", setup_s);
    ("wall_s", median (List.map (fun p -> p.wall_s) ps));
    ("items_per_s", ratio (sum (fun p -> float_of_int p.stmts)) (sum (fun p -> p.analyze_s)));
    ( "sim_cycles_per_s",
      ratio
        (float_of_int (rtl_cycles * List.length duts * List.length ps))
        (sum (fun p -> p.step_s)) );
    ("peak_rss_mb", !rss);
  ]

let traced ~expected ~seed ~seconds ~out =
  let reduced = List.map reduced duts in
  let off = Trace.create ~enabled:false and tr = Trace.create ~enabled:true in
  let gc_words = ref 0. and gc_major = ref 0 in
  let pairs =
    passes ~seconds (fun _ ->
        let g0 = Gc.quick_stat () in
        let u = run_pass off ~expected ~seed reduced in
        let g1 = Gc.quick_stat () in
        gc_words := !gc_words +. (g1.minor_words -. g0.minor_words);
        gc_major := !gc_major + (g1.major_collections - g0.major_collections);
        (u, run_pass tr ~expected ~seed reduced))
  in
  differential ~seed reduced;
  Trace.write tr (Filename.concat out "static-rtl-spans.jsonl");
  let stats = Trace.summarize tr in
  Trace.print_self_times stats;
  let st = Trace.stat stats in
  let n = float_of_int (List.length pairs) in
  let sum f = List.fold_left (fun a p -> a +. f p) 0. pairs in
  let traced = List.map snd pairs in
  let tsum f = List.fold_left (fun a p -> a +. f p) 0. traced in
  let untraced_s = sum (fun (u, _) -> u.wall_s) and traced_s = tsum (fun p -> p.wall_s) in
  let layer_s =
    List.fold_left
      (fun a name -> a +. (st name).Trace.self_s)
      0.
      [ "netlist_gen.generate"; "analysis.summarize"; "instrument.instrument";
        "engine.compile"; "engine.step" ]
  in
  let steps = tsum (fun p -> float_of_int p.steps) in
  [
    ("netlist_gen.s", (st "netlist_gen.generate").total_s /. n);
    ("analysis.s", (st "analysis.summarize").total_s /. n);
    ("analysis.points_monitored", tsum (fun p -> float_of_int p.monitored) /. n);
    ("instrument.s", (st "instrument.instrument").total_s /. n);
    ("instrument.stmts_added", tsum (fun p -> float_of_int p.stmts_added) /. n);
    ("engine.compile_s", (st "engine.compile").total_s /. n);
    ("engine.step_ns", ratio ((st "engine.step").total_s *. 1e9) steps);
    ("engine.minor_words_per_step", ratio (tsum (fun p -> p.step_words)) steps);
    ("gc.minor_words", !gc_words /. n);
    ("gc.major_collections", float_of_int !gc_major /. n);
    ("tracing.overhead_share", ratio (traced_s -. untraced_s) untraced_s);
    ("tracing.uncovered_share", 1. -. ratio layer_s traced_s);
  ]
