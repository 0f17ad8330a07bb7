(* SpecDoctor-style fuzzing: coverage-retained random mutation, secret
   regions biased to transient faults, no interval feedback. *)
let specdoctor ?(seed = 7L) ?max_cycles cfg ~iterations =
  let rng = Rng.create seed in
  let mstate = Mutation.create_state () in
  let coverage = Coverage.create () in
  let series = ref [] in
  (* Seed pool: testcases that reached new contention points. *)
  let pool = ref [] in
  let transient_flavor () =
    (* Always a gated transient-style body, as SpecDoctor's templates focus
       on secret-dependent transient windows. *)
    Testcase.Gated
      {
        body =
          [
            Sonar_isa.Instr.Itype (Sonar_isa.Instr.SLLI, Sonar_isa.Reg.of_int 6, Sonar_isa.Reg.of_int 5, 6);
            Sonar_isa.Instr.Rtype
              (Sonar_isa.Instr.ADD, Sonar_isa.Reg.of_int 6, Sonar_isa.Reg.of_int 6, Sonar_isa.Reg.of_int 11);
            Sonar_isa.Instr.Load (Sonar_isa.Instr.LD, Sonar_isa.Reg.of_int 7, Sonar_isa.Reg.of_int 6, 0);
          ];
      }
  in
  for iteration = 1 to iterations do
    let tc =
      match !pool with
      | seed_tc :: _ when Rng.chance rng 0.6 ->
          (* Random (undirected) mutation of a pool member. *)
          let chosen = Rng.pick rng !pool in
          ignore seed_tc;
          Mutation.mutate rng mstate ~directed_enabled:false chosen
      | _ ->
          (* SpecDoctor's generator has no dependency-chain structure and a
             fixed transient-focused secret region. *)
          let tc = Testcase.random rng ~id:iteration ~dual:false in
          { tc with flavor = transient_flavor (); chains = [] }
    in
    let pair = Executor.execute ?max_cycles cfg tc in
    let added = Coverage.add_pair coverage pair in
    if added > 0. then pool := tc :: !pool;
    series :=
      {
        Fuzzer.iteration;
        coverage = Coverage.total coverage;
        timing_diffs = 0;
        corpus_size = List.length !pool;
      }
      :: !series
  done;
  List.rev !series
