(* Command-line front end: quick access to the analysis and optimization
   passes on built-in workloads.

   dune exec bin/lowpower_cli.exe -- analyze --circuit multiplier --width 5
   dune exec bin/lowpower_cli.exe -- map --circuit adder --objective power
   dune exec bin/lowpower_cli.exe -- encode --states 12 --seed 3
   dune exec bin/lowpower_cli.exe -- precompute --width 12
   dune exec bin/lowpower_cli.exe -- businvert --width 16 --words 4000
   dune exec bin/lowpower_cli.exe -- compile --taps 8 *)

open Cmdliner

(* A fixed-choice argument over the names of [table]: Cmdliner rejects
   any other value as a usage error (exit 124) listing the valid ones, so
   [List.assoc name table] cannot fail on a parsed name. *)
let one_of table = Arg.enum (List.map (fun (name, _) -> (name, name)) table)

(* Build a command's input from its arguments, then run the command [f]
   on it.  A library constructor rejects an out-of-range value (a zero
   width, a multiplier wider than 15 bits) with [Invalid_argument]; that
   is a usage error, which [input_cmd] turns into exit 124 with the
   library's message.  An exception raised inside [f] is a bug and still
   exits 125. *)
let with_input build f =
  match build () with
  | input -> Ok (f input)
  | exception Invalid_argument msg -> Error msg

(* A subcommand whose term runs through [with_input]. *)
let input_cmd info term = Cmd.v info (Term.term_result' ~usage:true term)

let circuits =
  [ ("adder", fun width _ -> (Circuits.ripple_adder width).Circuits.net);
    ("csel", fun width _ -> (Circuits.carry_select_adder width).Circuits.net);
    ("multiplier",
     fun width _ -> (Circuits.array_multiplier width).Circuits.net);
    ("comparator", fun width _ -> (Circuits.comparator width).Circuits.net);
    ("random",
     fun width seed ->
       Gen_comb.random (Lowpower.Rng.create seed)
         { Gen_comb.default_shape with Gen_comb.num_inputs = width }) ]

let build_circuit name width seed = List.assoc name circuits width seed

let circuit_arg =
  Arg.(value & opt (one_of circuits) "adder"
       & info [ "circuit" ] ~docv:"NAME"
           ~doc:"Workload: adder, csel, multiplier, comparator, random.")

let width_arg default =
  Arg.(value & opt int default
       & info [ "width" ] ~docv:"N" ~doc:"Operand width in bits.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

(* --- analyze --- *)

let analyze circuit width seed =
  with_input (fun () -> build_circuit circuit width seed) @@ fun net ->
  let input_probs = Probability.uniform_inputs net in
  let act = Activity.zero_delay net ~input_probs in
  Printf.printf "circuit: %s (width %d)\n" circuit width;
  Printf.printf "gates: %d, literals: %d, critical delay: %.1f\n"
    (Network.node_count net) (Network.literal_count net)
    (Network.critical_delay net);
  Printf.printf "switched capacitance (zero delay, exact): %.2f units/cycle\n"
    (Activity.switched_capacitance net act);
  let stim =
    Stimulus.random (Lowpower.Rng.create seed)
      ~width:(List.length (Network.inputs net))
      ~length:1000 ()
  in
  let r = Event_sim.run net Event_sim.Unit_delay stim in
  Printf.printf
    "unit-delay simulation: %.2f units/cycle, %.1f%% spurious transitions\n"
    (Event_sim.switched_capacitance net r)
    (100.0 *. Event_sim.spurious_fraction r);
  List.iter
    (fun i -> Network.set_cap net i (Network.cap net i *. 20.0e-15))
    (Network.node_ids net);
  Format.printf "Eqn. 1 at 3.3 V / 50 MHz (20 fF nodes): %a@."
    Lowpower.Power_model.pp_breakdown
    (Activity.network_power Lowpower.Power_model.default_params net act)

let analyze_cmd =
  input_cmd
    (Cmd.info "analyze" ~doc:"Activity, glitch and Eqn.-1 power analysis")
    Term.(const analyze $ circuit_arg $ width_arg 6 $ seed_arg)

(* --- map --- *)

let objectives =
  [ ("area", fun _ _ -> Mapper.Area);
    ("delay", fun _ _ -> Mapper.Delay);
    ("power",
     fun subj input_probs ->
       Mapper.Power (Activity.zero_delay subj ~input_probs)) ]

let map_run circuit width seed objective =
  with_input (fun () -> build_circuit circuit width seed) @@ fun net ->
  let subj = Subject.decompose net in
  let input_probs = Probability.uniform_inputs subj in
  let m = Mapper.map subj (List.assoc objective objectives subj input_probs) in
  Printf.printf "objective: %s\narea: %.1f\ncritical delay: %.1f\n"
    objective (Mapper.total_area m) (Mapper.critical_delay m);
  Printf.printf "switched capacitance: %.1f units/cycle\ncells:\n"
    (Mapper.switched_capacitance m ~input_probs);
  List.iter (fun (n, c) -> Printf.printf "  %-8s x%d\n" n c) (Mapper.instances m)

let map_cmd =
  let objective =
    Arg.(value & opt (one_of objectives) "power"
         & info [ "objective" ] ~doc:"area, delay or power.")
  in
  input_cmd (Cmd.info "map" ~doc:"Technology mapping (DAGON tree covering)")
    Term.(const map_run $ circuit_arg $ width_arg 4 $ seed_arg $ objective)

(* --- encode --- *)

let encode_run states seed =
  with_input (fun () ->
      Gen_fsm.random (Lowpower.Rng.create seed) ~num_states:states
        ~num_inputs:2 ~num_outputs:2 ())
  @@ fun stg ->
  let q = Markov.uniform_inputs stg in
  Printf.printf "random %d-state FSM (seed %d); self-loop fraction %.1f%%\n"
    states seed
    (100.0 *. Markov.self_loop_probability stg q);
  List.iter
    (fun (name, enc) ->
      Printf.printf "  %-10s %2d bits  %.3f FF toggles/cycle\n" name
        enc.Encode.bits
        (Encode.weighted_activity stg q enc))
    [ ("binary", Encode.binary ~num_states:states);
      ("gray", Encode.gray ~num_states:states);
      ("one-hot", Encode.one_hot ~num_states:states);
      ("low-power", Encode.low_power stg q) ]

let encode_cmd =
  let states =
    Arg.(value & opt int 12 & info [ "states" ] ~doc:"Number of FSM states.")
  in
  input_cmd (Cmd.info "encode" ~doc:"State-encoding comparison for low power")
    Term.(const encode_run $ states $ seed_arg)

(* --- precompute --- *)

let precompute_run width seed =
  with_input (fun () -> Circuits.comparator width) @@ fun dp ->
  let keep =
    [ List.nth dp.Circuits.a_bits (width - 1);
      List.nth dp.Circuits.b_bits (width - 1) ]
  in
  let arch = Precompute.build dp.Circuits.net ~output:"out0" ~keep () in
  let stim =
    Stimulus.random (Lowpower.Rng.create seed) ~width:(2 * width) ~length:800 ()
  in
  let ok = Precompute.equivalent arch ~stimulus:stim in
  let plain, pre = Precompute.energy_comparison arch ~stimulus:stim in
  Printf.printf "comparator width %d; equivalent: %b\n" width ok;
  Printf.printf "P(shutdown) = %.3f\n"
    (Precompute.shutdown_probability dp.Circuits.net ~output:"out0" ~keep
       ~input_probs:(Array.make (2 * width) 0.5));
  Printf.printf "plain: %.0f, precomputed: %.0f, saving %.1f%%\n"
    (Seq_circuit.total_energy plain)
    (Seq_circuit.total_energy pre)
    (100.0
    *. (1.0 -. Seq_circuit.total_energy pre /. Seq_circuit.total_energy plain))

let precompute_cmd =
  input_cmd (Cmd.info "precompute" ~doc:"Fig.-1 precomputed comparator")
    Term.(const precompute_run $ width_arg 12 $ seed_arg)

(* --- businvert --- *)

let businvert_run width words seed =
  let r = Lowpower.Rng.create seed in
  with_input (fun () ->
      [ ("white noise", Traces.random_words r ~width ~n:words);
        ("random walk", Traces.random_walk r ~width ~n:words ~step:8);
        ("sequential", Traces.sequential ~width ~n:words) ])
  @@ List.iter (fun (name, trace) ->
         Printf.printf "  %-12s saving %.1f%%\n" name
           (100.0 *. Bus_invert.saving ~width trace))

let businvert_cmd =
  let words =
    Arg.(value & opt int 4000 & info [ "words" ] ~doc:"Trace length.")
  in
  input_cmd (Cmd.info "businvert" ~doc:"Bus-invert coding savings")
    Term.(const businvert_run $ width_arg 16 $ words $ seed_arg)

(* --- compile --- *)

let compile_run taps =
  with_input (fun () -> Gen_dfg.fir ~taps ()) @@ fun dfg ->
  List.iter
    (fun (name, opts, profile) ->
      let comp = Compile.compile opts dfg in
      let inputs =
        List.mapi (fun k (nm, _) -> (nm, (k * 7) + 1)) (Dfg.inputs dfg)
      in
      let e, cycles = Compile.measure comp profile inputs in
      Printf.printf "  %-24s %3d instrs %4d cycles %8.1f nJ (%s)\n" name
        (List.length comp.Compile.program)
        cycles e profile.Energy_model.profile_name)
    [ ("naive", Compile.naive, Energy_model.gp_cpu);
      ("optimized", Compile.optimized (), Energy_model.gp_cpu);
      ("dsp sched+pair",
       Compile.optimized ~profile:Energy_model.dsp_cpu (),
       Energy_model.dsp_cpu) ]

let compile_cmd =
  let taps =
    Arg.(value & opt int 8 & info [ "taps" ] ~doc:"FIR tap count.")
  in
  input_cmd
    (Cmd.info "compile" ~doc:"Compile an FIR kernel under power models")
    Term.(const compile_run $ taps)

(* --- guard --- *)

let guard_run width duty seed =
  with_input (fun () -> fst (Circuits.mux_compare width)) @@ fun net ->
  let z = List.assoc "z" (Network.outputs net) in
  let eq_root =
    match Network.fanins net z with
    | [ _; _; e ] -> e
    | _ -> failwith "unexpected mux shape"
  in
  match Guard.auto net ~root:eq_root with
  | None -> print_endline "no observability don't-cares; nothing to guard"
  | Some g ->
    let r = Lowpower.Rng.create seed in
    let stim =
      List.init 600 (fun _ ->
          Array.init ((2 * width) + 1) (fun k ->
              if k = 0 then Lowpower.Rng.bernoulli r duty
              else Lowpower.Rng.bool r))
    in
    Printf.printf "guard condition (ODC): %d literals; %d boundary latches
"
      g.Guard.guard_literals g.Guard.latch_count;
    Printf.printf "equivalent: %b
" (Guard.equivalent g net ~stimulus:stim);
    let plain, guarded = Guard.energy_comparison g net ~stimulus:stim in
    Printf.printf "energy: plain %.0f, guarded %.0f (%.1f%% saved)
" plain
      guarded
      (100.0 *. (1.0 -. (guarded /. plain)))

let guard_cmd =
  let duty =
    Arg.(value & opt float 0.7
         & info [ "duty" ] ~doc:"Probability the guarded block is ignored.")
  in
  input_cmd
    (Cmd.info "guard" ~doc:"Guarded evaluation on a mux-selected block")
    Term.(const guard_run $ width_arg 6 $ duty $ seed_arg)

(* --- check --- *)

let print_solver_stats (st : Solver.stats) =
  Printf.printf
    "solver: %d conflicts, %d restarts, %d decisions, %d propagations\n"
    st.Solver.conflicts st.Solver.restarts st.Solver.decisions
    st.Solver.propagations;
  Printf.printf
    "learned: %d clauses live (%d literals), %d reductions dropped %d\n"
    st.Solver.learned_clauses st.Solver.learned_literals
    st.Solver.db_reductions st.Solver.removed_learned;
  Printf.printf
    "preprocessing: %d vars eliminated, %d clauses subsumed, %d strengthened, \
     %d literals minimized\n"
    st.Solver.eliminated_vars st.Solver.subsumed_clauses
    st.Solver.strengthened_clauses st.Solver.minimized_literals

(* Invert the [k]-th logic node of [net] in topological order. *)
let invert_node net k =
  let logic =
    List.filter (fun i -> not (Network.is_input net i)) (Network.topo_order net)
  in
  if k < 0 || k >= List.length logic then
    invalid_arg
      (Printf.sprintf "--mutate %d: only %d logic nodes" k (List.length logic));
  let n = List.nth logic k in
  Network.replace_func net n (Expr.not_ (Network.func net n))
    (Network.fanins net n)

let check_run circuit_a circuit_b width seed mutate =
  with_input (fun () ->
      let a = build_circuit circuit_a width seed in
      let b = build_circuit circuit_b width seed in
      Option.iter (invert_node b) mutate;
      (a, b))
  @@ fun (a, b) ->
  Option.iter
    (fun k ->
      Printf.printf "mutated node %d of %s (function inverted)\n" k circuit_b)
    mutate;
  let stats = ref None in
  let verdict = Cec.check ~on_stats:(fun st -> stats := Some st) a b in
  match verdict with
  | Cec.Equivalent ->
    Printf.printf "EQUIVALENT: %s and %s agree on all %d outputs\n" circuit_a
      circuit_b
      (List.length (Network.outputs a));
    (match !stats with
    | Some st -> print_solver_stats st
    | None -> print_endline "solver: not reached (simulation filter decided)")
  | Cec.Counterexample vec ->
    let pp = String.concat "" (List.map (fun b -> if b then "1" else "0")
                                 (Array.to_list vec)) in
    Printf.printf "NOT EQUIVALENT: counterexample inputs %s\n" pp;
    Printf.printf "replay through event simulator confirms: %b\n"
      (Cec.replay a b vec);
    Option.iter print_solver_stats !stats;
    exit 1

let check_cmd =
  let pos_circuit n name =
    Arg.(value & pos n (one_of circuits) "adder"
         & info [] ~docv:name
             ~doc:"Circuit: adder, csel, multiplier, comparator, random.")
  in
  let mutate =
    Arg.(value & opt (some int) None
         & info [ "mutate" ] ~docv:"K"
             ~doc:"Invert the $(docv)-th logic node of the second circuit \
                   before checking (demonstrates a counterexample).")
  in
  input_cmd
    (Cmd.info "check"
       ~doc:"Combinational equivalence check (random simulation + SAT miter)")
    Term.(const check_run $ pos_circuit 0 "A" $ pos_circuit 1 "B" $ width_arg 6
          $ seed_arg $ mutate)

(* --- seqestimate --- *)

let seqestimate_run bits duty =
  with_input (fun () -> Gen_fsm.counter ~bits) @@ fun stg ->
  let synth = Fsm_synth.synthesize stg (Encode.binary ~num_states:(1 lsl bits)) in
  let est =
    Seq_estimate.steady_state synth.Fsm_synth.circuit
      ~input_bit_probs:[| duty |]
  in
  Printf.printf "counter%d at %.0f%% enable duty
" (1 lsl bits) (100.0 *. duty);
  Printf.printf "FF toggles/cycle: %.4f
" est.Seq_estimate.ff_toggle_rate;
  Printf.printf "switched capacitance/cycle: %.3f
"
    est.Seq_estimate.switched_capacitance;
  Printf.printf "white-noise state assumption error: %.1f%%
"
    (100.0 *. Seq_estimate.white_noise_error est synth.Fsm_synth.circuit)

let seqestimate_cmd =
  let bits =
    Arg.(value & opt int 4 & info [ "bits" ] ~doc:"Counter width in bits.")
  in
  let duty =
    Arg.(value & opt float 0.3 & info [ "duty" ] ~doc:"Enable probability.")
  in
  input_cmd
    (Cmd.info "seqestimate"
       ~doc:"Exact sequential power estimation vs the white-noise assumption")
    Term.(const seqestimate_run $ bits $ duty)

(* --- annotate --- *)

let annotate_run circuit width seed trace_length white_noise top =
  with_input (fun () ->
      let net = build_circuit circuit width seed in
      let nins = List.length (Network.inputs net) in
      ( net,
        if white_noise then
          Stimulus.random (Lowpower.Rng.create seed) ~width:nins
            ~length:trace_length ()
        else
          Traces.correlated_walk (Lowpower.Rng.create seed) ~bits:nins
            ~n:trace_length () ))
  @@ fun (net, trace) ->
  let nins = List.length (Network.inputs net) in
  let sim = Actsim.create net ~trace in
  let a = Annotation.of_actsim sim in
  Printf.printf "annotate %s (width %d): %d nodes, %d-cycle %s trace\n" circuit
    width (Actsim.size sim) (Annotation.cycles a)
    (if white_noise then "white-noise" else "correlated random-walk");
  Printf.printf "hottest nodes (measured):\n";
  List.iteri
    (fun k (id, t) ->
      if k < top then
        Printf.printf "  %-12s %6d toggles  %.3f/cycle  cap %.1f\n"
          (Network.name net id) t (Annotation.rate a id) (Network.cap net id))
    (Annotation.ranked a);
  let measured = Annotation.switched_capacitance a in
  let model probs =
    Activity.switched_capacitance net (Activity.zero_delay net ~input_probs:probs)
  in
  let pct m =
    if measured = 0.0 then 0.0 else 100.0 *. ((m -. measured) /. measured)
  in
  let m_uniform = model (Array.make nins 0.5) in
  let m_probs = model (Annotation.input_probs a) in
  Printf.printf
    "switched capacitance/cycle: measured %.2f; independence model %.2f \
     (%+.1f%%); model with measured input probs %.2f (%+.1f%%)\n"
    measured m_uniform (pct m_uniform) m_probs (pct m_probs);
  let bdd_size order =
    let man =
      match order with None -> Bdd.manager () | Some o -> Bdd.manager ~order:o ()
    in
    let roots =
      List.map (fun (name, _) -> Network.output_bdd net man name)
        (Network.outputs net)
    in
    ignore (Bdd.reorder man roots);
    Bdd.node_count man
  in
  Printf.printf
    "BDD nodes after sifting: declared order %d, measured toggle order %d\n"
    (bdd_size None)
    (bdd_size (Some (Annotation.bdd_input_order a)));
  let st = Actsim.stats sim in
  Printf.printf "engine: %d word evaluations\n" st.Actsim.word_evals

let annotate_cmd =
  let trace_length =
    Arg.(value & opt int 256
         & info [ "trace-length" ] ~docv:"N" ~doc:"Trace length in cycles.")
  in
  let white_noise =
    Arg.(value & flag
         & info [ "white-noise" ]
             ~doc:"Use an uncorrelated random trace instead of the default \
                   correlated random walk.")
  in
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"K" ~doc:"Hottest nodes to list.")
  in
  input_cmd
    (Cmd.info "annotate"
       ~doc:"Measured-activity annotation: per-node toggle report over a \
             trace")
    Term.(const annotate_run $ circuit_arg $ width_arg 6 $ seed_arg
          $ trace_length $ white_noise $ top)

(* --- tournament --- *)

let tournament_run circuit width seed trace_length measured =
  with_input (fun () ->
      if trace_length < 0 then
        invalid_arg "tournament: --trace-length must be >= 0";
      let net = build_circuit circuit width seed in
      let nins = List.length (Network.inputs net) in
      ( net,
        if measured then
          (* Correlated workload: the regime where the measured strategy
             has information the probability models lack. *)
          Some
            (Traces.correlated_walk (Lowpower.Rng.create seed) ~bits:nins
               ~n:(if trace_length > 0 then trace_length else 256)
               ())
        else if trace_length > 0 then
          Some
            (Stimulus.random (Lowpower.Rng.create seed) ~width:nins
               ~length:trace_length ())
        else None ))
  @@ fun (net, trace) ->
  let p = Tournament.run ~name:circuit ?trace net in
  Printf.printf "tournament on %s (width %d, %s scoring)\n" circuit width
    (if trace = None then "estimated" else "measured");
  List.iter
    (fun c ->
      let verdict =
        match c.Tournament.c_verdict with
        | Tournament.Verified -> "verified"
        | Tournament.Refuted _ -> "REFUTED"
        | Tournament.Failed m -> "failed: " ^ m
      in
      Printf.printf "  %-16s %10.3f cap  %4d lits  %s\n" c.Tournament.c_strategy
        c.Tournament.score c.Tournament.literals verdict)
    p.Tournament.candidates;
  Printf.printf "champion: %s (%.3f vs source %.3f, margin %.3f)\n"
    p.Tournament.champion p.Tournament.champion_score p.Tournament.source_score
    p.Tournament.margin;
  print_solver_stats p.Tournament.sat

let tournament_cmd =
  let trace_length =
    Arg.(value & opt int 0
         & info [ "trace-length" ] ~docv:"N"
             ~doc:"Score by measured toggles over an $(docv)-cycle random \
                   trace instead of estimated activity.")
  in
  let measured =
    Arg.(value & flag
         & info [ "measured" ]
             ~doc:"Score over a correlated random-walk trace (default 256 \
                   cycles, or --trace-length) and add the measured \
                   resynthesis strategy to the roster.")
  in
  input_cmd
    (Cmd.info "tournament"
       ~doc:"Race synthesis strategies; promote a SAT-verified champion")
    Term.(const tournament_run $ circuit_arg $ width_arg 5 $ seed_arg
          $ trace_length $ measured)

(* --- size --- *)

let size_run circuit width seed slack_factor leak_budget =
  with_input (fun () -> build_circuit circuit width seed) @@ fun net ->
  let subj = Subject.decompose net in
  let input_probs = Probability.uniform_inputs subj in
  let act = Activity.zero_delay subj ~input_probs in
  let m = Mapper.map subj (Mapper.Power act) in
  let leakage_budget =
    (* --leak-budget is a fraction of the max-drive starting leakage. *)
    match leak_budget with
    | None -> None
    | Some f ->
      (* Step 0, the max-drive start, is recorded before the loop. *)
      let config = { Dualvth.default_config with max_iterations = 0 } in
      let probe = Dualvth.optimize_mapping ~config m ~input_probs in
      Some (f *. (Dualvth.initial_step probe).Dualvth.leakage)
  in
  let r =
    Dualvth.optimize_mapping ?slack_factor ?leakage_budget m ~input_probs
  in
  let gates = List.length r.Dualvth.assignment in
  Printf.printf "sizing %s (width %d): %d gates, required time %.2f\n" circuit
    width gates r.Dualvth.required;
  Printf.printf "  %4s %5s %4s %4s  %10s %9s %10s %9s %5s\n" "iter" "down"
    "up" "hvt" "slack" "swcap" "leak uA" "power uW" "hvt%";
  List.iter
    (fun (s : Dualvth.step) ->
      Printf.printf
        "  %4d %5d %4d %4d  %10.3f %9.1f %10.4f %9.3f %5.1f\n"
        s.Dualvth.iteration s.Dualvth.downsized s.Dualvth.upsized
        s.Dualvth.hvt_assigned s.Dualvth.worst_slack s.Dualvth.switched_cap
        (s.Dualvth.leakage *. 1e6)
        (Lowpower.Power_model.total s.Dualvth.power *. 1e6)
        (100.0 *. float_of_int s.Dualvth.hvt_count /. float_of_int gates))
    r.Dualvth.steps;
  let s0 = Dualvth.initial_step r and sf = Dualvth.final_step r in
  let p0 = Lowpower.Power_model.total s0.Dualvth.power
  and pf = Lowpower.Power_model.total sf.Dualvth.power in
  Printf.printf
    "total power %.3f -> %.3f uW (%.1f%% saved vs max-drive low-Vth); \
     leakage %.4f -> %.4f uA (%.1fx)\n"
    (p0 *. 1e6) (pf *. 1e6)
    (100.0 *. (1.0 -. (pf /. p0)))
    (s0.Dualvth.leakage *. 1e6)
    (sf.Dualvth.leakage *. 1e6)
    (if sf.Dualvth.leakage > 0.0 then s0.Dualvth.leakage /. sf.Dualvth.leakage
     else infinity);
  let st = r.Dualvth.sta in
  Printf.printf
    "moves: %d; STA: %d incremental updates (%d arrival + %d required \
     visits), %d full passes\n"
    r.Dualvth.moves st.Sta.updates st.Sta.arrival_visits
    st.Sta.required_visits st.Sta.full_passes

let size_cmd =
  let slack_factor =
    Arg.(value & opt (some float) None
         & info [ "slack" ] ~docv:"F"
             ~doc:"Required time as $(docv) x the max-drive critical delay \
                   (default 1.0: the starting critical path is the \
                   constraint).")
  in
  let leak_budget =
    Arg.(value & opt (some float) None
         & info [ "leak-budget" ] ~docv:"F"
             ~doc:"Leakage budget as a fraction $(docv) of the max-drive \
                   starting leakage; high-Vth swaps stop once met (default: \
                   swap every gate the slack allows).")
  in
  input_cmd
    (Cmd.info "size"
       ~doc:"Slack-driven gate sizing + dual-Vth assignment on a mapped \
             netlist")
    Term.(const size_run $ circuit_arg $ width_arg 4 $ seed_arg $ slack_factor
          $ leak_budget)

(* --- rewrite --- *)

let workloads =
  [ ("fir", fun taps coeffs width -> Gen_dfg.fir ~taps ?coeffs ~width ());
    ("mac", fun taps coeffs width -> Gen_dfg.mac_chain ~taps ?coeffs ~width ());
    ("biquad", fun _ _ _ -> Gen_dfg.biquad ()) ]

let rewrite_run workload taps width samples trace_len seed model coeffs =
  let r = Lowpower.Rng.create seed in
  with_input (fun () ->
      if samples < 0 then invalid_arg "rewrite: --samples must be >= 0";
      if trace_len < 1 then invalid_arg "rewrite: --trace-length must be >= 1";
      let dfg = List.assoc workload workloads taps coeffs width in
      (dfg, Gen_dfg.random_samples r dfg ~n:trace_len ~correlated:true ()))
  @@ fun (dfg, trace) ->
  let memo = Memo.create () in
  let res = Search.run ~samples ~memo ~model ~rng:r dfg ~trace in
  let model_name =
    match res.Search.model with
    | Cost.Toggles -> "toggles"
    | Cost.Independence -> "independence"
    | Cost.Area -> "area"
  in
  Printf.printf
    "rewrite %s (taps %d, width %d): %s cost over %d correlated vectors\n"
    workload taps (Dfg.width dfg) model_name trace_len;
  Printf.printf "  ops %d -> %d\n" (Dfg.num_ops dfg)
    (Dfg.num_ops res.Search.final);
  List.iter
    (fun (s : Search.step) ->
      Printf.printf "  %-12s @%-3d  %10.1f -> %10.1f\n" s.Search.rule
        s.Search.site s.Search.cost_before s.Search.cost_after)
    res.Search.steps;
  Printf.printf
    "activity %.1f -> %.1f (%.1f%% reduction); %d candidates, %d accepted \
     (all SAT-proved: %d proofs), %d refuted, %d undecided\n"
    res.Search.initial_cost res.Search.final_cost
    (100.0
    *. (1.0 -. (res.Search.final_cost /. Float.max res.Search.initial_cost 1e-9)
       ))
    res.Search.candidates
    (List.length res.Search.steps)
    res.Search.proofs
    (List.length res.Search.refuted)
    res.Search.undecided;
  List.iter
    (fun (rf : Search.refutation) ->
      Printf.printf "  refuted: %s @%d (%s)\n" rf.Search.rule rf.Search.site
        (match rf.Search.stage with
        | `Random_exec -> "random execution"
        | `Sat -> "SAT counterexample"))
    res.Search.refuted;
  print_solver_stats res.Search.sat

let rewrite_cmd =
  let workload =
    Arg.(value & opt (one_of workloads) "fir"
         & info [ "workload" ] ~docv:"NAME"
             ~doc:"Datapath to rewrite: fir, mac, biquad.")
  in
  let taps =
    Arg.(value & opt int 8 & info [ "taps" ] ~docv:"N" ~doc:"Filter taps.")
  in
  let samples =
    Arg.(value & opt int 64
         & info [ "samples" ] ~docv:"N"
             ~doc:"Random-execution vectors per equivalence check (the \
                   cheap gate before the SAT proof).")
  in
  let trace_len =
    Arg.(value & opt int 64
         & info [ "trace-length" ] ~docv:"N"
             ~doc:"Correlated input vectors the activity cost is measured \
                   over.")
  in
  let model =
    Arg.(value
         & opt
             (enum
                [ ("toggles", Cost.Toggles);
                  ("independence", Cost.Independence);
                  ("area", Cost.Area) ])
             Cost.Toggles
         & info [ "model" ] ~docv:"M"
             ~doc:"Cost model: toggles, independence, area.")
  in
  let coeffs =
    Arg.(value & opt (some (list int)) None
         & info [ "coeffs" ] ~docv:"C1,C2,..."
             ~doc:"Comma-separated filter coefficients (default: small odd \
                   constants).")
  in
  input_cmd
    (Cmd.info "rewrite"
       ~doc:"Activity-costed datapath rewriting with SAT-verified search")
    Term.(const rewrite_run $ workload $ taps $ width_arg 8 $ samples
          $ trace_len $ seed_arg $ model $ coeffs)

(* --- batch --- *)

(* Job-list lines: "<kind> <int>" with kind one of estimate / tournament /
   verify / map / fsm; the int seeds a random circuit (fsm: state bits).
   '#' starts a comment.  Without --jobs, a seeded mixed workload is
   generated.  A malformed line raises [Invalid_argument] naming its
   file:line, which [with_input] reports as a usage error. *)
let parse_jobs path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let jobs = ref [] in
  let line_no = ref 0 in
  (try
     while true do
       incr line_no;
       let line = input_line ic in
       let line =
         match String.index_opt line '#' with
         | Some k -> String.sub line 0 k
         | None -> line
       in
       match String.split_on_char ' ' (String.trim line)
             |> List.filter (fun s -> s <> "")
       with
       | [] -> ()
       | [ kind; arg ] ->
         let seed =
           match int_of_string_opt arg with
           | Some s -> s
           | None ->
             invalid_arg
               (Printf.sprintf "%s:%d: bad integer %S" path !line_no arg)
         in
         let label = Printf.sprintf "%s-%s-%d" kind arg !line_no in
         let r = Lowpower.Rng.create seed in
         let net () = Gen_comb.random r Gen_comb.default_shape in
         let job =
           match kind with
           | "estimate" ->
             let net = net () in
             Batch.Estimate
               { label; net;
                 input_probs =
                   Array.make (List.length (Network.inputs net)) 0.5 }
           | "tournament" -> Batch.Synthesize { label; net = net (); trace = None }
           | "verify" ->
             let left = net () in
             Batch.Verify
               { label; left; right = Subject.decompose (Network.copy left) }
           | "map" -> Batch.Map { label; net = net (); power = true }
           | "fsm" ->
             Batch.Encode_fsm
               { label; stg = Gen_fsm.counter ~bits:(max 2 (min 4 seed)) }
           | other ->
             invalid_arg
               (Printf.sprintf "%s:%d: unknown job kind %S" path !line_no
                  other)
         in
         jobs := job :: !jobs
       | _ ->
         invalid_arg
           (Printf.sprintf "%s:%d: expected '<kind> <int>'" path !line_no)
     done
   with End_of_file -> ());
  Array.of_list (List.rev !jobs)

let batch_run jobs_file n seed domains verbose =
  with_input (fun () ->
      match jobs_file with
      | Some path -> parse_jobs path
      | None ->
        if n < 0 then invalid_arg "batch: --count must be >= 0";
        Batch.mixed_workload ~seed ~n ())
  @@ fun jobs ->
  let report = Batch.run ?domains jobs in
  if verbose then
    Array.iter
      (fun (label, outcome) ->
        Printf.printf "  %-10s %s\n" label (Batch.summarize outcome))
      report.Batch.results;
  let p = report.Batch.pool in
  Printf.printf "jobs: %d in %.2f s (%.1f jobs/s) on %d domain(s)\n"
    p.Pool.jobs report.Batch.wall_seconds report.Batch.jobs_per_second
    p.Pool.domains;
  Printf.printf "pool: %d steals moved %d jobs; per-worker %s\n" p.Pool.steals
    p.Pool.stolen_jobs
    (String.concat "/"
       (Array.to_list (Array.map string_of_int p.Pool.executed)));
  let m = report.Batch.memo in
  let lookups = m.Memo.hits + m.Memo.misses in
  Printf.printf
    "cache: %d hits / %d lookups (%.1f%%), %d evictions, %d resident\n"
    m.Memo.hits lookups
    (if lookups = 0 then 0.0
     else 100.0 *. float_of_int m.Memo.hits /. float_of_int lookups)
    m.Memo.evictions m.Memo.entries;
  Printf.printf "tournaments: %d (%d champions verified)\n"
    report.Batch.tournaments report.Batch.champions_verified;
  print_solver_stats report.Batch.sat

let batch_cmd =
  let jobs_file =
    Arg.(value & opt (some file) None
         & info [ "jobs" ] ~docv:"FILE"
             ~doc:"Job list: lines of '<kind> <seed>' with kind estimate, \
                   tournament, verify, map or fsm.  Default: a generated \
                   mixed workload.")
  in
  let n =
    Arg.(value & opt int 200
         & info [ "n"; "count" ] ~docv:"N" ~doc:"Generated workload size.")
  in
  let batch_seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload PRNG seed.")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker domains (default: LOWPOWER_SERVE_DOMAINS, else \
                   the recommended domain count).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print one line per job.")
  in
  input_cmd
    (Cmd.info "batch"
       ~doc:"Multicore batch service: pool + content-hash cache + tournaments")
    Term.(const batch_run $ jobs_file $ n $ batch_seed $ domains $ verbose)

let () =
  let doc = "low-power VLSI optimization toolkit (DAC'95 survey reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "lowpower_cli" ~doc)
          [ analyze_cmd; map_cmd; encode_cmd; precompute_cmd; businvert_cmd;
            compile_cmd; guard_cmd; check_cmd; seqestimate_cmd; annotate_cmd;
            tournament_cmd; size_cmd; rewrite_cmd; batch_cmd ]))
