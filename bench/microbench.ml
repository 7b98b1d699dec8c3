(* Bechamel microbenchmarks of the computational kernels, doubling as a
   performance-regression suite.  One Test.make per kernel; kept short so
   the full harness stays interactive. *)

open Bechamel
open Toolkit

let bdd_build =
  Test.make ~name:"bdd_adder8_output"
    (Staged.stage (fun () ->
         let net = (Circuits.ripple_adder 8).Circuits.net in
         let man = Bdd.manager () in
         ignore (Network.output_bdd net man "out7")))

let cmp3_tt =
  Truth_table.of_fun 6 (fun code ->
      let a = code land 7 and b = code lsr 3 in
      a > b)

let cover_minimize =
  Test.make ~name:"cover_minimize_cmp3"
    (Staged.stage (fun () ->
         ignore (Cover.minimize (Cover.of_truth_table cmp3_tt))))

(* The unate-recursive complement on the raw minterm cover — the kernel
   under REDUCE and the ODC covers, tracked separately from the full
   espresso loop. *)
let cover_complement =
  let f = Cover.of_truth_table cmp3_tt in
  Test.make ~name:"cover_complement_cmp3"
    (Staged.stage (fun () -> ignore (Cover.complement f)))

(* Whole FSM synthesis path: truth tables -> dc-aware two-level minimize
   per next-state/output bit -> network construction. *)
let fsm_synth =
  let stg = Gen_fsm.modulo_counter ~modulus:12 in
  let enc = Encode.binary ~num_states:12 in
  Test.make ~name:"fsm_synth_mod12"
    (Staged.stage (fun () -> ignore (Fsm_synth.synthesize stg enc)))

(* Canonical event-sim entry: [Event_sim.run] compiles then simulates, the
   cost a one-shot caller pays. *)
let event_sim =
  let net = (Circuits.array_multiplier 4).Circuits.net in
  let stim =
    Stimulus.random (Lowpower.Rng.create 1) ~width:8 ~length:50 ()
  in
  Test.make ~name:"event_sim_mult4_50vec"
    (Staged.stage (fun () -> ignore (Event_sim.run net Event_sim.Unit_delay stim)))

(* The pre-PR-1 reference simulator on the same workload, so the
   compiled-vs-reference gap stays visible in BENCH.json. *)
let event_sim_reference =
  let net = (Circuits.array_multiplier 4).Circuits.net in
  let stim =
    Stimulus.random (Lowpower.Rng.create 1) ~width:8 ~length:50 ()
  in
  Test.make ~name:"event_sim_mult4_50vec_reference"
    (Staged.stage (fun () ->
         ignore (Event_sim.run_reference net Event_sim.Unit_delay stim)))

(* Static timing (arrival + required + slack) on a 1k-gate network; linear
   in the network size since required times use the cached reverse
   adjacency. *)
let required_times_1k =
  let net =
    Gen_comb.random (Lowpower.Rng.create 7)
      { Gen_comb.num_inputs = 24; num_gates = 1000; max_fanin = 3;
        output_fraction = 0.1 }
  in
  Test.make ~name:"required_times_1k"
    (Staged.stage (fun () -> ignore (Network.slacks net ())))

(* Incremental STA on a 1k-gate network.  Each run toggles the same 32
   gates between two delays via [Sta.set_delay], re-propagating arrivals
   and (materialized) requireds after each edit.  The engine is built
   outside the timed region. *)
let sta_incremental_1k =
  let net =
    Gen_comb.random (Lowpower.Rng.create 7)
      { Gen_comb.num_inputs = 24; num_gates = 1000; max_fanin = 3;
        output_fraction = 0.1 }
  in
  let g = Network.timing_graph net in
  let delays = Array.make g.Sta.size 0.0 in
  List.iter (fun i -> delays.(i) <- Network.delay net i) (Network.node_ids net);
  let sta = Sta.create g delays in
  ignore (Sta.required_array sta);
  (* 32 edit sites: the first 32 non-source nodes at or after the middle
     of the topological order — mid-cone gates whose forward and backward
     cones are both a small fraction of the network, i.e. the localized
     edits the sizing loop makes.  One bench invocation re-times all 32,
     which keeps the per-run time well clear of timer/GC jitter — a
     single incremental edit is ~1 µs, too small to measure stably
     run-to-run.  (Spreading the sites across the whole order instead
     would include near-input gates whose fanout cone is most of the
     network, turning the incremental update into a full pass and
     measuring cone size, not engine overhead.) *)
  let topo = g.Sta.topo in
  let sites =
    let picked = ref [] and p = ref (Array.length topo / 2) in
    while List.length !picked < 32 do
      if not g.Sta.is_source.(topo.(!p)) then picked := topo.(!p) :: !picked;
      incr p
    done;
    Array.of_list (List.rev !picked)
  in
  let d0 = Array.map (fun x -> Sta.delay sta x) sites in
  let flip = ref false in
  Test.make ~name:"sta_incremental_1k"
    (Staged.stage (fun () ->
         flip := not !flip;
         Array.iteri
           (fun i x ->
             Sta.set_delay sta x (if !flip then d0.(i) +. 0.5 else d0.(i)))
           sites))

(* Incremental measured-activity maintenance on the same 1k-gate network
   as the STA entry, over a 256-cycle correlated trace.  Each run
   re-expresses the same 32 gates (function inverted, then restored on
   the next run) through replace_func + Actsim.update.  The two
   alternating functions are compiled into arrays outside the timed
   region, so the loop measures the engine, not expression building. *)
let actsim_incremental_1k =
  let net =
    Gen_comb.random (Lowpower.Rng.create 7)
      { Gen_comb.num_inputs = 24; num_gates = 1000; max_fanin = 3;
        output_fraction = 0.1 }
  in
  let trace =
    Traces.correlated_walk (Lowpower.Rng.create 11) ~bits:24 ~n:256 ()
  in
  let sim = Actsim.create net ~trace in
  (* Edit sites from the top of the topological order: a local edit there
     has a shallow output cone, which is the locality the incremental
     engine exploits.  Inverting a node's function forces its entire
     cone to genuinely change values, so the changed-cone cutoff never
     fires early — the speedup measured is cone size, not luck. *)
  let topo = Array.of_list (Network.topo_order net) in
  let sites =
    let picked = ref [] and p = ref (Array.length topo - 1) in
    while List.length !picked < 32 do
      if not (Network.is_input net topo.(!p)) then
        picked := topo.(!p) :: !picked;
      decr p
    done;
    Array.of_list (List.rev !picked)
  in
  let f0 = Array.map (Network.func net) sites in
  let f1 = Array.map Expr.not_ f0 in
  let flip = ref false in
  Test.make ~name:"actsim_incremental_1k"
    (Staged.stage (fun () ->
         flip := not !flip;
         Array.iteri
           (fun i x ->
             Network.replace_func net x
               (if !flip then f1.(i) else f0.(i))
               (Network.fanins net x);
             Actsim.update sim x)
           sites))

(* The whole sizing + dual-Vth loop on the premapped 4-bit multiplier
   (mapping and activity computed outside the timed region): hundreds
   of trial moves per run, every one timed through the incremental
   engine. *)
let dualvth_opt_mult4 =
  let net = (Circuits.array_multiplier 4).Circuits.net in
  let subj = Subject.decompose net in
  let probs = Array.make (List.length (Network.inputs subj)) 0.5 in
  let act = Activity.zero_delay subj ~input_probs:probs in
  let m = Mapper.map ~verify:`Off subj (Mapper.Power act) in
  let mapped = Mapper.netlist m in
  let gates = Mapper.choices m in
  let activity = Mapper.netlist_activity m ~input_probs:probs in
  Test.make ~name:"dualvth_opt_mult4"
    (Staged.stage (fun () ->
         ignore (Dualvth.optimize mapped ~gates ~activity)))

let list_scheduling =
  let dfg = Gen_dfg.ewf_like (Lowpower.Rng.create 2) ~ops:40 in
  let d = Schedule.uniform_delays dfg in
  Test.make ~name:"list_schedule_ewf40"
    (Staged.stage (fun () ->
         ignore (Schedule.list_schedule dfg d ~resources:(fun _ -> 2))))

let iss_run =
  let dfg = Gen_dfg.fir ~taps:8 () in
  let comp = Compile.compile (Compile.optimized ()) dfg in
  let inputs = List.mapi (fun k (nm, _) -> (nm, k + 1)) (Dfg.inputs dfg) in
  Test.make ~name:"iss_fir8"
    (Staged.stage (fun () -> ignore (Compile.run comp inputs)))

let encoding_search =
  let stg = Gen_fsm.modulo_counter ~modulus:12 in
  let q = Markov.uniform_inputs stg in
  Test.make ~name:"encode_low_power_mod12"
    (Staged.stage (fun () -> ignore (Encode.low_power ~restarts:1 stg q)))

let odc_guard =
  let net, _ = Circuits.mux_compare 5 in
  let z = List.assoc "z" (Network.outputs net) in
  let root =
    match Network.fanins net z with [ _; _; e ] -> e | _ -> assert false
  in
  Test.make ~name:"guard_odc_mux5"
    (Staged.stage (fun () -> ignore (Guard.observability_condition net root)))

let seq_chain =
  let stg = Gen_fsm.counter ~bits:4 in
  let synth = Fsm_synth.synthesize stg (Encode.binary ~num_states:16) in
  Test.make ~name:"seq_estimate_counter16"
    (Staged.stage (fun () ->
         ignore
           (Seq_estimate.steady_state synth.Fsm_synth.circuit
              ~input_bit_probs:[| 0.5 |])))

let streaming_kernel =
  let program, layout = Kernels.streaming_fir ~taps:4 ~samples:32 ~pair:true () in
  let coeffs = [ 1; 3; 5; 7 ] in
  let xs = List.init 35 (fun k -> k * 11) in
  Test.make ~name:"iss_streaming_fir32"
    (Staged.stage (fun () ->
         let m = Machine.create ~width:16 () in
         Kernels.load_fir_inputs m layout ~coeffs ~xs;
         ignore (Machine.run m program)))

(* Monte-Carlo signal probability on the 4-bit array multiplier, 4096
   vectors: the scalar one-vector-per-pass loop vs the bit-plane engine
   (63 vectors per word, popcount counting, bernoulli_word input draws). *)
let prob_sim_scalar =
  let net = (Circuits.array_multiplier 4).Circuits.net in
  let input_probs = Probability.uniform_inputs net in
  Test.make ~name:"prob_simulated_mult4_4k"
    (Staged.stage (fun () ->
         ignore
           (Probability.simulated ~packed:false net
              ~rng:(Lowpower.Rng.create 11) ~input_probs ~vectors:4096)))

let prob_sim_bitsim =
  let net = (Circuits.array_multiplier 4).Circuits.net in
  let input_probs = Probability.uniform_inputs net in
  Test.make ~name:"prob_simulated_mult4_4k_bitsim"
    (Staged.stage (fun () ->
         ignore
           (Probability.simulated ~packed:true net
              ~rng:(Lowpower.Rng.create 11) ~input_probs ~vectors:4096)))

(* Exact signal probabilities of the 8-bit array multiplier's subject
   graph (1,000 NAND2/INV nodes, 16 inputs) under uniform inputs.  Its
   global BDDs (151k nodes) pass [Probability.exact]'s budget, so it
   counts all 2^16 vectors; the [_bdd] entry builds the same table from
   the global BDDs, one shared-memo sweep over every node's root. *)
let prob_exact_workload () =
  let subj = Subject.decompose (Circuits.array_multiplier 8).Circuits.net in
  (subj, Probability.uniform_inputs subj)

let prob_exact =
  let subj, input_probs = prob_exact_workload () in
  Test.make ~name:"prob_exact_mult8"
    (Staged.stage (fun () -> ignore (Probability.exact subj ~input_probs)))

let prob_exact_bdd =
  let subj, input_probs = prob_exact_workload () in
  Test.make ~name:"prob_exact_mult8_bdd"
    (Staged.stage (fun () ->
         let man = Bdd.manager () in
         let bdds = Network.global_bdds subj man in
         let ids, roots =
           List.split
             (List.rev (Hashtbl.fold (fun i b acc -> (i, b) :: acc) bdds []))
         in
         let ps = Bdd.probabilities man (fun v -> input_probs.(v)) roots in
         let probs = Hashtbl.create (Hashtbl.length bdds) in
         List.iter2 (Hashtbl.replace probs) ids ps;
         ignore probs))

(* Sequential power simulation of the synthesized 16-state counter over 1k
   cycles: the zero-delay combinational transition counting is the packed
   vs event-driven split; the serial register loop is common to both. *)
let seq_sim_workload () =
  let stg = Gen_fsm.counter ~bits:4 in
  let synth = Fsm_synth.synthesize stg (Encode.binary ~num_states:16) in
  let stim =
    Stimulus.random (Lowpower.Rng.create 13) ~width:1 ~length:1000 ()
  in
  (synth.Fsm_synth.circuit, stim)

let seq_sim_scalar =
  let circuit, stim = seq_sim_workload () in
  Test.make ~name:"seq_sim_counter16_1k"
    (Staged.stage (fun () ->
         ignore (Seq_circuit.simulate ~packed:false circuit stim)))

let seq_sim_bitsim =
  let circuit, stim = seq_sim_workload () in
  Test.make ~name:"seq_sim_counter16_1k_bitsim"
    (Staged.stage (fun () ->
         ignore (Seq_circuit.simulate ~packed:true circuit stim)))

(* CDCL solver on a dense UNSAT instance: PHP(8,7) forces real conflict
   analysis and restarts, unlike the shallow propagation-only CEC cases. *)
let sat_pigeon =
  Test.make ~name:"sat_pigeon_8"
    (Staged.stage (fun () ->
         let s = Solver.create () in
         let p =
           Array.init 8 (fun _ ->
               Array.init 7 (fun _ -> Solver.pos (Solver.new_var s)))
         in
         for i = 0 to 7 do
           Solver.add_clause s (Array.to_list p.(i))
         done;
         for h = 0 to 6 do
           for i = 0 to 7 do
             for j = i + 1 to 7 do
               Solver.add_clause s
                 [ Solver.negate p.(i).(h); Solver.negate p.(j).(h) ]
             done
           done
         done;
         assert (Solver.solve s = Solver.Unsat)))

(* Full equivalence check (random-sim filter + incremental miter SAT)
   between the 8-bit ripple adder and its NAND2/INV factored form. *)
let cec_adder_vs_factored =
  let net = (Circuits.ripple_adder 8).Circuits.net in
  let factored = Subject.decompose net in
  Test.make ~name:"cec_adder8_vs_factored"
    (Staged.stage (fun () -> assert (Cec.check net factored = Cec.Equivalent)))

(* The same check through a live session: the adder is Tseitin-encoded
   once and warmed by one check, both outside the timed region.  Each run
   is a whole [session_check] of the factored form — simulation, the SAT
   sweep onto the base encoding (structural merges and capped local
   proofs), miters for any output left unmerged, retirement — riding on
   every clause learned by earlier runs: the pattern of a tournament
   proving its candidates against one source. *)
let cec_adder_vs_factored_incremental =
  let net = (Circuits.ripple_adder 8).Circuits.net in
  let factored = Subject.decompose net in
  let sess = Cec.session net in
  assert (Cec.session_check sess factored = Cec.Equivalent);
  Test.make ~name:"cec_adder8_vs_factored_incremental"
    (Staged.stage (fun () ->
         assert (Cec.session_check sess factored = Cec.Equivalent)))

let tests =
  [ bdd_build; cover_minimize; cover_complement; fsm_synth; event_sim;
    event_sim_reference; required_times_1k; sta_incremental_1k;
    actsim_incremental_1k;
    dualvth_opt_mult4; list_scheduling; iss_run;
    encoding_search; odc_guard; seq_chain; streaming_kernel;
    prob_sim_scalar; prob_sim_bitsim; prob_exact; prob_exact_bdd;
    seq_sim_scalar; seq_sim_bitsim;
    sat_pigeon; cec_adder_vs_factored; cec_adder_vs_factored_incremental ]

(* The rewrite search is measured one-shot (wall clock over one run)
   instead of through Bechamel: a full run over the dense-coefficient
   FIR-8 costs and SAT-proves candidates for most of a second, far past
   the sampling quota, and whole-search wall clock is the number of
   interest.  Fresh memo, fixed search seed, so the search itself is
   deterministic. *)
let rewrite_entries () =
  let dfg =
    Gen_dfg.fir ~taps:8 ~coeffs:[ 127; 63; 119; 123; 125; 111; 95; 87 ]
      ~width:8 ()
  in
  let trace =
    Gen_dfg.random_samples (Lowpower.Rng.create 42) dfg ~n:64 ~correlated:true
      ()
  in
  let t0 = Unix.gettimeofday () in
  let res =
    Search.run ~max_steps:10 ~samples:32 ~memo:(Memo.create ())
      ~model:Cost.Toggles ~rng:(Lowpower.Rng.create 7) dfg ~trace
  in
  let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  Printf.printf "  %-32s %14.1f ns/run (%.1f%% toggle cut, %d proofs)\n"
    "rewrite_fir8_greedy" ns
    (100. *. (1. -. (res.Search.final_cost /. res.Search.initial_cost)))
    res.Search.proofs;
  [ ("rewrite_fir8_greedy", ns) ]

(* Machine-readable mirror of the stdout table: name -> ns/run, one JSON
   object, so the perf trajectory is diffable across commits. *)
let write_json path results =
  let oc = open_out path in
  output_string oc "{\n";
  let last = List.length results - 1 in
  List.iteri
    (fun k (name, ns) ->
      Printf.fprintf oc "  %S: %.1f%s\n" name ns (if k = last then "" else ","))
    results;
  output_string oc "}\n";
  close_out oc

let run () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 200) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  print_endline "Microbenchmarks (Bechamel, monotonic clock):";
  let estimates =
    List.concat_map
      (fun test ->
        let raw = Benchmark.all cfg instances test in
        let results = Analyze.all ols Instance.monotonic_clock raw in
        Hashtbl.fold
          (fun name est acc ->
            match Analyze.OLS.estimates est with
            | Some [ t ] ->
              Printf.printf "  %-32s %14.1f ns/run\n" name t;
              (name, t) :: acc
            | Some _ | None ->
              Printf.printf "  %-32s (no estimate)\n" name;
              acc)
          results [])
      tests
  in
  let estimates = estimates @ rewrite_entries () in
  write_json "BENCH.json" estimates;
  print_endline "  (written to BENCH.json)"
