(* Tests for lp_seq: Stg, Markov, Encode, Fsm_synth, Seq_circuit,
   Clock_gate, Precompute, Retime. *)

open Test_util

let uniform stg = Markov.uniform_inputs stg

(* --- Stg --- *)

let test_stg_tabulation () =
  let stg = Gen_fsm.counter ~bits:3 in
  Alcotest.(check int) "states" 8 (Stg.num_states stg);
  Alcotest.(check int) "next with enable" 4 (Stg.next stg 3 1);
  Alcotest.(check int) "hold without enable" 3 (Stg.next stg 3 0);
  Alcotest.(check int) "wraps" 0 (Stg.next stg 7 1);
  Alcotest.(check bool) "self loop on hold" true (Stg.has_self_loop stg 5 0)

let test_stg_validation () =
  expect_invalid_arg "next out of range" (fun () ->
      Stg.create ~num_states:2 ~num_inputs:1 ~num_outputs:1
        ~next:(fun _ _ -> 7)
        ~output:(fun _ _ -> 0)
        ());
  expect_invalid_arg "output out of range" (fun () ->
      Stg.create ~num_states:2 ~num_inputs:1 ~num_outputs:1
        ~next:(fun s _ -> s)
        ~output:(fun _ _ -> 2)
        ())

let test_stg_reachable () =
  (* State 2 unreachable from 0. *)
  let stg =
    Stg.create ~num_states:3 ~num_inputs:1 ~num_outputs:1
      ~next:(fun s i -> if s = 2 then 2 else i)
      ~output:(fun _ _ -> 0)
      ()
  in
  Alcotest.(check (list int)) "reachable" [ 0; 1 ] (Stg.reachable stg ~from:0)

let test_detector_semantics () =
  let pattern = [ true; false; true ] in
  let stg = Gen_fsm.sequence_detector ~pattern in
  let stream = [ true; false; true; false; true; true; false; true ] in
  (* Expected hits: positions where suffix = 101 (indices 2, 4, 7). *)
  let expected = [ false; false; true; false; true; false; false; true ] in
  let rec run s stream expected =
    match stream, expected with
    | [], [] -> ()
    | bit :: rest, e :: erest ->
      let i = if bit then 1 else 0 in
      Alcotest.(check int) "detector output" (if e then 1 else 0)
        (Stg.output stg s i);
      run (Stg.next stg s i) rest erest
    | _ -> Alcotest.fail "length mismatch"
  in
  run 0 stream expected

(* --- Markov --- *)

let test_markov_uniform_ring () =
  let stg = Gen_fsm.modulo_counter ~modulus:5 in
  let pi = Markov.steady_state stg (uniform stg) in
  Array.iter (fun p -> check_close ~eps:1e-6 "uniform on a ring" 0.2 p) pi

let test_markov_weights_sum () =
  let r = rng () in
  let stg = Gen_fsm.random r ~num_states:6 ~num_inputs:2 ~num_outputs:2 () in
  let w = Markov.edge_weights stg (uniform stg) in
  let total = Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0.0 w in
  check_close ~eps:1e-6 "weights sum to 1" 1.0 total

let test_markov_biased_inputs () =
  let stg = Gen_fsm.counter ~bits:2 in
  let dist = Markov.biased_inputs stg ~bit_probs:[| 0.25 |] in
  check_close "p(enable=0)" 0.75 dist.(0);
  check_close "p(enable=1)" 0.25 dist.(1)

let test_markov_self_loop_probability () =
  let stg = Gen_fsm.counter ~bits:2 in
  (* Enable is 1 half the time: half the cycles are self-loops. *)
  check_close ~eps:1e-6 "half self loops" 0.5
    (Markov.self_loop_probability stg (uniform stg));
  let lazy_dist = Markov.biased_inputs stg ~bit_probs:[| 0.1 |] in
  check_close ~eps:1e-6 "mostly idle" 0.9
    (Markov.self_loop_probability stg lazy_dist)

let test_markov_dist_validation () =
  let stg = Gen_fsm.counter ~bits:2 in
  expect_invalid_arg "bad sum" (fun () ->
      Markov.steady_state stg [| 0.9; 0.3 |])

(* --- Encode --- *)

let test_encodings_valid () =
  List.iter
    (fun enc -> Encode.validate ~num_states:6 enc)
    [
      Encode.binary ~num_states:6;
      Encode.gray ~num_states:6;
      Encode.one_hot ~num_states:6;
      Encode.random (rng ()) ~num_states:6;
    ]

let test_gray_unit_distance () =
  let enc = Encode.gray ~num_states:8 in
  for s = 0 to 6 do
    let d = enc.Encode.codes.(s) lxor enc.Encode.codes.(s + 1) in
    Alcotest.(check int) "adjacent gray codes differ in 1 bit" 1
      (Bus.popcount d)
  done

let test_weighted_activity_ring_gray () =
  (* On a pure ring, Gray coding achieves exactly 1 toggle per cycle. *)
  let stg = Gen_fsm.modulo_counter ~modulus:8 in
  let q = uniform stg in
  check_close ~eps:1e-6 "gray ring activity" 1.0
    (Encode.weighted_activity stg q (Encode.gray ~num_states:8));
  (* Binary pays the carry ripple: (8+4+2+1... ) avg = 2·(1-1/8)... just
     assert it is strictly worse. *)
  Alcotest.(check bool) "binary worse on ring" true
    (Encode.weighted_activity stg q (Encode.binary ~num_states:8) > 1.0 +. 1e-9)

let test_low_power_encoding_wins () =
  let r = rng () in
  let stg = Gen_fsm.random r ~num_states:8 ~num_inputs:2 ~num_outputs:2 () in
  let q = uniform stg in
  let lp = Encode.low_power stg q in
  let bin = Encode.weighted_activity stg q (Encode.binary ~num_states:8) in
  let lp_act = Encode.weighted_activity stg q lp in
  Alcotest.(check bool) "low power <= binary" true (lp_act <= bin +. 1e-9)

let test_improve_never_worse () =
  let r = rng () in
  let stg = Gen_fsm.random r ~num_states:7 ~num_inputs:2 ~num_outputs:1 () in
  let q = uniform stg in
  let start = Encode.random r ~num_states:7 in
  let better = Encode.improve stg q start in
  Alcotest.(check bool) "improve monotone" true
    (Encode.weighted_activity stg q better
    <= Encode.weighted_activity stg q start +. 1e-9)

let test_low_power_bits_check () =
  let stg = Gen_fsm.modulo_counter ~modulus:8 in
  expect_invalid_arg "too few bits" (fun () ->
      ignore (Encode.low_power ~bits:2 stg (uniform stg)))

(* --- Fsm_synth + Seq_circuit --- *)

let test_fsm_synthesis_correct () =
  let r = rng () in
  let stg = Gen_fsm.random r ~num_states:5 ~num_inputs:2 ~num_outputs:2 () in
  List.iter
    (fun enc ->
      let synth = Fsm_synth.synthesize stg enc in
      Alcotest.(check bool) "circuit implements the STG" true
        (Fsm_synth.implements synth stg))
    [
      Encode.binary ~num_states:5;
      Encode.gray ~num_states:5;
      Encode.one_hot ~num_states:5;
      Encode.low_power stg (uniform stg);
    ]

let test_fsm_counter_outputs () =
  let stg = Gen_fsm.counter ~bits:2 in
  let synth = Fsm_synth.synthesize stg (Encode.binary ~num_states:4) in
  (* Always-enabled counting: outputs 0,1,2,3,0... *)
  let stim = List.init 5 (fun _ -> [| true |]) in
  let stats = Seq_circuit.simulate synth.Fsm_synth.circuit stim in
  let words =
    List.map (fun outs -> Circuits.output_word outs ~prefix:"out")
      stats.Seq_circuit.outputs
  in
  Alcotest.(check (list int)) "count sequence" [ 0; 1; 2; 3; 0 ] words

let test_fsm_encoding_activity_measured () =
  (* Predicted weighted switching must match the simulated FF toggle
     rate. *)
  let stg = Gen_fsm.counter ~bits:3 in
  let q = Markov.biased_inputs stg ~bit_probs:[| 0.5 |] in
  let enc = Encode.binary ~num_states:8 in
  let synth = Fsm_synth.synthesize stg enc in
  let cycles = 20_000 in
  let stats = Fsm_synth.simulate_inputs synth stg ~rng:(rng ()) ~dist:q ~cycles in
  let measured =
    float_of_int stats.Seq_circuit.ff_output_toggles /. float_of_int cycles
  in
  check_close_rel ~eps:0.08 "prediction vs simulation"
    (Encode.weighted_activity stg q enc)
    measured

let test_seq_circuit_validation () =
  let net = Network.create () in
  let a = Network.add_input net in
  let g = Network.add_node net (Expr.not_ (Expr.var 0)) [ a ] in
  Network.set_output net "z" g;
  expect_invalid_arg "q not an input" (fun () ->
      ignore
        (Seq_circuit.create net
           [ { Seq_circuit.d = g; q = g; enable = None; init = false;
               clock_cap = 1.0 } ]));
  expect_invalid_arg "duplicate q" (fun () ->
      ignore
        (Seq_circuit.create net
           [
             { Seq_circuit.d = g; q = a; enable = None; init = false;
               clock_cap = 1.0 };
             { Seq_circuit.d = g; q = a; enable = None; init = false;
               clock_cap = 1.0 };
           ]))

let test_seq_circuit_toggle_counting () =
  (* A 1-bit toggler: d = ~q. *)
  let net = Network.create () in
  let q = Network.add_input net in
  let d = Network.add_node net (Expr.not_ (Expr.var 0)) [ q ] in
  Network.set_output net "q" q;
  let c =
    Seq_circuit.create net
      [ { Seq_circuit.d; q; enable = None; init = false; clock_cap = 2.0 } ]
  in
  let stim = List.init 10 (fun _ -> [||]) in
  let stats = Seq_circuit.simulate c stim in
  Alcotest.(check int) "toggles every cycle" 10 stats.Seq_circuit.ff_output_toggles;
  check_close "clock energy" 20.0 stats.Seq_circuit.clock_energy;
  Alcotest.(check int) "no gating" 0 stats.Seq_circuit.gated_cycles

(* --- Clock gating --- *)

let test_bank_gating_saves () =
  let r = rng () in
  let bank = Clock_gate.default_bank 16 in
  let data = Traces.random_words r ~width:16 ~n:500 in
  let trace = Traces.enable_trace r ~n:500 ~duty:0.25 ~data in
  let report = Clock_gate.evaluate bank trace in
  Alcotest.(check bool) "idle fraction near 0.75" true
    (report.Clock_gate.idle_fraction > 0.6);
  Alcotest.(check bool) "gating saves energy" true
    (Clock_gate.saving report > 0.4)

let test_bank_gating_overhead_visible () =
  (* At 100% duty the gated design pays pure overhead. *)
  let r = rng () in
  let bank = Clock_gate.default_bank 8 in
  let data = Traces.random_words r ~width:8 ~n:200 in
  let trace = List.map (fun w -> (true, w)) data in
  let report = Clock_gate.evaluate bank trace in
  Alcotest.(check bool) "gating loses when never idle" true
    (Clock_gate.saving report < 0.0)

let test_fsm_gating_preserves_function () =
  let r = rng () in
  let stg = Gen_fsm.random r ~num_states:5 ~num_inputs:1 ~num_outputs:2 () in
  let synth = Fsm_synth.synthesize stg (Encode.binary ~num_states:5) in
  let gated = Clock_gate.gate_fsm synth in
  Alcotest.(check bool) "gated FSM still implements the STG" true
    (Fsm_synth.implements gated stg)

let test_fsm_gating_reduces_clock_energy () =
  (* Counter with rare enable: most cycles are self-loops. *)
  let stg = Gen_fsm.counter ~bits:3 in
  let synth = Fsm_synth.synthesize stg (Encode.binary ~num_states:8) in
  let gated = Clock_gate.gate_fsm synth in
  let dist = Markov.biased_inputs stg ~bit_probs:[| 0.1 |] in
  let sim c = Fsm_synth.simulate_inputs c stg ~rng:(rng ()) ~dist ~cycles:2000 in
  let plain = sim synth and gate = sim gated in
  Alcotest.(check bool) "clock energy drops" true
    (gate.Seq_circuit.clock_energy < 0.3 *. plain.Seq_circuit.clock_energy);
  Alcotest.(check bool) "roughly 90% of register-cycles gated" true
    (float_of_int gate.Seq_circuit.gated_cycles
    > 0.8 *. float_of_int (3 * 2000))

(* --- Precomputation --- *)

let comparator_arch n =
  let dp = Circuits.comparator n in
  let keep =
    [ List.nth dp.Circuits.a_bits (n - 1); List.nth dp.Circuits.b_bits (n - 1) ]
  in
  Precompute.build dp.Circuits.net ~output:"out0" ~keep ()

let test_precompute_predictors_msb () =
  let n = 5 in
  let dp = Circuits.comparator n in
  let keep =
    [ List.nth dp.Circuits.a_bits (n - 1); List.nth dp.Circuits.b_bits (n - 1) ]
  in
  let g1, g0 = Precompute.predictors dp.Circuits.net ~output:"out0" ~keep in
  (* g1 = a_msb & ~b_msb (output 1 whatever the rest), g0 = ~a_msb & b_msb. *)
  Alcotest.(check bool) "g1" true
    (Truth_table.equal
       (Truth_table.of_expr 2 g1)
       (Truth_table.of_expr 2 Expr.(var 0 &&& not_ (var 1))));
  Alcotest.(check bool) "g0" true
    (Truth_table.equal
       (Truth_table.of_expr 2 g0)
       (Truth_table.of_expr 2 Expr.(not_ (var 0) &&& var 1)))

let test_precompute_probability_half () =
  let n = 6 in
  let dp = Circuits.comparator n in
  let keep =
    [ List.nth dp.Circuits.a_bits (n - 1); List.nth dp.Circuits.b_bits (n - 1) ]
  in
  check_close "P(shutdown) = 1/2"
    0.5
    (Precompute.shutdown_probability dp.Circuits.net ~output:"out0" ~keep
       ~input_probs:(Array.make (2 * n) 0.5))

let test_precompute_equivalent () =
  let arch = comparator_arch 5 in
  let stim = Stimulus.random (rng ()) ~width:10 ~length:300 () in
  Alcotest.(check bool) "precomputed design equals plain design" true
    (Precompute.equivalent arch ~stimulus:stim)

let test_precompute_saves_energy () =
  let arch = comparator_arch 8 in
  let stim = Stimulus.random (rng ()) ~width:16 ~length:400 () in
  let plain, pre = Precompute.energy_comparison arch ~stimulus:stim in
  Alcotest.(check bool) "precomputation saves total energy" true
    (Seq_circuit.total_energy pre < Seq_circuit.total_energy plain);
  Alcotest.(check bool) "about half the register-cycles gated" true
    (let total =
       float_of_int (400 * Seq_circuit.register_count arch.Precompute.precomputed)
     in
     let g = float_of_int pre.Seq_circuit.gated_cycles in
     g > 0.3 *. total && g < 0.6 *. total)

let test_precompute_biased_msb_gates_more () =
  (* Biasing the MSBs apart makes prediction succeed more often. *)
  let n = 6 in
  let dp = Circuits.comparator n in
  let keep =
    [ List.nth dp.Circuits.a_bits (n - 1); List.nth dp.Circuits.b_bits (n - 1) ]
  in
  let probs = Array.make (2 * n) 0.5 in
  probs.(n - 1) <- 0.9;          (* a MSB mostly 1 *)
  probs.((2 * n) - 1) <- 0.1;    (* b MSB mostly 0 *)
  let p =
    Precompute.shutdown_probability dp.Circuits.net ~output:"out0" ~keep
      ~input_probs:probs
  in
  Alcotest.(check bool) "shutdown probability rises" true (p > 0.8)

(* --- Retiming --- *)

let pipeline_graph () =
  (* host(0) -> v1 -> v2 -> v3 -> host, all registers at the host input. *)
  let g = Retime.create ~num_vertices:4 ~delays:[| 0.0; 2.0; 3.0; 2.0 |] in
  Retime.add_edge g ~src:0 ~dst:1 ~weight:3 ();
  Retime.add_edge g ~src:1 ~dst:2 ~weight:0 ();
  Retime.add_edge g ~src:2 ~dst:3 ~weight:0 ();
  Retime.add_edge g ~src:3 ~dst:0 ~weight:0 ();
  g

let test_clock_period () =
  let g = pipeline_graph () in
  (* Zero-weight path v1 v2 v3 host: 2 + 3 + 2 = 7. *)
  check_close "period" 7.0 (Retime.clock_period g)

let test_min_period_retiming () =
  let g = pipeline_graph () in
  let r, p = Retime.min_period g in
  Alcotest.(check bool) "legal" true (Retime.is_legal g r);
  (* Distributing the 3 registers isolates each vertex: period = max delay. *)
  check_close ~eps:1e-6 "optimal period" 3.0 p;
  check_close ~eps:1e-6 "applied period" 3.0 (Retime.clock_period (Retime.apply g r))

let test_retiming_preserves_register_count_on_ring () =
  let g = pipeline_graph () in
  let r, _ = Retime.min_period g in
  (* Retiming conserves registers around every cycle. *)
  Alcotest.(check int) "ring register count" 3
    (Retime.register_count (Retime.apply g r))

let test_retiming_legality_check () =
  let g = pipeline_graph () in
  (* Moving a register backwards across v1 empties edge 1->2 below zero. *)
  Alcotest.(check bool) "stealing from an empty edge is illegal" false
    (Retime.is_legal g [| 0; 1; 0; 0 |]);
  expect_invalid_arg "apply rejects illegal" (fun () ->
      ignore (Retime.apply g [| 0; 1; 0; 0 |]));
  (* Borrowing from the well-stocked host edge is fine. *)
  Alcotest.(check bool) "drawing from a stocked edge is legal" true
    (Retime.is_legal g [| 0; -1; -1; -1 |])

let test_zero_weight_cycle_detected () =
  let g = Retime.create ~num_vertices:2 ~delays:[| 1.0; 1.0 |] in
  Retime.add_edge g ~src:0 ~dst:1 ~weight:0 ();
  Retime.add_edge g ~src:1 ~dst:0 ~weight:0 ();
  expect_invalid_arg "combinational loop" (fun () ->
      ignore (Retime.clock_period g))

let test_low_power_retiming () =
  (* Two feasible register positions; the hot (glitchy) edge should end up
     holding a register. *)
  let g = Retime.create ~num_vertices:3 ~delays:[| 0.0; 2.0; 2.0 |] in
  Retime.add_edge g ~src:0 ~dst:1 ~weight:1 ~functional:0.1 ~glitchy:0.2 ~cap:1.0 ();
  Retime.add_edge g ~src:1 ~dst:2 ~weight:0 ~functional:0.2 ~glitchy:3.0 ~cap:2.0 ();
  Retime.add_edge g ~src:2 ~dst:0 ~weight:1 ~functional:0.1 ~glitchy:0.2 ~cap:1.0 ();
  let period = 4.0 in
  let r = Retime.low_power g ~period in
  let retimed = Retime.apply g r in
  Alcotest.(check bool) "meets period" true
    (Retime.clock_period retimed <= period +. 1e-9);
  let hot_edge =
    List.find (fun e -> e.Retime.glitchy = 3.0) (Retime.edges retimed)
  in
  Alcotest.(check bool) "register moved onto glitchy edge" true
    (hot_edge.Retime.weight >= 1);
  Alcotest.(check bool) "power improved over identity" true
    (Retime.power_cost retimed < Retime.power_cost g)

let test_min_register_retiming () =
  let g = pipeline_graph () in
  let _, p = Retime.min_period g in
  let r = Retime.min_registers g ~period:p in
  let retimed = Retime.apply g r in
  Alcotest.(check bool) "meets period" true
    (Retime.clock_period retimed <= p +. 1e-9);
  (* Ring invariant: the cycle still carries 3 registers, so the minimum
     here equals the min-period solution; on a graph with parallel paths
     the minimizer must not exceed the FEAS seed. *)
  let seed_count =
    Retime.register_count (Retime.apply g (fst (Retime.min_period g)))
  in
  Alcotest.(check bool) "no more registers than the FEAS seed" true
    (Retime.register_count retimed <= seed_count);
  expect_invalid_arg "period below minimum" (fun () ->
      ignore (Retime.min_registers g ~period:(p /. 2.0)))

let test_min_register_beats_feas_on_fanout () =
  (* Two parallel combinational paths: FEAS may register both branches;
     moving the registers back to the shared source needs only one. *)
  let g = Retime.create ~num_vertices:4 ~delays:[| 0.0; 1.0; 1.0; 1.0 |] in
  Retime.add_edge g ~src:0 ~dst:1 ~weight:0 ();
  Retime.add_edge g ~src:1 ~dst:2 ~weight:1 ();
  Retime.add_edge g ~src:1 ~dst:3 ~weight:1 ();
  Retime.add_edge g ~src:2 ~dst:0 ~weight:0 ();
  Retime.add_edge g ~src:3 ~dst:0 ~weight:1 ();
  let period = 3.0 in
  let r = Retime.min_registers g ~period in
  let retimed = Retime.apply g r in
  Alcotest.(check bool) "meets period" true
    (Retime.clock_period retimed <= period +. 1e-9);
  Alcotest.(check bool) "register sharing found" true
    (Retime.register_count retimed < Retime.register_count g)

let test_retime_of_network () =
  (* Registered-input multiplier: move the input registers inward to cut
     both the period and the measured-glitch power cost. *)
  let dp = Circuits.array_multiplier 4 in
  let stim = Stimulus.random (rng ()) ~width:8 ~length:200 () in
  let res = Event_sim.run dp.Circuits.net Event_sim.Unit_delay stim in
  (* Three registers per input path: enough to pipeline the array. *)
  let g = Retime.of_network dp.Circuits.net ~result:res ~input_registers:3 () in
  (* Structure: one vertex per gate plus the host. *)
  Alcotest.(check int) "vertices" (Network.node_count dp.Circuits.net + 1)
    (Retime.num_vertices g);
  let p0 = Retime.clock_period g in
  let r, p = Retime.min_period g in
  Alcotest.(check bool) "retiming legal" true (Retime.is_legal g r);
  Alcotest.(check bool) "period improves" true (p < p0);
  let lp = Retime.low_power g ~period:p in
  Alcotest.(check bool) "measured-cost power no worse than min-period" true
    (Retime.power_cost (Retime.apply g lp)
    <= Retime.power_cost (Retime.apply g r) +. 1e-9)

let test_ff_filtering_observation () =
  (* The §III.C.2 observation, measured directly: on a glitchy
     combinational block, activity at the FF inputs (total transitions)
     exceeds activity at the FF outputs (settled changes only). *)
  let dp = Circuits.array_multiplier 4 in
  let stim = Stimulus.random (rng ()) ~width:8 ~length:300 () in
  let r = Event_sim.run dp.Circuits.net Event_sim.Unit_delay stim in
  let at_ff_inputs =
    List.fold_left
      (fun acc o ->
        acc + Option.value (Hashtbl.find_opt r.Event_sim.total o) ~default:0)
      0 dp.Circuits.out_bits
  in
  let at_ff_outputs =
    List.fold_left
      (fun acc o ->
        acc
        + Option.value (Hashtbl.find_opt r.Event_sim.functional o) ~default:0)
      0 dp.Circuits.out_bits
  in
  Alcotest.(check bool) "FF filters spurious transitions" true
    (at_ff_inputs > at_ff_outputs)

let test_measured_shutdown () =
  let n = 5 in
  let dp = Circuits.comparator n in
  let keep =
    [ List.nth dp.Circuits.a_bits (n - 1); List.nth dp.Circuits.b_bits (n - 1) ]
  in
  (* Under white noise the measured fraction converges on the
     independence-model prediction (1/2 for the MSB comparison). *)
  let stim = Stimulus.random (rng ()) ~width:(2 * n) ~length:600 () in
  let f =
    Precompute.measured_shutdown dp.Circuits.net ~output:"out0" ~keep
      ~trace:stim
  in
  Alcotest.(check bool) "a fraction" true (0.0 <= f && f <= 1.0);
  check_close_rel ~eps:0.15 "white noise matches the model"
    (Precompute.shutdown_probability dp.Circuits.net ~output:"out0" ~keep
       ~input_probs:(Array.make (2 * n) 0.5))
    f;
  expect_invalid_arg "empty trace" (fun () ->
      Precompute.measured_shutdown dp.Circuits.net ~output:"out0" ~keep
        ~trace:[]);
  expect_invalid_arg "non-input keep" (fun () ->
      let z = List.assoc "out0" (Network.outputs dp.Circuits.net) in
      Precompute.measured_shutdown dp.Circuits.net ~output:"out0"
        ~keep:[ z ] ~trace:stim)

let test_rank_keep_measured () =
  (* out = a & b & c: any input at 0 forces the output, so a singleton R1
     shuts down exactly on that line's 0-cycles — the measured ranking
     must follow the per-line biases of the trace. *)
  let net = Network.create () in
  let a = Network.add_input net in
  let b = Network.add_input net in
  let c = Network.add_input net in
  let g =
    Network.add_node net
      (Expr.and_list [ Expr.var 0; Expr.var 1; Expr.var 2 ])
      [ a; b; c ]
  in
  Network.set_output net "z" g;
  let stim =
    Stimulus.per_line_probs (rng ()) ~length:400
      ~probs:[| 0.05; 0.5; 0.95 |]
  in
  let ranked =
    Precompute.rank_keep net ~output:"z" ~candidates:[ a; b; c ] ~trace:stim
  in
  Alcotest.(check int) "all candidates ranked" 3 (List.length ranked);
  let rec desc = function
    | (_, x) :: ((_, y) :: _ as tl) -> x >= y && desc tl
    | _ -> true
  in
  Alcotest.(check bool) "best first" true (desc ranked);
  Alcotest.(check (list int))
    "mostly-zero line wins, mostly-one line loses"
    [ a; b; c ]
    (List.map fst ranked);
  (* The fractions are exactly the measured zero-fractions of each line. *)
  let zeros i =
    float_of_int (List.length (List.filter (fun v -> not v.(i)) stim))
    /. float_of_int (List.length stim)
  in
  List.iteri
    (fun pos (_, f) -> check_close "fraction = measured zeros" (zeros pos) f)
    ranked

let test_clock_gate_rank () =
  let r = rng () in
  let mk duty =
    let data = Traces.random_words r ~width:8 ~n:800 in
    Traces.enable_trace r ~n:800 ~duty ~data
  in
  let banks =
    [ ("busy", Clock_gate.default_bank 8, mk 0.9);
      ("idle", Clock_gate.default_bank 8, mk 0.05);
      ("half", Clock_gate.default_bank 8, mk 0.5) ]
  in
  let ranked = Clock_gate.rank banks in
  Alcotest.(check (list string))
    "biggest absolute saving first"
    [ "idle"; "half"; "busy" ]
    (List.map (fun (nm, _, _) -> nm) ranked);
  List.iter
    (fun (nm, report, saved) ->
      let _, bank, trace = List.find (fun (n, _, _) -> n = nm) banks in
      let again = Clock_gate.evaluate bank trace in
      check_close (nm ^ ": report matches evaluate")
        (again.Clock_gate.ungated_energy -. again.Clock_gate.gated_energy)
        saved;
      check_close (nm ^ ": idle fraction consistent")
        again.Clock_gate.idle_fraction report.Clock_gate.idle_fraction)
    ranked

let suite =
  [
    quick "stg tabulation" test_stg_tabulation;
    quick "stg validation" test_stg_validation;
    quick "stg reachability" test_stg_reachable;
    quick "sequence detector semantics" test_detector_semantics;
    quick "markov uniform ring" test_markov_uniform_ring;
    quick "markov weights sum to 1" test_markov_weights_sum;
    quick "markov biased inputs" test_markov_biased_inputs;
    quick "markov self-loop probability" test_markov_self_loop_probability;
    quick "markov distribution validation" test_markov_dist_validation;
    quick "encodings valid" test_encodings_valid;
    quick "gray is uni-distant" test_gray_unit_distance;
    quick "gray optimal on ring" test_weighted_activity_ring_gray;
    quick "low-power encoding beats binary" test_low_power_encoding_wins;
    quick "re-encoding never worse" test_improve_never_worse;
    quick "encoding width check" test_low_power_bits_check;
    quick "fsm synthesis correct under all encodings" test_fsm_synthesis_correct;
    quick "synthesized counter counts" test_fsm_counter_outputs;
    quick "encoding activity prediction vs simulation" test_fsm_encoding_activity_measured;
    quick "seq circuit validation" test_seq_circuit_validation;
    quick "seq circuit toggle counting" test_seq_circuit_toggle_counting;
    quick "register bank gating saves" test_bank_gating_saves;
    quick "gating overhead visible at full duty" test_bank_gating_overhead_visible;
    quick "fsm self-loop gating preserves function" test_fsm_gating_preserves_function;
    quick "fsm self-loop gating cuts clock energy" test_fsm_gating_reduces_clock_energy;
    quick "fig1 predictors are the MSB comparison" test_precompute_predictors_msb;
    quick "fig1 shutdown probability one half" test_precompute_probability_half;
    quick "precomputed comparator equivalent" test_precompute_equivalent;
    quick "precomputation saves energy" test_precompute_saves_energy;
    quick "biased MSBs gate more" test_precompute_biased_msb_gates_more;
    quick "clock period" test_clock_period;
    quick "minimum-period retiming" test_min_period_retiming;
    quick "retiming conserves ring registers" test_retiming_preserves_register_count_on_ring;
    quick "retiming legality" test_retiming_legality_check;
    quick "combinational loop detected" test_zero_weight_cycle_detected;
    quick "power-aware retiming targets glitchy edges" test_low_power_retiming;
    quick "min-register retiming" test_min_register_retiming;
    quick "min-register retiming shares fanout registers" test_min_register_beats_feas_on_fanout;
    quick "retiming graph from a measured circuit" test_retime_of_network;
    quick "registers filter glitches (paper observation)" test_ff_filtering_observation;
    quick "measured shutdown fraction" test_measured_shutdown;
    quick "rank_keep follows the trace" test_rank_keep_measured;
    quick "clock-gate rank by measured savings" test_clock_gate_rank;
  ]
