(* Tests for Seq_estimate: sequential power estimation ([28]). *)

open Test_util

let counter_circuit enable_prob =
  let stg = Gen_fsm.counter ~bits:3 in
  let synth = Fsm_synth.synthesize stg (Encode.binary ~num_states:8) in
  (stg, synth, Markov.biased_inputs stg ~bit_probs:[| enable_prob |])

let test_state_probs_uniform_on_counter () =
  (* A free-running counter visits all states equally often. *)
  let _, synth, _ = counter_circuit 0.5 in
  let est =
    Seq_estimate.steady_state synth.Fsm_synth.circuit
      ~input_bit_probs:[| 1.0 |]
  in
  Hashtbl.iter
    (fun _ p -> check_close ~eps:1e-6 "uniform" 0.125 p)
    est.Seq_estimate.state_probs;
  (* Always counting: ff toggles = 1 + 1/2 + ... = 2 - 2^-2 per cycle. *)
  check_close ~eps:1e-6 "counter toggle rate" (2.0 -. 0.25)
    est.Seq_estimate.ff_toggle_rate

let test_estimate_matches_simulation () =
  let stg, synth, dist = counter_circuit 0.3 in
  let est =
    Seq_estimate.steady_state synth.Fsm_synth.circuit
      ~input_bit_probs:[| 0.3 |]
  in
  let cycles = 30_000 in
  let stats =
    Fsm_synth.simulate_inputs synth stg ~rng:(rng ()) ~dist ~cycles
  in
  check_close_rel ~eps:0.05 "ff toggles: analysis vs simulation"
    est.Seq_estimate.ff_toggle_rate
    (float_of_int stats.Seq_circuit.ff_output_toggles /. float_of_int cycles)

let test_estimate_matches_event_sim_swcap () =
  (* Per-node functional switching measured by the cycle simulator should
     match the chain analysis. *)
  let stg, synth, _dist = counter_circuit 0.5 in
  ignore stg;
  let est =
    Seq_estimate.steady_state synth.Fsm_synth.circuit
      ~input_bit_probs:[| 0.5 |]
  in
  let seq_est =
    Seq_estimate.of_sequence synth.Fsm_synth.circuit
      (Stimulus.random (rng ()) ~width:1 ~length:30_000 ())
  in
  check_close_rel ~eps:0.05 "switched capacitance: chain vs sequence"
    est.Seq_estimate.switched_capacitance
    seq_est.Seq_estimate.switched_capacitance

let test_white_noise_assumption_errs () =
  (* With a rarely-enabled counter the state lines are strongly biased;
     treating them as p = 0.5 white noise misestimates power — the error
     [28] fixes. *)
  let _, synth, _ = counter_circuit 0.1 in
  let est =
    Seq_estimate.steady_state synth.Fsm_synth.circuit
      ~input_bit_probs:[| 0.1 |]
  in
  Alcotest.(check bool) "white-noise model off by > 25%" true
    (Seq_estimate.white_noise_error est synth.Fsm_synth.circuit > 0.25)

let test_sequence_variant_visits () =
  let _, synth, _ = counter_circuit 0.5 in
  (* Drive with the all-ones enable: the counter cycles deterministically. *)
  let stim = List.init 800 (fun _ -> [| true |]) in
  let est = Seq_estimate.of_sequence synth.Fsm_synth.circuit stim in
  Hashtbl.iter
    (fun _ p -> check_close_rel ~eps:0.02 "visit frequency" 0.125 p)
    est.Seq_estimate.state_probs;
  check_close_rel ~eps:0.02 "toggle rate" 1.75 est.Seq_estimate.ff_toggle_rate

let test_validation () =
  let _, synth, _ = counter_circuit 0.5 in
  expect_invalid_arg "arity" (fun () ->
      ignore
        (Seq_estimate.steady_state synth.Fsm_synth.circuit
           ~input_bit_probs:[| 0.5; 0.5 |]));
  expect_invalid_arg "empty sequence" (fun () ->
      ignore (Seq_estimate.of_sequence synth.Fsm_synth.circuit []))

let test_gated_circuit_analysis () =
  (* The estimator understands load-enables: a gated counter at low duty
     has a much lower toggle rate. *)
  let stg = Gen_fsm.counter ~bits:3 in
  let synth = Fsm_synth.synthesize stg (Encode.binary ~num_states:8) in
  let gated = Clock_gate.gate_fsm synth in
  let est =
    Seq_estimate.steady_state gated.Fsm_synth.circuit
      ~input_bit_probs:[| 0.1 |]
  in
  Alcotest.(check bool) "low toggle rate at 10% duty" true
    (est.Seq_estimate.ff_toggle_rate < 0.3)

let suite =
  [
    quick "counter steady state uniform" test_state_probs_uniform_on_counter;
    quick "analysis matches simulation" test_estimate_matches_simulation;
    quick "chain vs sequence switched capacitance" test_estimate_matches_event_sim_swcap;
    quick "white-noise assumption errs (paper [28])" test_white_noise_assumption_errs;
    quick "sequence variant visit frequencies" test_sequence_variant_visits;
    quick "estimator validation" test_validation;
    quick "gated circuits analyzed correctly" test_gated_circuit_analysis;
  ]
