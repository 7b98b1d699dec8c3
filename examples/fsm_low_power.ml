(* Sequential optimization tour (paper III.C): take one finite state
   machine through state encoding for low power, synthesis to gates and
   flip-flops, and self-loop clock gating — measuring at each step.

   Run with: dune exec examples/fsm_low_power.exe *)

let () =
  print_endline "== FSM low-power flow ==";
  (* A 12-state machine with skewed transition probabilities — the case
     where encoding matters. *)
  let rng = Lowpower.Rng.create 99 in
  let stg =
    Gen_fsm.random rng ~num_states:12 ~num_inputs:2 ~num_outputs:2
      ~locality:0.5 ()
  in
  let dist = Markov.uniform_inputs stg in
  Printf.printf "Machine: %d states, %d input bits; %.1f%% of cycles sit on self-loops\n\n"
    (Stg.num_states stg) (Stg.num_inputs stg)
    (100.0 *. Markov.self_loop_probability stg dist);

  (* 1. Encoding comparison: expected flip-flop toggles per cycle. *)
  print_endline "State encodings (weighted switching objective of [35],[47]):";
  let encodings =
    [ ("binary", Encode.binary ~num_states:12);
      ("gray", Encode.gray ~num_states:12);
      ("one-hot", Encode.one_hot ~num_states:12);
      ("low-power", Encode.low_power stg dist) ]
  in
  List.iter
    (fun (name, enc) ->
      Printf.printf "  %-10s %d bits, %.3f FF toggles/cycle\n" name
        enc.Encode.bits
        (Encode.weighted_activity stg dist enc))
    encodings;
  print_newline ();

  (* 2. Synthesize the best and the baseline, verify, and simulate. *)
  let lp = Encode.low_power stg dist in
  let simulate enc =
    let synth = Fsm_synth.synthesize stg enc in
    assert (Fsm_synth.implements synth stg);
    let stats =
      Fsm_synth.simulate_inputs synth stg ~rng:(Lowpower.Rng.create 2) ~dist
        ~cycles:5000
    in
    (synth, stats)
  in
  let synth_bin, stats_bin = simulate (Encode.binary ~num_states:12) in
  let synth_lp, stats_lp = simulate lp in
  Printf.printf
    "binary encoding:    %4d literals of logic, %5d FF toggles, total energy %.0f\n"
    (Fsm_synth.literal_count synth_bin)
    stats_bin.Seq_circuit.ff_output_toggles
    (Seq_circuit.total_energy stats_bin);
  Printf.printf
    "low-power encoding: %4d literals of logic, %5d FF toggles, total energy %.0f\n\n"
    (Fsm_synth.literal_count synth_lp)
    stats_lp.Seq_circuit.ff_output_toggles
    (Seq_circuit.total_energy stats_lp);

  (* 3. Self-loop clock gating ([4], [9]): stop clocking the state
        registers when the machine is not moving. *)
  let gated = Clock_gate.gate_fsm synth_lp in
  assert (Fsm_synth.implements gated stg);
  let stats_gated =
    Fsm_synth.simulate_inputs gated stg ~rng:(Lowpower.Rng.create 2) ~dist
      ~cycles:5000
  in
  Printf.printf
    "with self-loop clock gating: clock energy %.0f -> %.0f (%d of %d \
     register-cycles gated), total %.0f -> %.0f\n"
    stats_lp.Seq_circuit.clock_energy stats_gated.Seq_circuit.clock_energy
    stats_gated.Seq_circuit.gated_cycles
    (5000 * Seq_circuit.register_count gated.Fsm_synth.circuit)
    (Seq_circuit.total_energy stats_lp)
    (Seq_circuit.total_energy stats_gated);
  print_endline
    "  (this machine is rarely idle, so the gating logic costs more than \
     it saves - gating pays off on idle-dominated machines:)";
  print_newline ();

  (* 4. The right clock-gating customer: a counter that is enabled only
        10% of the time (the register-file situation the paper
        describes). *)
  let counter = Gen_fsm.counter ~bits:4 in
  let lazy_dist = Markov.biased_inputs counter ~bit_probs:[| 0.1 |] in
  let synth_c = Fsm_synth.synthesize counter (Encode.binary ~num_states:16) in
  let gated_c = Clock_gate.gate_fsm synth_c in
  assert (Fsm_synth.implements gated_c counter);
  let sim c =
    Fsm_synth.simulate_inputs c counter ~rng:(Lowpower.Rng.create 5)
      ~dist:lazy_dist ~cycles:5000
  in
  let plain_c = sim synth_c and g_c = sim gated_c in
  Printf.printf
    "counter16 with 10%% enable duty (%.0f%% self-loops): total energy %.0f \
     -> %.0f with gating (%.1f%% saved)\n"
    (100.0 *. Markov.self_loop_probability counter lazy_dist)
    (Seq_circuit.total_energy plain_c)
    (Seq_circuit.total_energy g_c)
    (100.0
    *. (1.0 -. Seq_circuit.total_energy g_c /. Seq_circuit.total_energy plain_c))
