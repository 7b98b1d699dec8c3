(* Cross-module property tests: random instances pushed through whole
   flows, checked against independent oracles. *)

open Test_util

(* Random small networks as a qcheck generator (seed-driven so shrinking
   stays meaningful). *)
let gen_network =
  QCheck2.Gen.(
    map2
      (fun seed gates ->
        ( seed,
          gates,
          Gen_comb.random
            (Lowpower.Rng.create seed)
            {
              Gen_comb.num_inputs = 6;
              num_gates = 8 + gates;
              max_fanin = 3;
              output_fraction = 0.2;
            } ))
      (int_bound 10_000) (int_bound 20))

let prop_decompose_equivalent =
  prop ~count:40 "subject decomposition preserves every random network"
    gen_network
    (fun (_, _, net) -> networks_equivalent net (Subject.decompose net))

let prop_power_decompose_equivalent =
  prop ~count:40 "power decomposition preserves every random network"
    gen_network
    (fun (seed, _, net) ->
      let r = Lowpower.Rng.create (seed + 1) in
      let input_probs =
        Array.init (List.length (Network.inputs net)) (fun _ ->
            0.05 +. Lowpower.Rng.float r 0.9)
      in
      networks_equivalent net (Subject.decompose_for_power net ~input_probs))

let prop_mapping_equivalent =
  prop ~count:25 "area mapping preserves every random network" gen_network
    (fun (_, _, net) ->
      let subj = Subject.decompose net in
      networks_equivalent net (Mapper.netlist (Mapper.map subj Mapper.Area)))

let prop_balance_equivalent =
  prop ~count:40 "path balancing preserves every random network" gen_network
    (fun (_, _, net) ->
      let balanced, _ = Balance.balance net in
      networks_equivalent net balanced)

let prop_exact_matches_tt_probability =
  prop ~count:30 "exact signal probability equals minterm counting"
    gen_network
    (fun (_, _, net) ->
      let input_probs = Probability.uniform_inputs net in
      let probs = Probability.exact net ~input_probs in
      let n = List.length (Network.inputs net) in
      List.for_all
        (fun (_, o) ->
          let count = ref 0 in
          for code = 0 to (1 lsl n) - 1 do
            let vec = Array.init n (fun k -> code land (1 lsl k) <> 0) in
            let values = Network.eval net vec in
            if Hashtbl.find values o then incr count
          done;
          Float.abs
            (Hashtbl.find probs o
            -. (float_of_int !count /. float_of_int (1 lsl n)))
          < 1e-9)
        (Network.outputs net))

(* Random DFGs through the compiler. *)
let gen_dfg =
  QCheck2.Gen.(
    map
      (fun seed ->
        (seed, Gen_dfg.ewf_like (Lowpower.Rng.create seed) ~ops:12))
      (int_bound 10_000))

let prop_compiler_correct_on_random_dfgs =
  prop ~count:30 "every compiler variant is correct on random DFGs" gen_dfg
    (fun (seed, dfg) ->
      let r = Lowpower.Rng.create (seed + 7) in
      List.for_all
        (fun opts -> Compile.verify (Compile.compile opts dfg) dfg ~rng:r ~samples:30)
        [
          Compile.naive;
          Compile.optimized ();
          Compile.optimized ~profile:Energy_model.dsp_cpu ();
          { (Compile.optimized ~profile:Energy_model.dsp_cpu ()) with
            Compile.registers = 4 };
        ])

let prop_transforms_preserve_random_dfgs =
  prop ~count:40 "tree-height + strength reduction preserve random DFGs"
    gen_dfg
    (fun (seed, dfg) ->
      let r = Lowpower.Rng.create (seed + 13) in
      let t = Transform.strength_reduce (Transform.tree_height_reduce dfg) in
      Transform.equivalent dfg t ~rng:r ~samples:50)

(* Random FSMs through synthesis. *)
let gen_fsm =
  QCheck2.Gen.(
    map2
      (fun seed states ->
        ( seed,
          Gen_fsm.random
            (Lowpower.Rng.create seed)
            ~num_states:(3 + states) ~num_inputs:2 ~num_outputs:2 () ))
      (int_bound 10_000) (int_bound 6))

let prop_fsm_synthesis_correct =
  prop ~count:20 "synthesized random FSMs implement their STGs" gen_fsm
    (fun (_, stg) ->
      let enc = Encode.low_power ~restarts:1 stg (Markov.uniform_inputs stg) in
      let synth = Fsm_synth.synthesize stg enc in
      Fsm_synth.implements synth stg
      && Fsm_synth.implements (Clock_gate.gate_fsm synth) stg)

(* Random schedules and bindings stay legal. *)
let prop_schedule_bindings_legal =
  prop ~count:30 "list schedule + bindings legal on random DFGs" gen_dfg
    (fun (seed, dfg) ->
      let d = Schedule.uniform_delays dfg in
      let res = function
        | Modlib.Multiplier_unit -> 2
        | Modlib.Adder_unit -> 2
        | Modlib.Shifter_unit -> 1
      in
      let sched = Schedule.list_schedule dfg d ~resources:res in
      let samples =
        Gen_dfg.random_samples (Lowpower.Rng.create (seed + 5)) dfg ~n:10 ()
      in
      let traces = Dfg.operand_trace dfg samples in
      let fu = Allocate.power_aware dfg d sched ~traces ~max_instances:res in
      let rb = Reg_bind.power_aware dfg d sched ~samples ~max_registers:64 in
      Schedule.valid dfg d sched
      && Allocate.valid dfg d sched fu
      && Reg_bind.valid dfg d sched rb)

let suite =
  [
    prop_decompose_equivalent;
    prop_power_decompose_equivalent;
    prop_mapping_equivalent;
    prop_balance_equivalent;
    prop_exact_matches_tt_probability;
    prop_compiler_correct_on_random_dfgs;
    prop_transforms_preserve_random_dfgs;
    prop_fsm_synthesis_correct;
    prop_schedule_bindings_legal;
  ]
