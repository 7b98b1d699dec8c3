(* The experiment harness: one entry per reproduction target E1..E17 of
   DESIGN.md.  Each experiment prints a table in the style of a paper
   result; EXPERIMENTS.md records the paper claim each one checks. *)

module T = Lowpower.Table
module P = Lowpower.Power_model

let rng seed = Lowpower.Rng.create seed

let act_swcap net =
  let input_probs = Probability.uniform_inputs net in
  Activity.switched_capacitance net (Activity.zero_delay net ~input_probs)

(* ------------------------------------------------------------------ *)

let e1_power_breakdown () =
  let t =
    T.create
      ~caption:
        "E1 (Eqn. 1): power decomposition of mapped circuits at 3.3 V / 50 \
         MHz; the switching term dominates (paper: >90% in well-designed \
         circuits)"
      [ ("circuit", T.Left); ("sw cap/cycle", T.Right); ("total", T.Right);
        ("switching", T.Right); ("short-circuit", T.Right); ("leakage", T.Right) ]
  in
  let params = P.default_params in
  let circuits =
    [
      ("ripple_adder_8", (Circuits.ripple_adder 8).Circuits.net);
      ("csel_adder_8", (Circuits.carry_select_adder 8).Circuits.net);
      ("multiplier_5", (Circuits.array_multiplier 5).Circuits.net);
      ("comparator_8", (Circuits.comparator 8).Circuits.net);
      ("random_40g", Gen_comb.random (rng 11) Gen_comb.default_shape);
    ]
  in
  List.iter
    (fun (name, net) ->
      let input_probs = Probability.uniform_inputs net in
      let act = Activity.zero_delay net ~input_probs in
      (* Interpret unit caps as 20 fF gate loads. *)
      List.iter (fun i -> Network.set_cap net i (Network.cap net i *. 20.0e-15))
        (Network.node_ids net);
      let b = Activity.network_power params net act in
      let pct x = T.cell_pct (x /. P.total b) in
      T.add_row t
        [ name;
          Printf.sprintf "%.1f fF" (Activity.switched_capacitance net act *. 1e15);
          Printf.sprintf "%.3g uW" (P.total b *. 1e6);
          pct b.P.switching; pct b.P.short_circuit; pct b.P.leakage ])
    circuits;
  T.print t

(* ------------------------------------------------------------------ *)

let e2_reorder () =
  let t =
    T.create
      ~caption:
        "E2 (II.A): transistor reordering in complex gates - expected \
         switched capacitance per cycle across series orderings (paper: \
         moderate improvements from judicious ordering)"
      [ ("gate", T.Left); ("input probs", T.Left); ("worst", T.Right);
        ("best", T.Right); ("heuristic", T.Right); ("saving", T.Right);
        ("delay(best-P)", T.Right); ("delay(best-D)", T.Right) ]
  in
  let gates =
    [
      ("NAND3 stack", Mos.Series [ Mos.Input 0; Mos.Input 1; Mos.Input 2 ]);
      ("AOI (a+b).c", Mos.Series [ Mos.Parallel [ Mos.Input 0; Mos.Input 1 ]; Mos.Input 2 ]);
      ("NAND4 stack", Mos.Series [ Mos.Input 0; Mos.Input 1; Mos.Input 2; Mos.Input 3 ]);
    ]
  in
  let profiles =
    [ ("uniform", fun _ -> 0.5); ("skewed", fun v -> [| 0.9; 0.5; 0.1; 0.7 |].(v)) ]
  in
  List.iter
    (fun (gname, gate) ->
      let n = Mos.num_inputs gate in
      List.iter
        (fun (pname, pf) ->
          let input_probs = Array.init n pf in
          let arrival v = [| 2.0; 0.0; 1.0; 0.5 |].(v) in
          let evals =
            List.map
              (fun o -> Reorder.evaluate o ~input_probs ~arrival ())
              (Reorder.orderings gate)
          in
          let powers = List.map fst evals in
          let worst = Lowpower.Stats.maximum powers in
          let _, best_p, best_p_delay =
            Reorder.best Reorder.Min_power gate ~input_probs ~arrival ()
          in
          let _, _, best_d_delay =
            Reorder.best Reorder.Min_delay gate ~input_probs ~arrival ()
          in
          let heur = Reorder.heuristic_power_order gate ~input_probs in
          let heur_p, _ = Reorder.evaluate heur ~input_probs ~arrival () in
          T.add_row t
            [ gname; pname; T.cell_float worst; T.cell_float best_p;
              T.cell_float heur_p;
              T.cell_pct (1.0 -. (best_p /. worst));
              T.cell_float best_p_delay; T.cell_float best_d_delay ])
        profiles)
    gates;
  T.note t "delay(best-P): delay of the power-optimal order; the delay-optimal order trades power for speed";
  T.print t

(* ------------------------------------------------------------------ *)

let e3_sizing () =
  let t =
    T.create
      ~caption:
        "E3 (II.B): slack-driven transistor sizing under a delay constraint \
         (paper: shrink positive-slack gates until slack is zero)"
      [ ("circuit", T.Left); ("constraint", T.Right); ("delay met", T.Right);
        ("sw cap (max size)", T.Right); ("sw cap (sized)", T.Right);
        ("saving", T.Right) ]
  in
  let dp = Sizing.default_delay_params in
  let circuits =
    [ ("ripple_adder_6", (Circuits.ripple_adder 6).Circuits.net);
      ("comparator_8", (Circuits.comparator 8).Circuits.net);
      ("random_40g", Gen_comb.random (rng 3) Gen_comb.default_shape) ]
  in
  List.iter
    (fun (name, net) ->
      let act = Activity.zero_delay net ~input_probs:(Probability.uniform_inputs net) in
      let start = Sizing.uniform net 4.0 in
      let d0 = Sizing.critical_delay dp net start in
      let p0 = Sizing.switched_capacitance dp net start ~activity:act in
      List.iter
        (fun slack_factor ->
          let required = d0 *. slack_factor in
          let sized = Sizing.size_for_power dp net ~required ~activity:act start in
          let d = Sizing.critical_delay dp net sized in
          let p = Sizing.switched_capacitance dp net sized ~activity:act in
          T.add_row t
            [ name; Printf.sprintf "%.1fx D0" slack_factor;
              Printf.sprintf "%.2f/%.2f" d required;
              T.cell_float p0; T.cell_float p; T.cell_pct (1.0 -. (p /. p0)) ])
        [ 1.0; 1.2; 1.5; 2.0 ])
    circuits;
  T.print t

(* ------------------------------------------------------------------ *)

let e4_dontcare () =
  let t =
    T.create
      ~caption:
        "E4 (III.A.1): don't-care optimization - area-driven vs \
         activity-driven node re-implementation ([38],[19])"
      [ ("network", T.Left); ("policy", T.Left); ("lits before", T.Right);
        ("lits after", T.Right); ("sw cap before", T.Right);
        ("sw cap after", T.Right); ("power saving", T.Right) ]
  in
  List.iter
    (fun seed ->
      let shape =
        { Gen_comb.default_shape with Gen_comb.num_inputs = 7; num_gates = 25 }
      in
      let name = Printf.sprintf "random_seed%d" seed in
      List.iter
        (fun (pname, policy_of) ->
          let net = Gen_comb.random (rng seed) shape in
          let input_probs = Probability.uniform_inputs net in
          let lits0 = Network.literal_count net in
          let cap0 = act_swcap net in
          let _ = Dontcare.optimize net (policy_of input_probs) in
          T.add_row t
            [ name; pname; string_of_int lits0;
              string_of_int (Network.literal_count net);
              T.cell_float cap0; T.cell_float (act_swcap net);
              T.cell_pct (1.0 -. (act_swcap net /. cap0)) ])
        [ ("area", fun _ -> Dontcare.For_area);
          ("power [38]", fun p -> Dontcare.For_power p);
          ("power+fanout [19]", fun p -> Dontcare.For_power_fanout p) ])
    [ 1; 2; 3 ];
  T.print t

(* ------------------------------------------------------------------ *)

let e5_glitch () =
  let t =
    T.create
      ~caption:
        "E5 (III.A.2): spurious transitions under unit delay; full path \
         balancing vs selective balancing (pad only gaps > 2), small \
         buffers of 0.2 gate-cap (paper: glitches are 10-40% of activity; \
         reduce rather than eliminate, with minimal buffers)"
      [ ("circuit", T.Left); ("spurious", T.Right);
        ("bufs full/sel", T.Right); ("spurious full/sel", T.Right);
        ("sw cap", T.Right); ("full", T.Right); ("selective", T.Right) ]
  in
  let r = rng 7 in
  let circuits =
    [ ("ripple_adder_8", (Circuits.ripple_adder 8).Circuits.net, 16);
      ("csel_adder_8", (Circuits.carry_select_adder 8).Circuits.net, 16);
      ("cla_adder_8", (Circuits.carry_lookahead_adder 8).Circuits.net, 16);
      ("multiplier_5", (Circuits.array_multiplier 5).Circuits.net, 10);
      ("csave_mult_5", (Circuits.carry_save_multiplier 5).Circuits.net, 10);
      ("multiplier_6", (Circuits.array_multiplier 6).Circuits.net, 12);
      ("random_40g", Gen_comb.random (rng 5) Gen_comb.default_shape, 8) ]
  in
  List.iter
    (fun (name, net, width) ->
      let stim = Stimulus.random r ~width ~length:400 () in
      let before = Event_sim.run net Event_sim.Unit_delay stim in
      let full, nb_full = Balance.balance ~buffer_cap:0.2 net in
      let sel, nb_sel =
        Balance.pad_selective ~buffer_cap:0.2 net ~threshold:2
      in
      let after_full = Event_sim.run full Event_sim.Unit_delay stim in
      let after_sel = Event_sim.run sel Event_sim.Unit_delay stim in
      let cap n res = Event_sim.switched_capacitance n res in
      T.add_row t
        [ name; T.cell_pct (Event_sim.spurious_fraction before);
          Printf.sprintf "%d/%d" nb_full nb_sel;
          Printf.sprintf "%s/%s"
            (T.cell_pct (Event_sim.spurious_fraction after_full))
            (T.cell_pct (Event_sim.spurious_fraction after_sel));
          T.cell_float (cap net before);
          T.cell_float (cap full after_full);
          T.cell_float (cap sel after_sel) ])
    circuits;
  T.note t "where buffer capacitance outweighs the glitch saving, selective balancing limits the damage - the tradeoff the paper describes";
  T.print t

(* ------------------------------------------------------------------ *)

let e6_factor () =
  let t =
    T.create
      ~caption:
        "E6 (III.A.3): kernel extraction driven by literal count vs by \
         switching activity ([5] vs [35]); costs are activity-weighted \
         literals of the factored system"
      [ ("workload", T.Left); ("flat cost", T.Right);
        ("area-driven", T.Right); ("power-driven", T.Right);
        ("power-driven wins by", T.Right) ]
  in
  List.iter
    (fun seed ->
      let r = rng seed in
      let funcs = Gen_comb.random_sop_set r ~nvars:8 ~nfuncs:4 ~cubes:8 ~max_lits:3 in
      let prob v = [| 0.5; 0.1; 0.9; 0.5; 0.3; 0.7; 0.05; 0.5 |].(v) in
      let weight v = 2.0 *. prob v *. (1.0 -. prob v) in
      let activity_cost = Factor.Activity { weight; prob } in
      let flat = Factor.extract ~max_new:0 Factor.Literals ~nvars:8 funcs in
      let by_area = Factor.extract Factor.Literals ~nvars:8 funcs in
      let by_power = Factor.extract activity_cost ~nvars:8 funcs in
      let cost e = Factor.total_cost activity_cost e in
      T.add_row t
        [ Printf.sprintf "sop_seed%d" seed;
          T.cell_float (cost flat); T.cell_float (cost by_area);
          T.cell_float (cost by_power);
          T.cell_pct (1.0 -. (cost by_power /. cost by_area)) ])
    [ 21; 22; 23; 24 ];
  T.print t

(* ------------------------------------------------------------------ *)

let e7_mapping () =
  let t =
    T.create
      ~caption:
        "E7 (III.B): technology mapping objectives ([20] area, delay, [43] \
         power); switched capacitance under uniform inputs"
      [ ("circuit", T.Left); ("objective", T.Left); ("area", T.Right);
        ("delay", T.Right); ("sw cap", T.Right) ]
  in
  let wide_sop =
    (* Two-level functions with wide cubes: the workload where technology
       decomposition ([48]) has choices to make. *)
    Factor.to_network
      (Factor.extract ~max_new:0 Factor.Literals ~nvars:8
         (Gen_comb.random_sop_set (rng 33) ~nvars:8 ~nfuncs:4 ~cubes:6
            ~max_lits:4))
  in
  let circuits =
    [ ("ripple_adder_4", (Circuits.ripple_adder 4).Circuits.net);
      ("multiplier_4", (Circuits.array_multiplier 4).Circuits.net);
      ("comparator_6", (Circuits.comparator 6).Circuits.net);
      ("random_40g", Gen_comb.random (rng 31) Gen_comb.default_shape);
      ("wide_sop_8v", wide_sop) ]
  in
  List.iter
    (fun (name, net) ->
      let subj = Subject.decompose net in
      let input_probs =
        (* Skewed statistics so decomposition choices matter ([48]). *)
        Array.init (List.length (Network.inputs net)) (fun k ->
            [| 0.8; 0.5; 0.15; 0.6; 0.3 |].(k mod 5))
      in
      let subj_act = Activity.zero_delay subj ~input_probs in
      let objectives =
        [ ("area", Mapper.Area); ("delay", Mapper.Delay);
          ("power", Mapper.Power subj_act) ]
      in
      List.iter
        (fun (oname, objective) ->
          let m = Mapper.map subj objective in
          T.add_row t
            [ name; oname;
              T.cell_float ~decimals:1 (Mapper.total_area m);
              T.cell_float ~decimals:1 (Mapper.critical_delay m);
              T.cell_float ~decimals:1 (Mapper.switched_capacitance m ~input_probs) ])
        objectives;
      (* Power-aware technology decomposition ([48]) feeding the power
         mapper. *)
      let psubj = Subject.decompose_for_power net ~input_probs in
      let pact = Activity.zero_delay psubj ~input_probs in
      let pm = Mapper.map psubj (Mapper.Power pact) in
      T.add_row t
        [ name; "power+decomp";
          T.cell_float ~decimals:1 (Mapper.total_area pm);
          T.cell_float ~decimals:1 (Mapper.critical_delay pm);
          T.cell_float ~decimals:1 (Mapper.switched_capacitance pm ~input_probs) ];
      T.add_rule t)
    circuits;
  T.print t

(* ------------------------------------------------------------------ *)

let e8_encoding () =
  let t =
    T.create
      ~caption:
        "E8 (III.C.1): state encoding for low power ([35],[47],[18]); \
         FF toggles/cycle is the weighted-switching objective, literals \
         measure the logic-complexity price"
      [ ("fsm", T.Left); ("encoding", T.Left); ("bits", T.Right);
        ("FF toggles/cycle", T.Right); ("NS+out literals", T.Right) ]
  in
  let machines =
    [ ("counter16", Gen_fsm.counter ~bits:4);
      ("mod12_ring", Gen_fsm.modulo_counter ~modulus:12);
      ("detector1101",
       Gen_fsm.sequence_detector ~pattern:[ true; true; false; true ]);
      ("johnson4", Gen_fsm.johnson ~bits:4);
      ("lfsr5", Gen_fsm.lfsr ~bits:5);
      ("random12", Gen_fsm.random (rng 41) ~num_states:12 ~num_inputs:2
         ~num_outputs:2 ()) ]
  in
  List.iter
    (fun (name, stg) ->
      let q = Markov.uniform_inputs stg in
      let n = Stg.num_states stg in
      let encodings =
        [ ("binary", Encode.binary ~num_states:n);
          ("gray", Encode.gray ~num_states:n);
          ("one-hot", Encode.one_hot ~num_states:n);
          ("low-power", Encode.low_power stg q) ]
      in
      List.iter
        (fun (ename, enc) ->
          let lits =
            if Stg.num_inputs stg + enc.Encode.bits <= 16 then
              string_of_int (Fsm_synth.literal_count (Fsm_synth.synthesize stg enc))
            else "-"
          in
          T.add_row t
            [ name; ename; string_of_int enc.Encode.bits;
              T.cell_float (Encode.weighted_activity stg q enc); lits ])
        encodings;
      T.add_rule t)
    machines;
  T.print t

(* ------------------------------------------------------------------ *)

let e9_businvert () =
  let t =
    T.create
      ~caption:
        "E9 (III.C.1, [39]): bus-invert coding; transition savings vs \
         unencoded bus (paper's example: 0000->1011 sent as 0100 + E)"
      [ ("trace", T.Left); ("width", T.Right); ("raw trans/word", T.Right);
        ("encoded trans/word", T.Right); ("saving", T.Right) ]
  in
  let r = rng 51 in
  let cases =
    List.concat_map
      (fun width ->
        [ (Printf.sprintf "white_noise", width,
           Traces.random_words r ~width ~n:4000);
          ("audio_walk", width, Traces.random_walk r ~width ~n:4000 ~step:20);
          ("antiphase", width,
           List.init 2000 (fun i -> if i mod 2 = 0 then 0 else (1 lsl width) - 1)) ])
      [ 8; 16 ]
  in
  List.iter
    (fun (name, width, words) ->
      let raw = Bus_invert.raw_transitions ~width words in
      let enc = Bus_invert.transitions ~width (Bus_invert.encode ~width words) in
      let n = float_of_int (List.length words) in
      T.add_row t
        [ name; string_of_int width;
          T.cell_float (float_of_int raw /. n);
          T.cell_float (float_of_int enc /. n);
          T.cell_pct (1.0 -. (float_of_int enc /. float_of_int raw)) ])
    cases;
  T.note t "gray addressing (same section): sequential fetch of 1024 words costs 1023 transitions gray-coded vs 2037 binary";
  T.print t

(* ------------------------------------------------------------------ *)

let e10_residue () =
  let t =
    T.create
      ~caption:
        "E10 (III.C.1, [11]): one-hot residue accumulator vs binary \
         accumulator; the binary adder's carry logic glitches, the RNS \
         rotator is wiring (its switching equals its register toggles)"
      [ ("trace", T.Left); ("binary logic swcap/op", T.Right);
        ("binary reg toggles/op", T.Right); ("binary total", T.Right);
        ("RNS total toggles/op", T.Right); ("RNS saving", T.Right) ]
  in
  let r = rng 61 in
  let sys = Residue.standard in
  let width = 10 in
  let adder = (Circuits.ripple_adder width).Circuits.net in
  let cases =
    [ ("white_noise", Traces.random_words r ~width ~n:1500);
      ("audio_walk", Traces.random_walk r ~width ~n:1500 ~step:5);
      ("sparse", Traces.sparse_events r ~width ~n:1500 ~activity:0.2) ]
  in
  List.iter
    (fun (name, data) ->
      let n = float_of_int (List.length data) in
      (* Binary side: a real ripple adder computes acc + d each cycle. *)
      let m = (1 lsl width) - 1 in
      let pairs =
        List.rev
          (snd
             (List.fold_left
                (fun (acc, out) d -> ((acc + d) land m, (acc, d) :: out))
                (0, []) data))
      in
      let stim = Circuits.operand_stimulus pairs ~width in
      let res = Event_sim.run adder Event_sim.Unit_delay stim in
      let logic =
        Event_sim.switched_capacitance adder res
      in
      let reg =
        float_of_int (Residue.binary_accumulate_transitions ~width data) /. n
      in
      (* RNS side: rotation is wiring; switching = one-hot register
         toggles, bounded by 2 per digit. *)
      let rns =
        float_of_int (Residue.accumulate_transitions sys data) /. n
      in
      let binary_total = logic +. reg in
      T.add_row t
        [ name; T.cell_float logic; T.cell_float reg;
          T.cell_float binary_total; T.cell_float rns;
          T.cell_pct (1.0 -. (rns /. binary_total)) ])
    cases;
  T.note t "the cost is area: 10 binary register bits vs 26 one-hot bits (moduli 3,5,7,11)";
  T.print t

(* ------------------------------------------------------------------ *)

let e11_retiming () =
  let t1 =
    T.create
      ~caption:
        "E11a (III.C.2): the observation behind low-power retiming - \
         register outputs switch less than register inputs (multiplier \
         outputs, unit-delay simulation)"
      [ ("circuit", T.Left); ("activity at FF inputs", T.Right);
        ("activity at FF outputs", T.Right); ("filtered", T.Right) ]
  in
  let r = rng 71 in
  List.iter
    (fun (name, dp, width) ->
      let stim = Stimulus.random r ~width ~length:400 () in
      let res = Event_sim.run dp.Circuits.net Event_sim.Unit_delay stim in
      let count tbl =
        List.fold_left
          (fun acc o -> acc + Option.value (Hashtbl.find_opt tbl o) ~default:0)
          0 dp.Circuits.out_bits
      in
      let inp = count res.Event_sim.total in
      let out = count res.Event_sim.functional in
      T.add_row t1
        [ name;
          T.cell_float (float_of_int inp /. float_of_int res.Event_sim.cycles);
          T.cell_float (float_of_int out /. float_of_int res.Event_sim.cycles);
          T.cell_pct (1.0 -. (float_of_int out /. float_of_int inp)) ])
    [ ("multiplier_5", Circuits.array_multiplier 5, 10);
      ("ripple_adder_8", Circuits.ripple_adder 8, 16) ];
  T.print t1;
  let t2 =
    T.create
      ~caption:
        "E11b ([24],[29]): minimum-period retiming, then power-aware \
         selection among retimings meeting the period"
      [ ("graph", T.Left); ("period before", T.Right); ("period after", T.Right);
        ("power cost before", T.Right); ("min-period cost", T.Right);
        ("low-power cost", T.Right) ]
  in
  let graphs =
    [ ("pipeline4",
       (let g = Retime.create ~num_vertices:4 ~delays:[| 0.0; 2.0; 3.0; 2.0 |] in
        Retime.add_edge g ~src:0 ~dst:1 ~weight:3 ~functional:0.1 ~glitchy:0.5 ();
        Retime.add_edge g ~src:1 ~dst:2 ~weight:0 ~functional:0.2 ~glitchy:1.5 ~cap:2.0 ();
        Retime.add_edge g ~src:2 ~dst:3 ~weight:0 ~functional:0.2 ~glitchy:2.5 ~cap:2.0 ();
        Retime.add_edge g ~src:3 ~dst:0 ~weight:0 ~functional:0.1 ~glitchy:0.3 ();
        g));
      ("lattice6",
       (let g = Retime.create ~num_vertices:6 ~delays:[| 0.0; 1.0; 2.0; 2.0; 1.0; 3.0 |] in
        Retime.add_edge g ~src:0 ~dst:1 ~weight:2 ~functional:0.1 ~glitchy:0.2 ();
        Retime.add_edge g ~src:1 ~dst:2 ~weight:0 ~functional:0.3 ~glitchy:1.2 ();
        Retime.add_edge g ~src:1 ~dst:3 ~weight:0 ~functional:0.2 ~glitchy:0.9 ();
        Retime.add_edge g ~src:2 ~dst:4 ~weight:0 ~functional:0.3 ~glitchy:2.0 ~cap:1.5 ();
        Retime.add_edge g ~src:3 ~dst:4 ~weight:0 ~functional:0.2 ~glitchy:0.4 ();
        Retime.add_edge g ~src:4 ~dst:5 ~weight:0 ~functional:0.4 ~glitchy:1.8 ();
        Retime.add_edge g ~src:5 ~dst:0 ~weight:1 ~functional:0.1 ~glitchy:0.2 ();
        g)) ]
  in
  List.iter
    (fun (name, g) ->
      let r_min, p = Retime.min_period g in
      let retimed = Retime.apply g r_min in
      let r_lp = Retime.low_power g ~period:p in
      let lp = Retime.apply g r_lp in
      let r_mr = Retime.min_registers g ~period:p in
      let mr = Retime.apply g r_mr in
      T.add_row t2
        [ name; T.cell_float ~decimals:1 (Retime.clock_period g);
          T.cell_float ~decimals:1 p;
          T.cell_float (Retime.power_cost g);
          T.cell_float (Retime.power_cost retimed);
          Printf.sprintf "%s (regs %d->%d)"
            (Lowpower.Table.cell_float (Retime.power_cost lp))
            (Retime.register_count mr |> fun _ -> Retime.register_count retimed)
            (Retime.register_count mr) ])
    graphs;
  T.note t2 "the low-power column also reports min-register retiming's register count (the paper's other polynomial objective)";
  T.print t2;
  (* E11c: the same machinery on a real measured circuit. *)
  let t3 =
    T.create
      ~caption:
        "E11c: retiming the measured 4x4 array multiplier (registered \
         inputs x3, activities and capacitances from unit-delay \
         simulation)"
      [ ("design", T.Left); ("period", T.Right); ("registers", T.Right);
        ("measured power cost", T.Right) ]
  in
  let dp = Circuits.array_multiplier 4 in
  let stim = Stimulus.random (rng 72) ~width:8 ~length:200 () in
  let res = Event_sim.run dp.Circuits.net Event_sim.Unit_delay stim in
  let g = Retime.of_network dp.Circuits.net ~result:res ~input_registers:3 () in
  let row name graph =
    T.add_row t3
      [ name; T.cell_float ~decimals:1 (Retime.clock_period graph);
        string_of_int (Retime.register_count graph);
        T.cell_float (Retime.power_cost graph) ]
  in
  row "registered inputs (as built)" g;
  let r_min, p = Retime.min_period g in
  row "min-period retiming" (Retime.apply g r_min);
  row "power-aware at min period" (Retime.apply g (Retime.low_power g ~period:p));
  row "min-register at min period"
    (Retime.apply g (Retime.min_registers g ~period:p));
  T.print t3

(* ------------------------------------------------------------------ *)

let e12_clockgate () =
  let t =
    T.create
      ~caption:
        "E12 (III.C.3, [9],[4]): gated clocks; register-bank saving vs duty \
         cycle, and FSM self-loop gating"
      [ ("workload", T.Left); ("idle fraction", T.Right);
        ("ungated energy", T.Right); ("gated energy", T.Right);
        ("saving", T.Right) ]
  in
  let r = rng 81 in
  List.iter
    (fun duty ->
      let bank = Clock_gate.default_bank 16 in
      let data = Traces.random_words r ~width:16 ~n:2000 in
      let trace = Traces.enable_trace r ~n:2000 ~duty ~data in
      let rep = Clock_gate.evaluate bank trace in
      T.add_row t
        [ Printf.sprintf "bank16 duty %.0f%%" (100.0 *. duty);
          T.cell_pct rep.Clock_gate.idle_fraction;
          T.cell_float ~decimals:0 rep.Clock_gate.ungated_energy;
          T.cell_float ~decimals:0 rep.Clock_gate.gated_energy;
          T.cell_pct (Clock_gate.saving rep) ])
    [ 0.1; 0.25; 0.5; 0.9 ];
  T.add_rule t;
  (* FSM self-loop gating. *)
  List.iter
    (fun enable_prob ->
      let stg = Gen_fsm.counter ~bits:4 in
      let synth = Fsm_synth.synthesize stg (Encode.binary ~num_states:16) in
      let gated = Clock_gate.gate_fsm synth in
      let dist = Markov.biased_inputs stg ~bit_probs:[| enable_prob |] in
      let sim c =
        Fsm_synth.simulate_inputs c stg ~rng:(rng 82) ~dist ~cycles:2000
      in
      let plain = sim synth and g = sim gated in
      let e s = Seq_circuit.total_energy s in
      T.add_row t
        [ Printf.sprintf "counter16 fsm, P(en)=%.1f" enable_prob;
          T.cell_pct (Markov.self_loop_probability stg dist);
          T.cell_float ~decimals:0 (e plain); T.cell_float ~decimals:0 (e g);
          T.cell_pct (1.0 -. (e g /. e plain)) ])
    [ 0.1; 0.5 ];
  T.print t

(* ------------------------------------------------------------------ *)

let e13_precompute () =
  let t =
    T.create
      ~caption:
        "E13 (Fig. 1, III.C.4, [1]): precomputation on the n-bit comparator; \
         MSB predictors disable the low-order input registers (paper: \
         reduction is a function of P(XNOR=0), = 1/2 for uniform inputs)"
      [ ("configuration", T.Left); ("P(shutdown)", T.Right);
        ("plain energy", T.Right); ("precomp energy", T.Right);
        ("saving", T.Right); ("equivalent", T.Left) ]
  in
  let r = rng 91 in
  let run_case name n ~bias =
    let dp = Circuits.comparator n in
    let keep =
      [ List.nth dp.Circuits.a_bits (n - 1); List.nth dp.Circuits.b_bits (n - 1) ]
    in
    let input_probs = Array.make (2 * n) 0.5 in
    (match bias with
    | Some (pa, pb) ->
      input_probs.(n - 1) <- pa;
      input_probs.((2 * n) - 1) <- pb
    | None -> ());
    let p =
      Precompute.shutdown_probability dp.Circuits.net ~output:"out0" ~keep
        ~input_probs
    in
    let arch = Precompute.build dp.Circuits.net ~output:"out0" ~keep () in
    let stim =
      List.init 400 (fun _ ->
          Array.init (2 * n) (fun k -> Lowpower.Rng.bernoulli r input_probs.(k)))
    in
    let plain, pre = Precompute.energy_comparison arch ~stimulus:stim in
    let e = Seq_circuit.total_energy in
    let ok = Precompute.equivalent arch ~stimulus:stim in
    T.add_row t
      [ name; T.cell_float p; T.cell_float ~decimals:0 (e plain);
        T.cell_float ~decimals:0 (e pre);
        T.cell_pct (1.0 -. (e pre /. e plain));
        (if ok then "yes" else "NO") ]
  in
  List.iter (fun n -> run_case (Printf.sprintf "cmp%d uniform" n) n ~bias:None)
    [ 4; 8; 12; 16 ];
  T.add_rule t;
  run_case "cmp8 MSBs apart (0.9/0.1)" 8 ~bias:(Some (0.9, 0.1));
  run_case "cmp8 MSBs equal-biased (0.9/0.9)" 8 ~bias:(Some (0.9, 0.9));
  T.print t

(* ------------------------------------------------------------------ *)

let e14_archpower () =
  let t =
    T.create
      ~caption:
        "E14 (IV.A): architecture power models vs gate-level reference; \
         flat per-module costs ([36]) vs activity-sensitive macromodels \
         ([21],[22])"
      [ ("workload", T.Left); ("data", T.Left); ("gate-level ref", T.Right);
        ("flat model err", T.Right); ("macromodel err", T.Right) ]
  in
  let cal = Arch_power.calibrate ~width:6 ~samples:80 ~seed:9 () in
  let kernels =
    [ ("dot4", (fun () ->
          let dfg = Dfg.create () in
          let prods =
            List.init 4 (fun k ->
                let x = Dfg.add dfg (Dfg.Input (Printf.sprintf "x%d" k)) [] in
                let y = Dfg.add dfg (Dfg.Input (Printf.sprintf "y%d" k)) [] in
                Dfg.add dfg Dfg.Mul [ x; y ])
          in
          let s =
            match prods with
            | p :: rest ->
              List.fold_left (fun acc q -> Dfg.add dfg Dfg.Add [ acc; q ]) p rest
            | [] -> assert false
          in
          ignore (Dfg.add dfg (Dfg.Output "dot") [ s ]);
          dfg));
      ("biquad", Gen_dfg.biquad);
      ("ewf20", fun () -> Gen_dfg.ewf_like (rng 14) ~ops:20) ]
  in
  List.iter
    (fun (name, build) ->
      let dfg = build () in
      List.iter
        (fun (dname, correlated) ->
          let samples =
            Gen_dfg.random_samples (rng 15) dfg ~n:50 ~correlated ()
          in
          let traces = Dfg.operand_trace dfg samples in
          let reference = Arch_power.gate_level cal dfg ~traces in
          let flat = Arch_power.module_cost_sum cal dfg in
          let act = Arch_power.activity_macromodel cal dfg ~traces in
          let err x = T.cell_pct (Float.abs (x -. reference) /. reference) in
          T.add_row t
            [ name; dname; T.cell_float ~decimals:1 reference; err flat; err act ])
        [ ("white", false); ("correlated", true) ])
    kernels;
  T.note t "the flat model cannot see data correlation; the macromodel tracks it (shape claim of IV.A)";
  T.print t

(* ------------------------------------------------------------------ *)

let e15_voltage () =
  let t =
    T.create
      ~caption:
        "E15 (IV.B, [7]): transformations reduce control steps, enabling \
         voltage scaling at fixed throughput; quadratic power win despite \
         extra capacitance"
      [ ("design", T.Left); ("steps", T.Right); ("sw cap", T.Right);
        ("min Vdd", T.Right); ("power (norm.)", T.Right) ]
  in
  let dfg = Gen_dfg.fir ~taps:8 () in
  let d = Schedule.uniform_delays dfg in
  let module_cap dfg factor =
    (* Energy per evaluation: per-op module costs from the library. *)
    List.fold_left
      (fun acc i ->
        match Modlib.kind_of_op (Dfg.op dfg i) with
        | Some k -> acc +. (Modlib.cheapest Modlib.default k).Modlib.energy_per_op
        | None -> acc)
      0.0 (Dfg.operation_nodes dfg)
    *. factor
  in
  let serial =
    Schedule.list_schedule dfg d ~resources:(fun _ -> 1)
  in
  let parallel =
    Schedule.list_schedule dfg d ~resources:(function
      | Modlib.Multiplier_unit -> 4
      | _ -> 2)
  in
  let reduced = Transform.tree_height_reduce dfg in
  let reduced_parallel =
    Schedule.list_schedule reduced (Schedule.uniform_delays reduced)
      ~resources:(function
      | Modlib.Multiplier_unit -> 4
      | _ -> 2)
  in
  let deadline = serial.Schedule.makespan in
  let rows =
    [ ("serial (1 mul, 1 add)", serial.Schedule.makespan, module_cap dfg 1.0);
      ("parallel (4 mul, 2 add)", parallel.Schedule.makespan,
       module_cap dfg 1.15);
      ("parallel + tree-height", reduced_parallel.Schedule.makespan,
       module_cap reduced 1.2) ]
  in
  let base_power = ref None in
  List.iter
    (fun (name, steps, cap) ->
      match
        Voltage.evaluate ~switched_cap:cap ~steps ~deadline_steps:deadline
          ~ref_vdd:3.3 ~v_threshold:0.7
      with
      | None -> T.add_row t [ name; string_of_int steps; T.cell_float cap; "-"; "-" ]
      | Some op ->
        let base =
          match !base_power with
          | Some b -> b
          | None ->
            base_power := Some op.Voltage.power;
            op.Voltage.power
        in
        T.add_row t
          [ name; string_of_int steps; T.cell_float ~decimals:0 cap;
            Printf.sprintf "%.2f V" op.Voltage.vdd;
            T.cell_float (op.Voltage.power /. base) ])
    rows;
  T.note t "capacitance overheads of 15-20% model the extra interconnect of the concurrent designs ([7])";
  T.print t;
  (* Module selection ([17]): meet a deadline with mixed fast/low-power
     units instead of voltage scaling. *)
  let t2 =
    T.create
      ~caption:
        "E15b (IV.B, [17]): module selection - critical operations on fast \
         units, slack operations on low-power ones (8-tap FIR, ASAP \
         critical path under per-op module delays)"
      [ ("selection", T.Left); ("deadline", T.Right); ("makespan", T.Right);
        ("module energy", T.Right) ]
  in
  let fast = Module_select.all_fastest Modlib.default dfg in
  let cheap = Module_select.all_cheapest Modlib.default dfg in
  let d_min = Module_select.makespan dfg fast in
  T.add_row t2
    [ "all fastest"; "-"; string_of_int d_min;
      T.cell_float ~decimals:0 (Module_select.energy fast) ];
  List.iter
    (fun slack ->
      let deadline = d_min + slack in
      let c = Module_select.select Modlib.default dfg ~deadline in
      T.add_row t2
        [ Printf.sprintf "selected (+%d slack)" slack;
          string_of_int deadline;
          string_of_int (Module_select.makespan dfg c);
          T.cell_float ~decimals:0 (Module_select.energy c) ])
    [ 1; 3; 6 ];
  T.add_row t2
    [ "all low-power"; "-";
      string_of_int (Module_select.makespan dfg cheap);
      T.cell_float ~decimals:0 (Module_select.energy cheap) ];
  T.print t2

(* ------------------------------------------------------------------ *)

let e16_memory () =
  let t =
    T.create
      ~caption:
        "E16 (IV.B, [14]): loop reordering for memory power; 8x48 matrix \
         with a row-major array A[i][j] and a column-major array B[j][i]"
      [ ("buffer", T.Left); ("order i,j", T.Right); ("order j,i", T.Right);
        ("best order", T.Left); ("best energy", T.Right); ("saving vs worst", T.Right) ]
  in
  (* Asymmetric trip counts: the short dimension's working set can fit in a
     small buffer while the long one cannot, so the two orders separate. *)
  let nest = Memory_opt.matrix_sum_nest ~rows:8 ~cols:48 in
  List.iter
    (fun buffer_words ->
      let model = { Memory_opt.default_memory with Memory_opt.buffer_words } in
      let energy order =
        (Memory_opt.simulate model (Memory_opt.trace (Memory_opt.reorder nest ~order)))
          .Memory_opt.energy
      in
      let e_ij = energy [ "i"; "j" ] and e_ji = energy [ "j"; "i" ] in
      let order, best = Memory_opt.best_order model nest in
      let worst = max e_ij e_ji in
      T.add_row t
        [ Printf.sprintf "%d words" buffer_words;
          T.cell_float ~decimals:0 e_ij; T.cell_float ~decimals:0 e_ji;
          String.concat "," order; T.cell_float ~decimals:0 best;
          T.cell_pct (1.0 -. (best /. worst)) ])
    [ 16; 64; 256 ];
  T.note t "with a buffer holding a full row of either array the orders converge - the optimum is buffer-dependent, which is why [14] explores it automatically";
  T.print t

(* ------------------------------------------------------------------ *)

let e17_software () =
  let t =
    T.create
      ~caption:
        "E17 (V, [46],[45],[40],[23]): instruction-level power; an 8-term \
         dot product compiled six ways, executed on both CPU profiles"
      [ ("compiler", T.Left); ("instrs", T.Right); ("cycles", T.Right);
        ("GP energy", T.Right); ("DSP energy", T.Right) ]
  in
  let dfg =
    let dfg = Dfg.create ~width:12 () in
    let prods =
      List.init 8 (fun k ->
          let x = Dfg.add dfg (Dfg.Input (Printf.sprintf "x%d" k)) [] in
          let y = Dfg.add dfg (Dfg.Input (Printf.sprintf "y%d" k)) [] in
          Dfg.add dfg Dfg.Mul [ x; y ])
    in
    let s =
      match prods with
      | p :: rest -> List.fold_left (fun acc q -> Dfg.add dfg Dfg.Add [ acc; q ]) p rest
      | [] -> assert false
    in
    ignore (Dfg.add dfg (Dfg.Output "dot") [ s ]);
    dfg
  in
  let inputs = List.mapi (fun k (nm, _) -> (nm, (k * 93) + 7)) (Dfg.inputs dfg) in
  let variants =
    [ ("naive (memory temps)", Compile.naive);
      ("registers + MAC", Compile.optimized ());
      ("+ GP cold scheduling", Compile.optimized ~profile:Energy_model.gp_cpu ());
      ("+ DSP cold scheduling", { (Compile.optimized ~profile:Energy_model.dsp_cpu ()) with Compile.pair = false });
      ("+ DSP sched + pairing", Compile.optimized ~profile:Energy_model.dsp_cpu ());
      ("4 regs, DSP sched+pair",
       { (Compile.optimized ~profile:Energy_model.dsp_cpu ()) with
         Compile.registers = 4 }) ]
  in
  List.iter
    (fun (name, opts) ->
      let comp = Compile.compile opts dfg in
      assert (Compile.verify comp dfg ~rng:(rng 99) ~samples:50);
      let e_gp, cycles = Compile.measure comp Energy_model.gp_cpu ~width:12 inputs in
      let e_dsp, _ = Compile.measure comp Energy_model.dsp_cpu ~width:12 inputs in
      T.add_row t
        [ name; string_of_int (List.length comp.Compile.program);
          string_of_int cycles;
          T.cell_float ~decimals:1 e_gp; T.cell_float ~decimals:1 e_dsp ])
    variants;
  T.note t "paper claims reproduced: faster is cheaper; registers beat memory; scheduling barely matters on the GP core but does on the DSP; pairing compacts";
  T.print t;
  (* Streaming form: looped kernels over memory-resident buffers. *)
  let t2 =
    T.create
      ~caption:
        "E17b (V, [23]): streaming 4-tap FIR over 64 samples - looped \
         kernel vs unrolled, with and without Ld/MAC pairing in the loop"
      [ ("kernel", T.Left); ("code size", T.Right); ("cycles", T.Right);
        ("DSP energy", T.Right); ("energy/sample", T.Right) ]
  in
  let taps = 4 and samples = 64 in
  let r = rng 131 in
  let coeffs = List.init taps (fun k -> (2 * k) + 1) in
  let xs = List.init (samples + taps - 1) (fun _ -> Lowpower.Rng.int r 4096) in
  let expect = Kernels.reference_fir ~taps ~samples ~coeffs ~xs ~width:16 in
  let run name program layout =
    let m = Machine.create ~width:16 () in
    Kernels.load_fir_inputs m layout ~coeffs ~xs;
    let cycles = Machine.run m program in
    assert (Kernels.read_fir_outputs m layout ~samples = expect);
    let e = Energy_model.program_energy Energy_model.dsp_cpu (Machine.executed m) in
    T.add_row t2
      [ name; string_of_int (List.length program); string_of_int cycles;
        T.cell_float ~decimals:0 e;
        T.cell_float ~decimals:1 (e /. float_of_int samples) ]
  in
  let looped, l1 = Kernels.streaming_fir ~taps ~samples () in
  let paired, l2 = Kernels.streaming_fir ~taps ~samples ~pair:true () in
  let unrolled, l3 = Kernels.unrolled_fir ~taps ~samples in
  run "looped" looped l1;
  run "looped + Ld/MAC pairing" paired l2;
  run "fully unrolled" unrolled l3;
  T.note t2 "every kernel's outputs are checked against the integer reference before energy is reported";
  T.print t2

let e18_guarded_evaluation () =
  let t =
    T.create
      ~caption:
        "E18 (III.C.4, [44]): guarded evaluation - transparent latches on \
         the unobservable block of a mux-selected comparator pair; guard = \
         exact ODC (here simply the select line)"
      [ ("width", T.Right); ("P(sel=1)", T.Right); ("latches", T.Right);
        ("plain energy", T.Right); ("guarded energy", T.Right);
        ("saving", T.Right); ("equivalent", T.Left) ]
  in
  let r = rng 101 in
  List.iter
    (fun (n, p_sel) ->
      let net, _sel = Circuits.mux_compare n in
      let z = List.assoc "z" (Network.outputs net) in
      let eq_root =
        match Network.fanins net z with
        | [ _; _; e ] -> e
        | _ -> failwith "mux shape"
      in
      match Guard.auto net ~root:eq_root with
      | None -> failwith "expected a guard"
      | Some g ->
        let width = (2 * n) + 1 in
        let stim =
          List.init 600 (fun _ ->
              Array.init width (fun k ->
                  if k = 0 then Lowpower.Rng.bernoulli r p_sel
                  else Lowpower.Rng.bool r))
        in
        let ok = Guard.equivalent g net ~stimulus:stim in
        let plain, guarded = Guard.energy_comparison g net ~stimulus:stim in
        T.add_row t
          [ string_of_int n; T.cell_float ~decimals:1 p_sel;
            string_of_int g.Guard.latch_count;
            T.cell_float ~decimals:0 plain; T.cell_float ~decimals:0 guarded;
            T.cell_pct (1.0 -. (guarded /. plain));
            (if ok then "yes" else "NO") ])
    [ (4, 0.5); (8, 0.5); (8, 0.9); (8, 0.1) ];
  T.note t "the equality block is guarded; savings track how often the mux ignores it (P(sel=1)), mirroring E13's probability dependence";
  T.print t

let e19_sequential_estimation () =
  let t =
    T.create
      ~caption:
        "E19 (V / III.C, [28]): power estimation of sequential circuits - \
         exact chain analysis vs the white-noise state assumption it \
         replaces (counter FSM, enable duty swept)"
      [ ("P(enable)", T.Right); ("FF toggles/cycle (exact)", T.Right);
        ("simulated", T.Right); ("sw cap (exact)", T.Right);
        ("white-noise estimate err", T.Right) ]
  in
  let stg = Gen_fsm.counter ~bits:4 in
  let synth = Fsm_synth.synthesize stg (Encode.binary ~num_states:16) in
  List.iter
    (fun duty ->
      let est =
        Seq_estimate.steady_state synth.Fsm_synth.circuit
          ~input_bit_probs:[| duty |]
      in
      let dist = Markov.biased_inputs stg ~bit_probs:[| duty |] in
      let cycles = 20_000 in
      let stats =
        Fsm_synth.simulate_inputs synth stg ~rng:(rng 111) ~dist ~cycles
      in
      T.add_row t
        [ T.cell_float ~decimals:1 duty;
          T.cell_float est.Seq_estimate.ff_toggle_rate;
          T.cell_float
            (float_of_int stats.Seq_circuit.ff_output_toggles
            /. float_of_int cycles);
          T.cell_float est.Seq_estimate.switched_capacitance;
          T.cell_pct
            (Seq_estimate.white_noise_error est synth.Fsm_synth.circuit) ])
    [ 0.1; 0.3; 0.5; 0.9 ];
  T.note t "the white-noise error grows as the state statistics depart from uniform - the gap [28]'s sequential estimation closes";
  T.print t

let e20_ablations () =
  let t =
    T.create
      ~caption:
        "E20 (ablations): design choices called out in DESIGN.md, each \
         toggled in isolation"
      [ ("ablation", T.Left); ("baseline", T.Right); ("ablated", T.Right);
        ("effect", T.Left) ]
  in
  (* a. Espresso REDUCE step: full loop vs expand/irredundant only. *)
  let reduce_gain =
    let total full =
      List.fold_left
        (fun acc seed ->
          let tt =
            Truth_table.of_fun 6 (fun code ->
                let x = code lxor (seed * 7) in
                (x land 5 <> 0 && x land 3 <> 3) || x = 21)
          in
          let f = Cover.of_truth_table tt in
          let g =
            if full then Cover.minimize f
            else Cover.irredundant (Cover.expand f ~dc:(Cover.empty 6)) ~dc:(Cover.empty 6)
          in
          acc + Cover.literal_count g)
        0 [ 1; 2; 3; 4; 5 ]
    in
    (total true, total false)
  in
  let w_reduce, wo_reduce = reduce_gain in
  T.add_row t
    [ "espresso REDUCE pass (literals, 5 covers)";
      string_of_int w_reduce; string_of_int wo_reduce;
      (if w_reduce <= wo_reduce then "REDUCE helps or ties" else "REDUCE hurt") ];
  (* b. Precomputation predictor width: R1 = 1 vs 2 vs 4 MSB pairs. *)
  let n = 8 in
  let dp = Circuits.comparator n in
  List.iter
    (fun r1_bits ->
      let keep =
        List.concat
          (List.init r1_bits (fun k ->
               [ List.nth dp.Circuits.a_bits (n - 1 - k);
                 List.nth dp.Circuits.b_bits (n - 1 - k) ]))
      in
      let p =
        Precompute.shutdown_probability dp.Circuits.net ~output:"out0" ~keep
          ~input_probs:(Array.make (2 * n) 0.5)
      in
      T.add_row t
        [ Printf.sprintf "precompute R1 = top %d bit pair(s)" r1_bits;
          "P(shutdown)"; T.cell_float p;
          "wider predictors gate more but cost more logic" ])
    [ 1; 2; 4 ];
  (* c. Encoding search restarts. *)
  let stg = Gen_fsm.random (rng 41) ~num_states:12 ~num_inputs:2 ~num_outputs:2 () in
  let q = Markov.uniform_inputs stg in
  let act restarts =
    Encode.weighted_activity stg q (Encode.low_power ~restarts stg q)
  in
  T.add_row t
    [ "encoding search: 1 vs 8 restarts";
      T.cell_float (act 1); T.cell_float (act 8);
      "more restarts never worse (best-of selection)" ];
  (* d. Technology decomposition: hybrid choice vs always-balanced. *)
  let wide =
    Factor.to_network
      (Factor.extract ~max_new:0 Factor.Literals ~nvars:8
         (Gen_comb.random_sop_set (rng 33) ~nvars:8 ~nfuncs:4 ~cubes:6 ~max_lits:4))
  in
  let input_probs =
    Array.init 8 (fun k -> [| 0.8; 0.5; 0.15; 0.6; 0.3 |].(k mod 5))
  in
  let swcap subj =
    let a = Activity.zero_delay subj ~input_probs in
    Mapper.switched_capacitance (Mapper.map subj (Mapper.Power a)) ~input_probs
  in
  T.add_row t
    [ "decomposition: balanced only vs hybrid ([48])";
      T.cell_float ~decimals:1 (swcap (Subject.decompose wide));
      T.cell_float ~decimals:1
        (swcap (Subject.decompose_for_power wide ~input_probs));
      "hybrid picks chain or tree per node" ];
  T.print t

let e21_algorithm_selection () =
  let t =
    T.create
      ~caption:
        "E21 (V, [49]): algorithm selection - the same degree-6 polynomial \
         by naive powers vs Horner's rule, through the whole flow \
         (compile, execute, instruction-level energy)"
      [ ("algorithm", T.Left); ("DFG ops", T.Right); ("instrs", T.Right);
        ("cycles", T.Right); ("GP energy", T.Right); ("DSP energy", T.Right) ]
  in
  List.iter
    (fun (name, dfg) ->
      let comp = Compile.compile (Compile.optimized ()) dfg in
      assert (Compile.verify comp dfg ~rng:(rng 121) ~samples:50);
      let e_gp, cycles = Compile.measure comp Energy_model.gp_cpu [ ("x", 13) ] in
      let e_dsp, _ = Compile.measure comp Energy_model.dsp_cpu [ ("x", 13) ] in
      T.add_row t
        [ name; string_of_int (Dfg.num_ops dfg);
          string_of_int (List.length comp.Compile.program);
          string_of_int cycles;
          T.cell_float ~decimals:1 e_gp; T.cell_float ~decimals:1 e_dsp ])
    [ ("naive powers", Gen_dfg.poly_naive ~degree:6 ());
      ("horner", Gen_dfg.poly_horner ~degree:6 ()) ];
  T.note t "\"the choice of the algorithm used can impact the power cost since it determines the runtime complexity\" - automated here by comparing compiled kernels";
  T.print t

let e22_dualvth () =
  let t =
    T.create
      ~caption:
        "E22 (II.B + leakage axis): slack-driven gate sizing and dual-Vth \
         assignment on mapped netlists - per-iteration trajectory of the \
         dualvth-opt loop (downsize / upsize / HVT-swap), timed by the \
         incremental STA engine"
      [ ("circuit", T.Left); ("iter", T.Right); ("down/up/hvt", T.Right);
        ("worst slack", T.Right); ("sw cap", T.Right); ("leak uA", T.Right);
        ("power uW", T.Right); ("hvt", T.Right) ]
  in
  let circuits =
    [ ("ripple_adder_4", (Circuits.ripple_adder 4).Circuits.net);
      ("mult_4", (Circuits.array_multiplier 4).Circuits.net) ]
  in
  List.iter
    (fun (name, net) ->
      let subj = Subject.decompose net in
      let probs = Array.make (List.length (Network.inputs subj)) 0.5 in
      let act = Activity.zero_delay subj ~input_probs:probs in
      let m = Mapper.map ~verify:`Off subj (Mapper.Power act) in
      let r = Dualvth.optimize_mapping m ~input_probs:probs in
      let gates = List.length r.Dualvth.assignment in
      List.iter
        (fun (s : Dualvth.step) ->
          T.add_row t
            [ (if s.Dualvth.iteration = 0 then name else "");
              string_of_int s.Dualvth.iteration;
              Printf.sprintf "%d/%d/%d" s.Dualvth.downsized s.Dualvth.upsized
                s.Dualvth.hvt_assigned;
              T.cell_float ~decimals:3 s.Dualvth.worst_slack;
              T.cell_float ~decimals:1 s.Dualvth.switched_cap;
              T.cell_float ~decimals:4 (s.Dualvth.leakage *. 1e6);
              T.cell_float ~decimals:1
                (Lowpower.Power_model.total s.Dualvth.power *. 1e6);
              Printf.sprintf "%d/%d" s.Dualvth.hvt_count gates ])
        r.Dualvth.steps;
      let st = r.Dualvth.sta in
      T.note t
        (Printf.sprintf
           "%s: %d moves in %d STA updates (%d+%d incremental node visits, \
            %d full passes); iteration 0 is the all-max-drive low-Vth start \
            the constraint is taken from"
           name r.Dualvth.moves st.Sta.updates st.Sta.arrival_visits
           st.Sta.required_visits st.Sta.full_passes))
    circuits;
  T.print t

let e23_rewrite () =
  let t =
    T.create
      ~caption:
        "E23 (IV + II.C): activity-costed datapath rewriting of a \
         dense-coefficient FIR-8 under a correlated (random-walk) input \
         trace - measured-toggle costing vs area costing over the same \
         SAT-verified rule set; every accepted step proved against its \
         parent through an incremental CEC session on the parent's \
         elaboration"
      [ ("search", T.Left); ("ops", T.Right); ("steps", T.Right);
        ("proofs", T.Right); ("toggles", T.Right); ("reduction", T.Right) ]
  in
  let dfg =
    Gen_dfg.fir ~taps:8 ~coeffs:[ 127; 63; 119; 123; 125; 111; 95; 87 ]
      ~width:8 ()
  in
  let trace = Gen_dfg.random_samples (rng 42) dfg ~n:64 ~correlated:true () in
  let inputs = List.sort compare (List.map fst (Dfg.inputs dfg)) in
  let toggles g = Cost.of_dfg ~model:Cost.Toggles ~inputs g ~trace in
  let t0 = toggles dfg in
  let row name g steps proofs =
    let tg = toggles g in
    T.add_row t
      [ name; string_of_int (Dfg.num_ops g); string_of_int steps;
        string_of_int proofs; T.cell_float ~decimals:1 tg;
        T.cell_pct ((t0 -. tg) /. t0) ]
  in
  row "none (baseline)" dfg 0 0;
  (* blind strength reduction: CSD-recode every multiplier, no costing *)
  let rec csd_all g =
    match Rules.apply Rules.csd_mul g with None -> g | Some g' -> csd_all g'
  in
  row "all-CSD (no search)" (csd_all dfg) 0 0;
  let search name model =
    let res =
      Search.run ~max_steps:10 ~samples:32 ~memo:(Memo.create ()) ~model
        ~rng:(rng 7) dfg ~trace
    in
    assert (Transform.equivalent ~samples:200 dfg res.Search.final
              ~rng:(rng 123));
    row name res.Search.final
      (List.length res.Search.steps)
      res.Search.proofs
  in
  search "area-costed" Cost.Area;
  search "toggle-costed" Cost.Toggles;
  T.note t
    "measured activity on the deployment trace picks different rewrites \
     than area: correlated inputs make some wide intermediates cheap and \
     some narrow ones hot, which a gate count cannot see";
  T.print t

let e24_measured_feedback () =
  let t =
    T.create
      ~caption:
        "E24 (IV.A + III.A.1): measured-activity feedback - don't-care \
         resynthesis scored by toggles measured over a correlated \
         random-walk trace (incremental Actsim engine) vs the \
         independence-model policy, on a random 16-input cone; every \
         variant CEC-proved equivalent to the source"
      [ ("synthesis", T.Left); ("lits", T.Right); ("changed", T.Right);
        ("measured cap/cycle", T.Right); ("reduction", T.Right) ]
  in
  let net =
    Gen_comb.random (rng 9)
      { Gen_comb.num_inputs = 16; num_gates = 60; max_fanin = 3;
        output_fraction = 0.15 }
  in
  let trace = Traces.correlated_walk (rng 5) ~bits:16 ~n:512 () in
  let score n = Annotation.switched_capacitance (Annotation.measure n ~trace) in
  let s0 = score net in
  let row name n changed =
    assert (Cec.check net n = Cec.Equivalent);
    let s = score n in
    T.add_row t
      [ name; string_of_int (Network.literal_count n); changed;
        T.cell_float ~decimals:2 s; T.cell_pct ((s0 -. s) /. s0) ]
  in
  T.add_row t
    [ "none (baseline)"; string_of_int (Network.literal_count net); "-";
      T.cell_float ~decimals:2 s0; T.cell_pct 0.0 ];
  (* Model-driven: the same don't-care flexibility, scored by the
     independence-model probability skew ([38]). *)
  let model = Network.copy net in
  let model_changed =
    Dontcare.optimize ~verify:`Off model
      (Dontcare.For_power (Array.make 16 0.5))
  in
  row "model-driven don't-cares" model (string_of_int model_changed);
  (* Measured-driven: same candidates, each installed and re-measured
     through the incremental engine against the retained trace. *)
  let meas = Network.copy net in
  let r = Resynth.measured ~verify:`Off meas ~trace in
  row "measured-driven (Actsim)" meas (string_of_int r.Resynth.changed);
  let p = Tournament.run ~name:"e24" ~trace net in
  row
    (Printf.sprintf "tournament champion (%s)" p.Tournament.champion)
    p.Tournament.champion_net "-";
  (* The headline claim of the feedback loop, enforced: on this correlated
     workload the measured optimizer lands strictly below the model-driven
     one on measured toggles. *)
  assert (score meas < score model);
  T.note t
    (Printf.sprintf
       "engine: %d candidate installs re-measured in %d incremental node \
        visits / %d word evals"
       r.Resynth.sim.Actsim.updates r.Resynth.sim.Actsim.node_visits
       r.Resynth.sim.Actsim.word_evals);
  let a = Annotation.measure net ~trace in
  let bdd_nodes order =
    let man =
      match order with
      | None -> Bdd.manager ()
      | Some o -> Bdd.manager ~order:o ()
    in
    let roots =
      List.map
        (fun (name, _) -> Network.output_bdd net man name)
        (Network.outputs net)
    in
    ignore (Bdd.reorder man roots);
    Bdd.node_count man
  in
  T.note t
    (Printf.sprintf
       "annotations thread through the consumers: BDD sifting seeded by \
        measured toggle rank %d nodes vs declared order %d; mapping under \
        measured activity %.1f cap/cycle vs model activity %.1f (measured \
        on the trace)"
       (bdd_nodes (Some (Annotation.bdd_input_order a)))
       (bdd_nodes None)
       (let subj = Subject.decompose (Network.copy net) in
        let sa = Annotation.activity (Annotation.measure subj ~trace) in
        score (Mapper.netlist (Mapper.map ~verify:`Off subj (Mapper.Power sa))))
       (let subj = Subject.decompose (Network.copy net) in
        let act =
          Activity.zero_delay ~exact:false subj
            ~input_probs:(Array.make 16 0.5)
        in
        score (Mapper.netlist (Mapper.map ~verify:`Off subj (Mapper.Power act)))));
  T.print t

let all =
  [ ("e1_power_breakdown", e1_power_breakdown);
    ("e2_reorder", e2_reorder);
    ("e3_sizing", e3_sizing);
    ("e4_dontcare", e4_dontcare);
    ("e5_glitch", e5_glitch);
    ("e6_factor", e6_factor);
    ("e7_mapping", e7_mapping);
    ("e8_encoding", e8_encoding);
    ("e9_businvert", e9_businvert);
    ("e10_residue", e10_residue);
    ("e11_retiming", e11_retiming);
    ("e12_clockgate", e12_clockgate);
    ("e13_precompute", e13_precompute);
    ("e14_archpower", e14_archpower);
    ("e15_voltage", e15_voltage);
    ("e16_memory", e16_memory);
    ("e17_software", e17_software);
    ("e18_guarded_evaluation", e18_guarded_evaluation);
    ("e19_sequential_estimation", e19_sequential_estimation);
    ("e20_ablations", e20_ablations);
    ("e21_algorithm_selection", e21_algorithm_selection);
    ("e22_dualvth", e22_dualvth);
    ("e23_rewrite", e23_rewrite);
    ("e24_measured_feedback", e24_measured_feedback) ]
