(* Differential tests for the incremental timing engine (Sta vs a fresh
   engine's full pass and vs a naive Hashtbl propagation), the
   Vth-aware leakage model, the sized/Vth techlib variants, and the
   Dualvth sizing loop's invariants. *)

open Test_util

module P = Lowpower.Power_model

(* ---- Sta: incremental vs a fresh engine, float-exact ---------------- *)

let gen_net seed ~gates =
  Gen_comb.random
    (Lowpower.Rng.create seed)
    { Gen_comb.num_inputs = 8; num_gates = gates; max_fanin = 3;
      output_fraction = 0.2 }

let delays_of net (g : Sta.graph) =
  let d = Array.make g.Sta.size 0.0 in
  List.iter (fun i -> d.(i) <- Network.delay net i) (Network.node_ids net);
  d

(* Delay values on a coarse grid keep every arithmetic step exactly
   representable; the comparisons below are [=], not epsilon. *)
let random_delay r = float_of_int (1 + Lowpower.Rng.int r 16) /. 4.0

let arrays_equal name a b =
  if not (Array.length a = Array.length b && Array.for_all2 ( = ) a b) then
    Alcotest.failf "%s: incremental and full arrays differ" name

(* Requireds are materialized after a random number of the edits (0:
   before the first), the way Dualvth first runs arrival-only worst_slack
   trials and materializes on its first slack query.  After every edit
   the engine must equal a fresh engine over the edited delays: arrivals
   always, requireds once materialized. *)
let test_incremental_matches_full =
  prop ~count:120 "incremental = full over random resize sequences"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let r = Lowpower.Rng.create (seed + 1) in
      let net = gen_net seed ~gates:(40 + Lowpower.Rng.int r 120) in
      let g = Network.timing_graph net in
      let delays = delays_of net g in
      let required = 1.25 *. Network.critical_delay net in
      let sta = Sta.create ~required g delays in
      let edits = 20 in
      let materialize_at = Lowpower.Rng.int r edits in
      let live = Array.of_list (Network.node_ids net) in
      let ok = ref true in
      for k = 0 to edits do
        if k > 0 then begin
          let x = live.(Lowpower.Rng.int r (Array.length live)) in
          Sta.set_delay sta x (random_delay r);
          delays.(x) <- Sta.delay sta x
        end;
        if k = materialize_at then ignore (Sta.required_array sta);
        let fresh = Sta.create ~required g delays in
        arrays_equal
          (Printf.sprintf "arrivals after edit %d" k)
          (Sta.arrival_array fresh) (Sta.arrival_array sta);
        if k >= materialize_at then
          arrays_equal
            (Printf.sprintf "requireds after edit %d" k)
            (Sta.required_array fresh) (Sta.required_array sta);
        (* worst_slack avoids materializing requireds; it must still agree
           exactly with the slack of the latest sink. *)
        ok :=
          !ok
          && Sta.worst_slack sta
             = Sta.required_limit sta -. Sta.critical_delay sta
      done;
      !ok)

let test_revert_exactness () =
  let net = gen_net 77 ~gates:120 in
  let g = Network.timing_graph net in
  let sta = Sta.create g (delays_of net g) in
  ignore (Sta.required_array sta);
  let at0 = Array.copy (Sta.arrival_array sta) in
  let rt0 = Array.copy (Sta.required_array sta) in
  let r = rng () in
  let live = Array.of_list (Network.node_ids net) in
  let picks =
    Array.init 12 (fun _ -> live.(Lowpower.Rng.int r (Array.length live)))
  in
  let olds = Array.map (Sta.delay sta) picks in
  Array.iter (fun x -> Sta.set_delay sta x (random_delay r)) picks;
  (* Undo in reverse order: state must come back bit-identical. *)
  for k = Array.length picks - 1 downto 0 do
    Sta.set_delay sta picks.(k) olds.(k)
  done;
  arrays_equal "arrivals after revert" at0 (Sta.arrival_array sta);
  arrays_equal "requireds after revert" rt0 (Sta.required_array sta)

let test_lazy_required_materialization () =
  let net = gen_net 5 ~gates:60 in
  let g = Network.timing_graph net in
  let sta = Sta.create g (delays_of net g) in
  let st = Sta.stats sta in
  Alcotest.(check int) "creation = one forward pass" 1 st.Sta.full_passes;
  let x =
    List.find (fun i -> not (Network.is_input net i)) (Network.node_ids net)
  in
  Sta.set_delay sta x (Sta.delay sta x +. 0.5);
  let st = Sta.stats sta in
  Alcotest.(check int) "no backward work before first query" 0
    st.Sta.required_visits;
  ignore (Sta.slack sta x);
  let st = Sta.stats sta in
  Alcotest.(check int) "first slack query materializes requireds" 2
    st.Sta.full_passes;
  Sta.set_delay sta x (Sta.delay sta x +. 0.5);
  let st = Sta.stats sta in
  Alcotest.(check bool) "later updates propagate requireds incrementally"
    true
    (st.Sta.required_visits > 0 && st.Sta.full_passes = 2)

(* A limit set before requireds materialize costs no extra pass, and a
   limit set before or after gives the requireds of a fresh engine
   created with it. *)
let test_set_required_limit () =
  let net = gen_net 9 ~gates:60 in
  let g = Network.timing_graph net in
  let delays = delays_of net g in
  let sta = Sta.create g delays in
  let limit = 1.25 *. Sta.critical_delay sta in
  Sta.set_required_limit sta limit;
  let fresh = Sta.create ~required:limit g delays in
  Alcotest.(check (float 0.0)) "worst slack" (Sta.worst_slack fresh)
    (Sta.worst_slack sta);
  arrays_equal "limit set before requireds" (Sta.required_array fresh)
    (Sta.required_array sta);
  Alcotest.(check int) "one forward and one backward pass" 2
    (Sta.stats sta).Sta.full_passes;
  let limit = 2.0 *. limit in
  Sta.set_required_limit sta limit;
  arrays_equal "limit set after requireds"
    (Sta.required_array (Sta.create ~required:limit g delays))
    (Sta.required_array sta)

let test_set_delay_rejects_dead_nodes () =
  let net = Network.create () in
  let a = Network.add_input net in
  let b = Network.add_input net in
  let dead = Network.add_node net (Expr.Var 0) [ a ] in
  let keep = Network.add_node net Expr.(Var 0 &&& Var 1) [ a; b ] in
  Network.set_output net "z" keep;
  ignore (Network.sweep net);
  ignore dead;
  let g = Network.timing_graph net in
  let sta = Sta.create g (delays_of net g) in
  expect_invalid_arg "swept node" (fun () -> Sta.set_delay sta dead 2.0);
  expect_invalid_arg "out of range" (fun () ->
      Sta.set_delay sta g.Sta.size 2.0);
  expect_invalid_arg "delays length" (fun () -> Sta.create g [| 0.0 |])

(* Naive Hashtbl propagation — the code the thin Network wrappers
   replaced, kept here as an independent oracle. *)
let naive_fanouts net i =
  List.sort_uniq compare
    (List.filter
       (fun j -> List.mem i (Network.fanins net j))
       (Network.node_ids net))

let naive_arrival_times net =
  let at = Hashtbl.create 64 in
  List.iter
    (fun i ->
      let a =
        if Network.is_input net i then 0.0
        else
          List.fold_left
            (fun acc f -> Float.max acc (Hashtbl.find at f))
            0.0 (Network.fanins net i)
          +. Network.delay net i
      in
      Hashtbl.replace at i a)
    (Network.topo_order net);
  at

let naive_required_times net required =
  let rt = Hashtbl.create 64 in
  let outs = Hashtbl.create 16 in
  List.iter (fun (_, j) -> Hashtbl.replace outs j ()) (Network.outputs net);
  List.iter
    (fun i ->
      let from_fanouts =
        List.fold_left
          (fun acc j -> Float.min acc (Hashtbl.find rt j -. Network.delay net j))
          infinity (naive_fanouts net i)
      in
      let v =
        if Hashtbl.mem outs i then Float.min required from_fanouts
        else from_fanouts
      in
      Hashtbl.replace rt i v)
    (List.rev (Network.topo_order net));
  rt

let test_network_wrappers_match_naive () =
  let net = gen_net 13 ~gates:150 in
  let required = Network.critical_delay net +. 2.0 in
  let at = Network.arrival_times net in
  let nat = naive_arrival_times net in
  let rt = Network.required_times net required in
  let nrt = naive_required_times net required in
  let sl = Network.slacks net ~required () in
  List.iter
    (fun i ->
      check_close (Printf.sprintf "arrival %d" i) (Hashtbl.find nat i)
        (Hashtbl.find at i);
      check_close (Printf.sprintf "required %d" i) (Hashtbl.find nrt i)
        (Hashtbl.find rt i);
      match Hashtbl.find_opt sl i with
      | Some s ->
        check_close (Printf.sprintf "slack %d" i)
          (Hashtbl.find nrt i -. Hashtbl.find nat i)
          s
      | None ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d off every output path" i)
          true
          (Hashtbl.find nrt i = infinity))
    (Network.node_ids net)

(* ---- Power_model: Vth-aware leakage --------------------------------- *)

let test_vth_leakage_factor () =
  check_close "one decade per 100 mV" 0.1
    (P.vth_leakage_factor ~delta_vth:P.subthreshold_slope ());
  check_close "HVT swap ~316x"
    (10.0 ** -2.5)
    (P.vth_leakage_factor ~delta_vth:0.25 ());
  check_close "steeper slope leaks less" 1e-5
    (P.vth_leakage_factor ~slope:0.05 ~delta_vth:0.25 ());
  check_close "zero shift is neutral" 1.0 (P.vth_leakage_factor ~delta_vth:0.0 ())

let test_scale_voltage_leakage () =
  let p = P.default_params in
  let half = P.scale_voltage p (p.P.vdd /. 2.0) in
  check_close "vdd rescaled" (p.P.vdd /. 2.0) half.P.vdd;
  (* DIBL: i_leak follows 10^(dibl * dV / slope), exponentially down as
     the supply drops — not the old linear-in-V behavior. *)
  check_close "leakage drops exponentially"
    (p.P.i_leak *. (10.0 ** (0.05 *. (-.p.P.vdd /. 2.0) /. 0.1)))
    half.P.i_leak;
  let same = P.scale_voltage p p.P.vdd in
  check_close "identity at the same supply" p.P.i_leak same.P.i_leak;
  let agg = P.scale_voltage ~dibl:0.1 p (p.P.vdd /. 2.0) in
  Alcotest.(check bool) "stronger DIBL, bigger cut" true
    (agg.P.i_leak < half.P.i_leak)

let test_leakage_fraction () =
  let b = { P.switching = 3.0; short_circuit = 1.0; leakage = 1.0 } in
  check_close "leakage fraction" 0.2 (P.leakage_fraction b);
  check_close "fractions partition the total" 1.0
    (P.switching_fraction b +. P.leakage_fraction b
    +. (b.P.short_circuit /. P.total b))

(* ---- Techlib: drive / Vth variants ---------------------------------- *)

let test_variant_library () =
  let lib = Techlib.default_variants in
  Alcotest.(check int) "14 families x 4 drives x 2 vths"
    (14 * 4 * 2) (List.length lib);
  Alcotest.(check bool) "every variant passes the library check" true
    (List.for_all Techlib.check lib);
  let names = List.map (fun (c : Techlib.cell) -> c.Techlib.cell_name) lib in
  Alcotest.(check int) "variant names are unique"
    (List.length lib)
    (List.length (List.sort_uniq compare names));
  let base = Techlib.find_variant lib ~family:"NAND2" ~drive:1.0 ~vth:Techlib.Low in
  Alcotest.(check string) "drive-1 LVT keeps the family name" "NAND2"
    base.Techlib.cell_name;
  let x2 = Techlib.find_variant lib ~family:"NAND2" ~drive:2.0 ~vth:Techlib.Low in
  Alcotest.(check string) "sized name" "NAND2_X2" x2.Techlib.cell_name;
  let hvt = Techlib.find_variant lib ~family:"NAND2" ~drive:2.0 ~vth:Techlib.High in
  Alcotest.(check string) "HVT name" "NAND2_X2_HVT" hvt.Techlib.cell_name;
  check_close "area scales with drive" (2.0 *. base.Techlib.area) x2.Techlib.area;
  check_close "pin cap scales with drive" (2.0 *. base.Techlib.pin_cap)
    x2.Techlib.pin_cap;
  check_close "leakage scales with drive" (2.0 *. base.Techlib.leak)
    x2.Techlib.leak;
  check_close "HVT cuts leakage by the exponential factor"
    (x2.Techlib.leak
    *. P.vth_leakage_factor
         ~delta_vth:(Techlib.vth_volts Techlib.High -. Techlib.vth_volts Techlib.Low)
         ())
    hvt.Techlib.leak;
  Alcotest.(check bool) "HVT function unchanged" true
    (hvt.Techlib.func = x2.Techlib.func);
  expect_invalid_arg "non-positive drive" (fun () ->
      Techlib.variant base ~drive:0.0 ~vth:Techlib.Low)

(* ---- Dualvth: sizing-loop invariants -------------------------------- *)

let mapped name =
  let net =
    match name with
    | "adder" -> (Circuits.ripple_adder 4).Circuits.net
    | "comparator" -> (Circuits.comparator 4).Circuits.net
    | "multiplier" -> (Circuits.array_multiplier 3).Circuits.net
    | _ -> assert false
  in
  let subj = Subject.decompose net in
  let probs = Array.make (List.length (Network.inputs subj)) 0.5 in
  let act = Activity.zero_delay subj ~input_probs:probs in
  (Mapper.map ~verify:`Off subj (Mapper.Power act), probs)

(* Strip the physical annotations so structural_hash compares function
   and wiring only. *)
let normalized net =
  let c = Network.copy net in
  List.iter
    (fun i ->
      Network.set_delay c i 1.0;
      Network.set_cap c i 1.0;
      Network.set_leak c i 0.0)
    (Network.node_ids c);
  c

let test_dualvth_feasible_and_saves () =
  List.iter
    (fun name ->
      let m, probs = mapped name in
      let before = Network.copy (Mapper.netlist m) in
      let r = Dualvth.optimize_mapping m ~input_probs:probs in
      let s0 = Dualvth.initial_step r and sf = Dualvth.final_step r in
      (* Feasible start stays feasible at every step, not just the end. *)
      List.iter
        (fun (s : Dualvth.step) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s iter %d meets timing" name s.Dualvth.iteration)
            true
            (s.Dualvth.worst_slack >= -1e-9))
        r.Dualvth.steps;
      Alcotest.(check bool)
        (name ^ ": total power reduced vs max-drive low-Vth") true
        (P.total sf.Dualvth.power < P.total s0.Dualvth.power);
      Alcotest.(check bool) (name ^ ": leakage reduced") true
        (sf.Dualvth.leakage < s0.Dualvth.leakage);
      Alcotest.(check bool) (name ^ ": accepted moves recorded") true
        (r.Dualvth.moves > 0);
      (* Only annotations may change: same structure, same function. *)
      Alcotest.(check bool) (name ^ ": structure untouched") true
        (Network.structural_hash (normalized before)
        = Network.structural_hash (normalized r.Dualvth.net));
      Alcotest.(check bool) (name ^ ": function untouched") true
        (networks_equivalent before r.Dualvth.net);
      (* The written-back annotations agree with the assignment. *)
      List.iter
        (fun (id, (cl : Techlib.cell)) ->
          check_close
            (Printf.sprintf "%s: node %d leak annotation" name id)
            cl.Techlib.leak
            (Network.leak r.Dualvth.net id))
        r.Dualvth.assignment)
    [ "adder"; "comparator"; "multiplier" ]

let test_dualvth_leakage_budget () =
  let m, probs = mapped "multiplier" in
  let probe = Dualvth.optimize_mapping ~slack_factor:1.2 m ~input_probs:probs in
  let start_leak = (Dualvth.initial_step probe).Dualvth.leakage in
  let budget = 0.5 *. start_leak in
  let m2, _ = mapped "multiplier" in
  let r =
    Dualvth.optimize_mapping ~slack_factor:1.2 ~leakage_budget:budget m2
      ~input_probs:probs
  in
  let sf = Dualvth.final_step r in
  Alcotest.(check bool) "budget respected" true (sf.Dualvth.leakage <= budget);
  Alcotest.(check bool) "budget stops the HVT sweep early" true
    (sf.Dualvth.hvt_count <= (Dualvth.final_step probe).Dualvth.hvt_count);
  Alcotest.(check bool) "still feasible" true (sf.Dualvth.worst_slack >= -1e-9)

let test_dualvth_asis_recovery () =
  let m, probs = mapped "adder" in
  let cfg =
    { Dualvth.default_config with
      Dualvth.start = Dualvth.Asis; max_iterations = 0 }
  in
  (* A zero-iteration probe reports the as-given critical delay. *)
  let probe = Dualvth.optimize_mapping ~config:cfg m ~input_probs:probs in
  let tight = 0.8 *. probe.Dualvth.required in
  let m2, _ = mapped "adder" in
  let cfg = { cfg with Dualvth.max_iterations = 50 } in
  let r =
    Dualvth.optimize_mapping ~config:cfg ~required:tight m2 ~input_probs:probs
  in
  let s0 = Dualvth.initial_step r and sf = Dualvth.final_step r in
  Alcotest.(check bool) "starts infeasible" true (s0.Dualvth.worst_slack < 0.0);
  Alcotest.(check bool) "upsizing never loses ground" true
    (sf.Dualvth.worst_slack >= s0.Dualvth.worst_slack);
  Alcotest.(check bool) "upsize moves happened" true
    (List.exists (fun (s : Dualvth.step) -> s.Dualvth.upsized > 0)
       r.Dualvth.steps)

let test_dualvth_deterministic () =
  let run () =
    let m, probs = mapped "comparator" in
    Dualvth.optimize_mapping m ~input_probs:probs
  in
  let a = run () and b = run () in
  Alcotest.(check (list string)) "same assignment"
    (List.map (fun (_, (c : Techlib.cell)) -> c.Techlib.cell_name)
       a.Dualvth.assignment)
    (List.map (fun (_, (c : Techlib.cell)) -> c.Techlib.cell_name)
       b.Dualvth.assignment);
  Alcotest.(check int) "same move count" a.Dualvth.moves b.Dualvth.moves;
  check_close "same final leakage"
    (Dualvth.final_step a).Dualvth.leakage
    (Dualvth.final_step b).Dualvth.leakage

(* A power mapping costed with exact activity carries that activity to
   its netlist: the carried table is the netlist's own exact activity,
   bit for bit, so sizing under it is sizing under a second BDD pass. *)
let test_carried_activity_exact =
  prop ~count:100 "power mapping carries exact netlist activity"
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let r = Lowpower.Rng.create (seed + 7) in
      let net = gen_net seed ~gates:(15 + Lowpower.Rng.int r 50) in
      let subj = Subject.decompose net in
      let input_probs =
        Array.init (List.length (Network.inputs subj)) (fun _ ->
            Lowpower.Rng.float r 1.0)
      in
      let act = Activity.zero_delay subj ~input_probs in
      let remap () = Mapper.map ~verify:`Off subj (Mapper.Power act) in
      let m = remap () and m2 = remap () in
      let mapped = Mapper.netlist m2 in
      let fresh = Activity.zero_delay mapped ~input_probs in
      let carried = Mapper.netlist_activity m ~input_probs in
      let bits = Int64.bits_of_float in
      if
        not
          (Hashtbl.length carried = Hashtbl.length fresh
          && Hashtbl.fold
               (fun i a ok ->
                 ok
                 && match Hashtbl.find_opt carried i with
                    | Some b -> bits a = bits b
                    | None -> false)
               fresh true)
      then Alcotest.fail "carried activity differs from the netlist's own";
      if
        bits (Mapper.switched_capacitance m ~input_probs)
        <> bits (Activity.switched_capacitance mapped fresh)
      then Alcotest.fail "switched capacitance differs";
      let a = Dualvth.optimize_mapping m ~input_probs in
      let b =
        Dualvth.optimize mapped ~gates:(Mapper.choices m2) ~activity:fresh
      in
      let names r =
        List.map
          (fun (i, (c : Techlib.cell)) -> (i, c.Techlib.cell_name))
          r.Dualvth.assignment
      in
      let power r = P.total (Dualvth.final_step r).Dualvth.power in
      bits (power a) = bits (power b)
      && a.Dualvth.moves = b.Dualvth.moves
      && names a = names b)

let suite =
  [
    test_incremental_matches_full;
    quick "revert restores bit-identical timing" test_revert_exactness;
    quick "required times materialize lazily" test_lazy_required_materialization;
    quick "set_required_limit = fresh engine with that limit"
      test_set_required_limit;
    quick "set_delay rejects dead nodes" test_set_delay_rejects_dead_nodes;
    quick "Network wrappers match naive propagation"
      test_network_wrappers_match_naive;
    quick "vth_leakage_factor decades" test_vth_leakage_factor;
    quick "scale_voltage leakage is exponential" test_scale_voltage_leakage;
    quick "leakage_fraction" test_leakage_fraction;
    quick "techlib drive/Vth variants" test_variant_library;
    quick "dualvth feasible and power-saving" test_dualvth_feasible_and_saves;
    quick "dualvth leakage budget" test_dualvth_leakage_budget;
    quick "dualvth Asis recovery under tight constraint"
      test_dualvth_asis_recovery;
    quick "dualvth deterministic" test_dualvth_deterministic;
    test_carried_activity_exact;
  ]
