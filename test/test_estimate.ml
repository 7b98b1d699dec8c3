(* Tests for lp_estimate: Probability and Activity. *)

open Test_util

let and_net () =
  let net = Network.create () in
  let a = Network.add_input net and b = Network.add_input net in
  let g = Network.add_node net Expr.(var 0 &&& var 1) [ a; b ] in
  Network.set_output net "z" g;
  (net, g)

let reconvergent_net () =
  (* z = (a & b) | (a & ~b): reconvergent fanout on a; exactly z = a. *)
  let net = Network.create () in
  let a = Network.add_input net and b = Network.add_input net in
  let nb = Network.add_node net (Expr.not_ (Expr.var 0)) [ b ] in
  let g1 = Network.add_node net Expr.(var 0 &&& var 1) [ a; b ] in
  let g2 = Network.add_node net Expr.(var 0 &&& var 1) [ a; nb ] in
  let z = Network.add_node net Expr.(var 0 ||| var 1) [ g1; g2 ] in
  Network.set_output net "z" z;
  (net, z)

let test_exact_and_gate () =
  let net, g = and_net () in
  let probs = Probability.exact net ~input_probs:[| 0.5; 0.5 |] in
  check_close "p(and) = 1/4" 0.25 (Hashtbl.find probs g);
  let probs = Probability.exact net ~input_probs:[| 0.3; 0.7 |] in
  check_close "p = 0.21" 0.21 (Hashtbl.find probs g)

let test_exact_handles_reconvergence () =
  let net, z = reconvergent_net () in
  let probs = Probability.exact net ~input_probs:[| 0.3; 0.5 |] in
  (* z = a exactly. *)
  check_close "exact sees z = a" 0.3 (Hashtbl.find probs z)

let test_approx_errs_on_reconvergence () =
  let net, z = reconvergent_net () in
  let probs = Probability.approximate net ~input_probs:[| 0.3; 0.5 |] in
  (* Independence assumption: p = p1 + p2 - p1 p2 with p1 = p2 = 0.15. *)
  check_close "approximate overcounts" (0.15 +. 0.15 -. (0.15 *. 0.15))
    (Hashtbl.find probs z)

let test_approx_equals_exact_on_trees () =
  (* Fanout-free networks: independence is exact. *)
  let dp = Circuits.ripple_adder 4 in
  ignore dp;
  let net = Network.create () in
  let a = Network.add_input net and b = Network.add_input net in
  let c = Network.add_input net and d = Network.add_input net in
  let g1 = Network.add_node net Expr.(var 0 &&& var 1) [ a; b ] in
  let g2 = Network.add_node net Expr.(var 0 ||| var 1) [ c; d ] in
  let g3 = Network.add_node net Expr.(Xor (var 0, var 1)) [ g1; g2 ] in
  Network.set_output net "z" g3;
  let input_probs = [| 0.2; 0.4; 0.6; 0.8 |] in
  let e = Probability.exact net ~input_probs in
  let a' = Probability.approximate net ~input_probs in
  Hashtbl.iter
    (fun i p -> check_close "tree agreement" p (Hashtbl.find a' i))
    e

let test_simulated_matches_exact () =
  let net = (Circuits.comparator 4).Circuits.net in
  let input_probs = Probability.uniform_inputs net in
  let e = Probability.exact net ~input_probs in
  let s =
    Probability.simulated net ~rng:(rng ()) ~input_probs ~vectors:20_000
  in
  Hashtbl.iter
    (fun i p ->
      check_close_rel ~eps:0.12 "monte carlo agrees"
        (max p 0.02) (max (Hashtbl.find s i) 0.02))
    e

(* ---- uniform inputs: exhaustive counting against global BDDs ---------- *)

(* The global-BDD algorithm, kept as the oracle: one shared-memo sweep
   over every node's root, and the table filled from a fold over the
   build table. *)
let bdd_oracle net =
  let man = Bdd.manager () in
  let bdds = Network.global_bdds net man in
  let ids, roots =
    List.split (List.rev (Hashtbl.fold (fun i b acc -> (i, b) :: acc) bdds []))
  in
  let ps = Bdd.probabilities man (fun _ -> 0.5) roots in
  let probs = Hashtbl.create (Hashtbl.length bdds) in
  List.iter2 (Hashtbl.replace probs) ids ps;
  probs

(* A table's fold sequence with the floats as bits.  Equal sequences mean
   the same ids with the same floats bit for bit, visited in the same
   order, which float sums folded over the table depend on. *)
let fold_bits t =
  Hashtbl.fold (fun i p acc -> (i, Int64.bits_of_float p) :: acc) t []

let exact_equals_oracle net =
  let input_probs = Probability.uniform_inputs net in
  fold_bits (Probability.exact net ~input_probs) = fold_bits (bdd_oracle net)

(* A random net over [n] inputs, 0 included: each gate applies a random
   function to 1-3 earlier signals (repeats allowed), or is a constant
   while there are none; every gate is an output. *)
let random_net seed n gates =
  let rng = Lowpower.Rng.create seed in
  let net = Network.create () in
  let signals = ref [||] in
  for _ = 1 to n do
    signals := Array.append !signals [| Network.add_input net |]
  done;
  for g = 1 to gates do
    let avail = Array.length !signals in
    let id =
      if avail = 0 then
        Network.add_node net (Expr.Const (Lowpower.Rng.int rng 2 = 0)) []
      else begin
        let a = 1 + Lowpower.Rng.int rng (min 3 avail) in
        let fanins =
          List.init a (fun _ -> !signals.(Lowpower.Rng.int rng avail))
        in
        let vs = List.init a Expr.var in
        let f =
          match Lowpower.Rng.int rng 4 with
          | 0 -> Expr.and_list vs
          | 1 -> Expr.not_ (Expr.or_list vs)
          | 2 -> List.fold_left Expr.( ^^^ ) (List.hd vs) (List.tl vs)
          | _ ->
            Expr.ite (Expr.var 0) (Expr.var (a - 1))
              (Expr.not_ (Expr.var (a / 2)))
        in
        Network.add_node net f fanins
      end
    in
    Network.set_output net (Printf.sprintf "g%d" g) id;
    signals := Array.append !signals [| id |]
  done;
  net

let prop_exact_equals_bdd_oracle =
  prop ~count:300 "uniform exact probabilities equal the BDD oracle bitwise"
    QCheck2.Gen.(triple (int_bound 10_000) (0 -- 14) (1 -- 60))
    (fun (seed, n, gates) -> exact_equals_oracle (random_net seed n gates))

(* The 6-bit multiplier's subject graph: its global BDDs pass the budget
   (it is counted); the 8-bit ripple adder's stay under it. *)
let test_exact_counted_and_bdd_nets () =
  Alcotest.(check bool) "multiplier 6 subject graph" true
    (exact_equals_oracle
       (Subject.decompose (Circuits.array_multiplier 6).Circuits.net));
  Alcotest.(check bool) "ripple adder 8" true
    (exact_equals_oracle (Circuits.ripple_adder 8).Circuits.net)

(* 2^n vectors leave 1, 2, 1 and 2 real lanes in the last 63-lane block. *)
let test_exact_last_block_lanes () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "%d inputs" n) true
        (exact_equals_oracle (random_net (100 + n) n 40)))
    [ 0; 1; 6; 7 ]

let test_probability_validation () =
  let net, _ = and_net () in
  expect_invalid_arg "arity" (fun () ->
      Probability.exact net ~input_probs:[| 0.5 |]);
  expect_invalid_arg "range" (fun () ->
      Probability.exact net ~input_probs:[| 0.5; 1.5 |])

let test_activity_formula () =
  check_close "p=0.5 max activity" 0.5 (Activity.of_probability 0.5);
  check_close "p=0 no activity" 0.0 (Activity.of_probability 0.0);
  check_close "p=0.1" 0.18 (Activity.of_probability 0.1)

let test_zero_delay_activity () =
  let net, g = and_net () in
  let act = Activity.zero_delay net ~input_probs:[| 0.5; 0.5 |] in
  check_close "and activity 2*(1/4)*(3/4)" 0.375 (Hashtbl.find act g)

let test_zero_delay_matches_simulation () =
  (* Temporal-independence zero-delay activity = measured functional
     transitions on white-noise stimulus. *)
  let net = (Circuits.ripple_adder 4).Circuits.net in
  let input_probs = Probability.uniform_inputs net in
  let act = Activity.zero_delay net ~input_probs in
  let stim = Stimulus.random (rng ()) ~width:8 ~length:20_000 () in
  let sim = Event_sim.run net Event_sim.Zero_delay stim in
  Hashtbl.iter
    (fun i a ->
      if not (Network.is_input net i) then
        check_close_rel ~eps:0.1 "activity vs simulation" (max a 0.05)
          (max (Event_sim.node_activity sim i) 0.05))
    act

let test_transition_density_xor () =
  (* Density of an n-input xor = sum of input densities (sensitivity 1). *)
  let net, ins = Circuits.parity_tree 3 in
  ignore ins;
  let dens =
    Activity.transition_density net
      ~input_probs:[| 0.5; 0.5; 0.5 |]
      ~input_densities:[| 0.2; 0.3; 0.4 |]
  in
  let out = List.assoc "parity" (Network.outputs net) in
  check_close "xor density adds" 0.9 (Hashtbl.find dens out)

let test_transition_density_and () =
  let net, g = and_net () in
  let dens =
    Activity.transition_density net ~input_probs:[| 0.5; 0.5 |]
      ~input_densities:[| 1.0; 1.0 |]
  in
  (* D = P(b) D(a) + P(a) D(b) = 0.5 + 0.5 = 1.0 *)
  check_close "and density" 1.0 (Hashtbl.find dens g)

let test_switched_capacitance_weighting () =
  let net, g = and_net () in
  Network.set_cap net g 3.0;
  let act = Activity.zero_delay net ~input_probs:[| 0.5; 0.5 |] in
  (* inputs: cap 1 activity 0.5 each; gate: cap 3 activity 0.375 *)
  check_close "weighted sum" ((2.0 *. 0.5) +. (3.0 *. 0.375))
    (Activity.switched_capacitance net act)

let test_network_power_bridge () =
  let net, _ = and_net () in
  let act = Activity.zero_delay net ~input_probs:[| 0.5; 0.5 |] in
  let b =
    Activity.network_power Lowpower.Power_model.default_params net act
  in
  Alcotest.(check bool) "positive power" true
    (Lowpower.Power_model.total b > 0.0)

let suite =
  [
    quick "exact probability of AND" test_exact_and_gate;
    quick "exact handles reconvergence" test_exact_handles_reconvergence;
    quick "approximate errs on reconvergence" test_approx_errs_on_reconvergence;
    quick "approximate exact on trees" test_approx_equals_exact_on_trees;
    quick "monte carlo matches exact" test_simulated_matches_exact;
    prop_exact_equals_bdd_oracle;
    quick "exact on counted and BDD nets" test_exact_counted_and_bdd_nets;
    quick "exact at last-block lane counts" test_exact_last_block_lanes;
    quick "probability input validation" test_probability_validation;
    quick "activity formula 2p(1-p)" test_activity_formula;
    quick "zero-delay activity" test_zero_delay_activity;
    quick "zero-delay activity matches simulation" test_zero_delay_matches_simulation;
    quick "transition density of xor" test_transition_density_xor;
    quick "transition density of and" test_transition_density_and;
    quick "switched capacitance weighting" test_switched_capacitance_weighting;
    quick "eqn1 bridge" test_network_power_bridge;
  ]
