(* Tests for lp_synth: Techlib, Subject, Mapper, Dontcare, Factor, Balance. *)

open Test_util

(* --- Techlib --- *)

let test_cells_consistent () =
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Techlib.cell_name ^ " pattern matches function")
        true (Techlib.check c))
    Techlib.default

let test_cell_lookup () =
  let c = Techlib.find Techlib.default "NAND2" in
  Alcotest.(check int) "arity" 2 c.Techlib.arity;
  Alcotest.(check bool) "missing cell" true
    (match Techlib.find Techlib.default "NAND9" with
    | exception Not_found -> true
    | _ -> false)

let test_pattern_func () =
  let p = Techlib.Inv (Techlib.Nand (Techlib.L 0, Techlib.L 1)) in
  Alcotest.(check bool) "and2" true
    (Truth_table.equal
       (Truth_table.of_expr 2 (Techlib.pattern_func p))
       (Truth_table.of_expr 2 Expr.(var 0 &&& var 1)))

(* --- Subject graphs --- *)

let test_decompose_equivalent () =
  let net = (Circuits.carry_select_adder 4).Circuits.net in
  let subj = Subject.decompose net in
  Alcotest.(check bool) "is subject graph" true (Subject.is_subject_graph subj);
  Alcotest.(check bool) "equivalent" true (networks_equivalent net subj)

let test_decompose_xor_shape () =
  let net = (Circuits.array_multiplier 3).Circuits.net in
  let subj = Subject.decompose net in
  Alcotest.(check bool) "is subject graph" true (Subject.is_subject_graph subj);
  Alcotest.(check bool) "equivalent" true (networks_equivalent net subj)

let test_decompose_for_power_equivalent () =
  let net = (Circuits.comparator 4).Circuits.net in
  let input_probs = Array.init 8 (fun k -> [| 0.9; 0.5; 0.2; 0.7 |].(k mod 4)) in
  let subj = Subject.decompose_for_power net ~input_probs in
  Alcotest.(check bool) "is subject graph" true (Subject.is_subject_graph subj);
  Alcotest.(check bool) "equivalent" true (networks_equivalent net subj)

let test_decompose_for_power_lowers_activity () =
  (* A wide AND with one rare input: absorbing the rare input first quiets
     the whole chain. *)
  let net = Network.create () in
  let ins = List.init 6 (fun _ -> Network.add_input net) in
  let g =
    Network.add_node net
      (Expr.and_list (List.init 6 Expr.var))
      ins
  in
  Network.set_output net "z" g;
  let input_probs = [| 0.9; 0.9; 0.9; 0.9; 0.9; 0.05 |] in
  let act n =
    Activity.switched_capacitance n
      (Activity.zero_delay n ~input_probs)
  in
  let balanced = Subject.decompose net in
  let power = Subject.decompose_for_power net ~input_probs in
  Alcotest.(check bool) "power decomposition quieter" true
    (act power < act balanced);
  Alcotest.(check bool) "still equivalent" true
    (networks_equivalent net power)

let test_decompose_rejects_constants () =
  let net = Network.create () in
  let _ = Network.add_input net in
  let c = Network.add_node net Expr.tru [] in
  Network.set_output net "z" c;
  expect_invalid_arg "constant node" (fun () -> Subject.decompose net)

(* --- Mapper --- *)

let mapped_equiv objective net =
  let subj = Subject.decompose net in
  let m = Mapper.map subj objective in
  let out = Mapper.netlist m in
  (m, networks_equivalent net out)

let test_map_area_equivalent () =
  let net = (Circuits.ripple_adder 3).Circuits.net in
  let _, ok = mapped_equiv Mapper.Area net in
  Alcotest.(check bool) "area mapping preserves function" true ok

let test_map_delay_equivalent () =
  let net = (Circuits.comparator 4).Circuits.net in
  let _, ok = mapped_equiv Mapper.Delay net in
  Alcotest.(check bool) "delay mapping preserves function" true ok

let test_map_power_equivalent () =
  let net = (Circuits.ripple_adder 3).Circuits.net in
  let subj = Subject.decompose net in
  let act = Activity.zero_delay subj ~input_probs:(Probability.uniform_inputs subj) in
  let m = Mapper.map subj (Mapper.Power act) in
  Alcotest.(check bool) "power mapping preserves function" true
    (networks_equivalent net (Mapper.netlist m))

let test_map_area_beats_delay_on_area () =
  let net = (Circuits.array_multiplier 3).Circuits.net in
  let subj = Subject.decompose net in
  let ma = Mapper.map subj Mapper.Area in
  let md = Mapper.map subj Mapper.Delay in
  Alcotest.(check bool) "area objective wins area" true
    (Mapper.total_area ma <= Mapper.total_area md +. 1e-9);
  Alcotest.(check bool) "delay objective wins delay" true
    (Mapper.critical_delay md <= Mapper.critical_delay ma +. 1e-9)

let test_map_power_beats_area_on_power () =
  let net = (Circuits.array_multiplier 3).Circuits.net in
  let subj = Subject.decompose net in
  let input_probs = Probability.uniform_inputs subj in
  let act = Activity.zero_delay subj ~input_probs in
  let mp = Mapper.map subj (Mapper.Power act) in
  let ma = Mapper.map subj Mapper.Area in
  Alcotest.(check bool) "power objective wins switched cap" true
    (Mapper.switched_capacitance mp ~input_probs
    <= Mapper.switched_capacitance ma ~input_probs +. 1e-9)

(* The carried activity needs no BDD pass, but the probabilities it
   stands for are still checked. *)
let test_power_mapping_checks_input_probs () =
  let subj = Subject.decompose (Circuits.ripple_adder 3).Circuits.net in
  let input_probs = Probability.uniform_inputs subj in
  let act = Activity.zero_delay subj ~input_probs in
  let m = Mapper.map subj (Mapper.Power act) in
  let short = Array.sub input_probs 1 (Array.length input_probs - 1) in
  let outside = Array.copy input_probs in
  outside.(0) <- 1.5;
  List.iter
    (fun (name, input_probs) ->
      expect_invalid_arg ("netlist activity, " ^ name) (fun () ->
          Mapper.netlist_activity m ~input_probs);
      expect_invalid_arg ("switched capacitance, " ^ name) (fun () ->
          Mapper.switched_capacitance m ~input_probs);
      expect_invalid_arg ("dualvth, " ^ name) (fun () ->
          Dualvth.optimize_mapping m ~input_probs))
    [ ("arity mismatch", short); ("probability outside [0,1]", outside) ]

let test_map_uses_complex_cells () =
  let net = (Circuits.comparator 5).Circuits.net in
  let subj = Subject.decompose net in
  let m = Mapper.map subj Mapper.Area in
  let insts = Mapper.instances m in
  let interesting =
    List.filter (fun (n, _) -> n <> "INV" && n <> "NAND2") insts
  in
  Alcotest.(check bool) "beyond INV/NAND2" true (interesting <> [])

let test_map_rejects_non_subject () =
  let net = (Circuits.ripple_adder 2).Circuits.net in
  expect_invalid_arg "not decomposed" (fun () ->
      ignore (Mapper.map net Mapper.Area))

let test_map_custom_library_failure () =
  let net = (Circuits.ripple_adder 2).Circuits.net in
  let subj = Subject.decompose net in
  let only_inv = [ Techlib.find Techlib.default "INV" ] in
  expect_invalid_arg "inadequate library" (fun () ->
      ignore (Mapper.map ~cells:only_inv subj Mapper.Area))

(* --- Don't cares --- *)

let session_dc net n = Dontcare.dc (Dontcare.session net) n

let test_sdc_detected () =
  (* g's fanins are a and ~a: combinations (0,0) and (1,1) are
     unreachable. *)
  let net = Network.create () in
  let a = Network.add_input net in
  let na = Network.add_node net (Expr.not_ (Expr.var 0)) [ a ] in
  let g = Network.add_node net Expr.(var 0 &&& var 1) [ a; na ] in
  Network.set_output net "z" g;
  let d = session_dc net g in
  Alcotest.(check bool) "minterm 00 is sdc" true
    (Truth_table.get d.Dontcare.dontcare 0b00);
  Alcotest.(check bool) "minterm 11 is sdc" true
    (Truth_table.get d.Dontcare.dontcare 0b11);
  Alcotest.(check bool) "minterm 01 reachable" false
    (Truth_table.get d.Dontcare.dontcare 0b01)

let test_odc_detected () =
  (* z = g & a where g = a | b: when a = 0, g is unobservable. *)
  let net = Network.create () in
  let a = Network.add_input net in
  let b = Network.add_input net in
  let g = Network.add_node net Expr.(var 0 ||| var 1) [ a; b ] in
  let z = Network.add_node net Expr.(var 0 &&& var 1) [ g; a ] in
  Network.set_output net "z" z;
  let d = session_dc net g in
  (* Fanins of g are (a, b); combos with a = 0 are ODC. *)
  Alcotest.(check bool) "a=0,b=0 odc" true (Truth_table.get d.Dontcare.dontcare 0b00);
  Alcotest.(check bool) "a=0,b=1 odc" true (Truth_table.get d.Dontcare.dontcare 0b10);
  Alcotest.(check bool) "a=1,b=0 care" false (Truth_table.get d.Dontcare.dontcare 0b01)

let test_optimize_preserves_outputs () =
  let r = rng () in
  for _ = 1 to 5 do
    let net =
      Gen_comb.random r
        { Gen_comb.default_shape with Gen_comb.num_inputs = 6; num_gates = 15 }
    in
    let reference = Network.copy net in
    let changed = Dontcare.optimize net Dontcare.For_area in
    ignore changed;
    Alcotest.(check bool) "area dc-optimization is safe" true
      (networks_equivalent reference net)
  done

let test_optimize_power_preserves_and_helps () =
  let r = rng () in
  let improved = ref 0 in
  for _ = 1 to 5 do
    let net =
      Gen_comb.random r
        { Gen_comb.default_shape with Gen_comb.num_inputs = 6; num_gates = 15 }
    in
    let reference = Network.copy net in
    let input_probs = Probability.uniform_inputs net in
    let before =
      Activity.switched_capacitance net
        (Activity.zero_delay net ~input_probs)
    in
    let _ = Dontcare.optimize net (Dontcare.For_power input_probs) in
    Alcotest.(check bool) "power dc-optimization is safe" true
      (networks_equivalent reference net);
    let after =
      Activity.switched_capacitance net
        (Activity.zero_delay net ~input_probs)
    in
    if after < before -. 1e-9 then incr improved
  done;
  Alcotest.(check bool) "at least one network improved" true (!improved > 0)

let test_optimize_fanout_policy () =
  (* [19]: the fanout-aware policy is safe and no worse than the purely
     local one on total switched capacitance. *)
  let r = rng () in
  let better_or_equal = ref 0 and total = ref 0 in
  for _ = 1 to 4 do
    let shape =
      { Gen_comb.default_shape with Gen_comb.num_inputs = 6; num_gates = 14 }
    in
    let seed_net = Gen_comb.random r shape in
    let input_probs = Probability.uniform_inputs seed_net in
    let run policy =
      let net = Network.copy seed_net in
      let _ = Dontcare.optimize net policy in
      Alcotest.(check bool) "safe" true (networks_equivalent seed_net net);
      Activity.switched_capacitance net (Activity.zero_delay net ~input_probs)
    in
    let local = run (Dontcare.For_power input_probs) in
    let fanout = run (Dontcare.For_power_fanout input_probs) in
    incr total;
    if fanout <= local +. 1e-9 then incr better_or_equal
  done;
  Alcotest.(check bool) "fanout-aware wins or ties on most networks" true
    (!better_or_equal * 2 >= !total)

(* Fresh-manager oracle for the don't-care session: a new manager per
   node, the global BDDs of the whole network, then the whole network
   again with the node replaced by a free variable z.  Every output
   contributes to the ODC, whether or not it lies in the node's fanout,
   and the local ODC is a plain conjunction then quantification. *)
let build_expr man fanins e =
  let rec build = function
    | Expr.Const b -> if b then Bdd.tru man else Bdd.fls man
    | Expr.Var v -> fanins.(v)
    | Expr.Not e -> Bdd.not_ man (build e)
    | Expr.And es -> Bdd.and_list man (List.map build es)
    | Expr.Or es -> Bdd.or_list man (List.map build es)
    | Expr.Xor (a, b) -> Bdd.xor man (build a) (build b)
  in
  build e

(* The free-variable ODC of [n] over the inputs, in [man] (which holds the
   network's globals): the conjunction over every output of the
   complement of its Boolean difference in z. *)
let reference_odc man net n zvar =
  let free = Hashtbl.create 16 in
  List.iteri
    (fun k i -> Hashtbl.replace free i (Bdd.var man k))
    (Network.inputs net);
  List.iter
    (fun i ->
      if not (Network.is_input net i) then
        Hashtbl.replace free i
          (if i = n then Bdd.var man zvar
           else
             build_expr man
               (Array.of_list
                  (List.map (Hashtbl.find free) (Network.fanins net i)))
               (Network.func net i)))
    (Network.topo_order net);
  List.fold_left
    (fun acc (_, o) ->
      Bdd.and_ man acc
        (Bdd.not_ man
           (Bdd.boolean_difference man (Hashtbl.find free o) zvar)))
    (Bdd.tru man) (Network.outputs net)

let reference_dc net n =
  let man = Bdd.manager () in
  let globals = Network.global_bdds net man in
  let fanins = Network.fanins net n in
  let k = List.length fanins in
  let npi = List.length (Network.inputs net) in
  let pis = List.init npi Fun.id in
  let consistency =
    Bdd.and_list man
      (List.mapi
         (fun j fi ->
           Bdd.xnor man (Bdd.var man (npi + j)) (Hashtbl.find globals fi))
         fanins)
  in
  let sdc = Bdd.not_ man (Bdd.exists man pis consistency) in
  let odc_global = reference_odc man net n (npi + k) in
  let odc_local =
    Bdd.not_ man
      (Bdd.exists man pis
         (Bdd.and_ man consistency (Bdd.not_ man odc_global)))
  in
  let dc_bdd = Bdd.or_ man sdc odc_local in
  {
    Dontcare.node = n;
    local_onset = Truth_table.of_expr k (Network.func net n);
    dontcare =
      Truth_table.of_fun k (fun code ->
          Bdd.eval dc_bdd (fun v ->
              v >= npi && v < npi + k && code land (1 lsl (v - npi)) <> 0));
  }

let dc_equal a b =
  a.Dontcare.node = b.Dontcare.node
  && Truth_table.equal a.Dontcare.local_onset b.Dontcare.local_onset
  && Truth_table.equal a.Dontcare.dontcare b.Dontcare.dontcare

let logic_nodes net =
  List.filter (fun i -> not (Network.is_input net i)) (Network.topo_order net)

(* Edits through a session: each step gives one node a new local function
   over the same fanins (a pseudo-random truth table, so the global
   functions really change) and reports it with [installed]; before the
   first step and after every step, the session's don't-cares must equal
   the oracle's at every logic node.  Nets of 3-7 inputs get every input
   vector, nets of 13-18 inputs random ones, so the run must take each of
   the session's three decisions; their counts are summed into
   [totals]. *)
let session_edits_agree totals (seed, edits) =
  let r = Lowpower.Rng.create seed in
  let net =
    Gen_comb.random r
      { Gen_comb.default_shape with
        Gen_comb.num_inputs =
          (if seed land 1 = 0 then 3 + (seed mod 5) else 13 + (seed mod 6));
        num_gates = 5 + (seed mod 11) }
  in
  let s = Dontcare.session net in
  let logic = Array.of_list (logic_nodes net) in
  let agree () =
    Array.for_all
      (fun n -> dc_equal (Dontcare.dc s n) (reference_dc net n))
      logic
  in
  let ok =
    agree ()
    && List.for_all
         (fun (pick, salt) ->
           let n = logic.(pick mod Array.length logic) in
           let fanins = Network.fanins net n in
           let tt =
             Truth_table.of_fun (List.length fanins) (fun code ->
                 Hashtbl.hash (salt, code) land 1 = 1)
           in
           Network.replace_func net n
             (Cover.to_expr (Cover.of_truth_table tt))
             fanins;
           Dontcare.installed s n;
           agree ())
         edits
  in
  let st = Dontcare.stats s in
  let w, e, f = !totals in
  totals :=
    (w + st.Dontcare.witnessed, e + st.Dontcare.exhaustive,
     f + st.Dontcare.fallback);
  ok

let test_session_matches_oracle () =
  let totals = ref (0, 0, 0) in
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 11 |])
    (QCheck2.Test.make ~count:60 ~name:"session = oracle"
       QCheck2.Gen.(
         pair (int_bound 1_000_000) (list_size (int_range 1 16) (pair nat nat)))
       (session_edits_agree totals));
  let w, e, f = !totals in
  Alcotest.(check bool) "some visit witnessed every code" true (w > 0);
  Alcotest.(check bool) "some visit settled by exhaustive vectors" true
    (e > 0);
  Alcotest.(check bool) "some visit fell back to BDDs" true (f > 0)

(* A 16-input AND [a] and a buffer [g] of it: the code a = 1 is reached by
   one input vector in 2^16, which random vectors almost surely miss.
   Behind [z = g & a] it is g's only care point; behind [z = g & ~a] it is
   g's only don't-care point.  Either way the random regime must fall
   back to BDDs and still equal the oracle.  The XOR [h] of two inputs is
   settled by simulation, with no BDD node built. *)
let test_dc_rare_code () =
  List.iter
    (fun (name, gate) ->
      let net = Network.create () in
      let xs = List.init 16 (fun _ -> Network.add_input net) in
      let a = Network.add_node net (Expr.and_list (List.init 16 Expr.var)) xs in
      let g = Network.add_node net (Expr.var 0) [ a ] in
      let z = Network.add_node net gate [ g; a ] in
      let h =
        Network.add_node net Expr.(var 0 ^^^ var 1)
          [ List.nth xs 0; List.nth xs 1 ]
      in
      Network.set_output net "z" z;
      Network.set_output net "h" h;
      let s = Dontcare.session net in
      let d = Dontcare.dc s h in
      Alcotest.(check bool) (name ^ ": h equals the oracle") true
        (dc_equal d (reference_dc net h));
      let st = Dontcare.stats s in
      Alcotest.(check int) (name ^ ": h witnessed") 1 st.Dontcare.witnessed;
      Alcotest.(check int) (name ^ ": random vectors") 1008 st.Dontcare.vectors;
      Alcotest.(check int) (name ^ ": no BDD node") 0 st.Dontcare.bdd_nodes;
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: node %d equals the oracle" name n)
            true
            (dc_equal (Dontcare.dc s n) (reference_dc net n)))
        [ g; a; z; h ];
      let st = Dontcare.stats s in
      Alcotest.(check bool) (name ^ ": fell back") true
        (st.Dontcare.fallback >= 1 && st.Dontcare.bdd_nodes > 0);
      Alcotest.(check int) (name ^ ": no exhaustive decision") 0
        st.Dontcare.exhaustive)
    [ ("only care point", Expr.(var 0 &&& var 1));
      ("only don't-care point", Expr.(var 0 &&& not_ (var 1))) ]

(* On nets of at most 11 inputs every visit is decided by simulation, so
   a session serving only [dc] builds no BDD node. *)
let test_dc_simulated_builds_no_bdd () =
  let r = Lowpower.Rng.create 3 in
  for case = 0 to 8 do
    let net =
      Gen_comb.random r
        { Gen_comb.default_shape with
          Gen_comb.num_inputs = 3 + case; num_gates = 12 + case }
    in
    let s = Dontcare.session net in
    List.iter
      (fun n ->
        Alcotest.(check bool)
          (Printf.sprintf "case %d node %d equals the oracle" case n)
          true
          (dc_equal (Dontcare.dc s n) (reference_dc net n)))
      (logic_nodes net);
    let st = Dontcare.stats s in
    Alcotest.(check int) (Printf.sprintf "case %d vectors" case)
      (1 lsl (3 + case)) st.Dontcare.vectors;
    Alcotest.(check int) (Printf.sprintf "case %d fallbacks" case) 0
      st.Dontcare.fallback;
    Alcotest.(check int) (Printf.sprintf "case %d BDD nodes" case) 0
      st.Dontcare.bdd_nodes
  done

(* [Dontcare.observability] (the flipped cone) is the free-variable ODC,
   and a session serving only it builds no value planes. *)
let test_observability_matches_free_variable () =
  let r = Lowpower.Rng.create 8 in
  for case = 0 to 19 do
    let net =
      Gen_comb.random r
        { Gen_comb.default_shape with
          Gen_comb.num_inputs = 3 + (case mod 6); num_gates = 6 + case }
    in
    let npi = List.length (Network.inputs net) in
    let s = Dontcare.session net in
    List.iter
      (fun n ->
        let man = Bdd.manager () in
        ignore (Network.global_bdds net man);
        let expected = Truth_table.of_bdd npi (reference_odc man net n npi) in
        let got =
          Truth_table.of_expr npi (Cover.to_expr (Dontcare.observability s n))
        in
        Alcotest.(check bool)
          (Printf.sprintf "case %d node %d ODC" case n)
          true (Truth_table.equal expected got))
      (logic_nodes net);
    Alcotest.(check int) (Printf.sprintf "case %d builds no planes" case) 0
      (Dontcare.stats s).Dontcare.vectors
  done

(* Reference sweep: the don't-care optimizer scoring each candidate in a
   fresh BDD manager of its own, with no state shared between the
   don't-care computation and the scores.  [Dontcare.optimize] shares one
   session per sweep and must make exactly the same choices. *)
let reference_probability net n cand ~input_probs =
  let man = Bdd.manager () in
  let globals = Network.global_bdds net man in
  let fanins =
    Array.of_list (List.map (Hashtbl.find globals) (Network.fanins net n))
  in
  Bdd.probability man (fun v -> input_probs.(v))
    (build_expr man fanins (Cover.to_expr cand))

(* [19]'s score as a whole-network recomputation: install the candidate,
   run [Probability.exact] on the whole net, restore. *)
let reference_fanout_cost net n cand ~input_probs =
  let fanout = Hashtbl.create 16 in
  let rec mark i =
    if not (Hashtbl.mem fanout i) then begin
      Hashtbl.replace fanout i ();
      List.iter mark (Network.fanouts net i)
    end
  in
  mark n;
  let old_f = Network.func net n in
  let fanins = Network.fanins net n in
  Network.replace_func net n (Cover.to_expr cand) fanins;
  let probs = Probability.exact net ~input_probs in
  Network.replace_func net n old_f fanins;
  Hashtbl.fold
    (fun i () acc ->
      let p = Hashtbl.find probs i in
      acc +. (Network.cap net i *. 2.0 *. p *. (1.0 -. p)))
    fanout 0.0

let reference_optimize_node net policy n =
  let fanins = Network.fanins net n in
  if Network.is_input net n || List.length fanins > 16 then false
  else begin
    let cands = Dontcare.minimized_candidates (reference_dc net n) in
    let func = Network.func net n in
    let current_lits = Expr.literal_count func in
    let lits_below c = Expr.literal_count (Cover.to_expr c) < current_lits in
    let old_cov () =
      Cover.of_truth_table (Truth_table.of_expr (List.length fanins) func)
    in
    let cheapest cost =
      List.fold_left
        (fun acc c ->
          let a = cost c and l = Cover.literal_count c in
          match acc with
          | None -> Some (a, l, c)
          | Some (ba, bl, _) ->
            if a < ba -. 1e-12 || (Float.abs (a -. ba) <= 1e-12 && l < bl)
            then Some (a, l, c)
            else acc)
        None cands
    in
    let chosen =
      match policy with
      | Dontcare.For_area ->
        let best =
          List.fold_left
            (fun acc c ->
              match acc with
              | None -> Some c
              | Some b ->
                if Cover.literal_count c < Cover.literal_count b then Some c
                else acc)
            None cands
        in
        Option.map (fun c -> (c, lits_below c)) best
      | Dontcare.For_power input_probs ->
        let act c =
          let p = reference_probability net n c ~input_probs in
          2.0 *. p *. (1.0 -. p)
        in
        Option.map
          (fun (_, _, c) ->
            let a_new = act c and a_old = act (old_cov ()) in
            ( c,
              a_new < a_old -. 1e-12
              || (Float.abs (a_new -. a_old) <= 1e-12 && lits_below c) ))
          (cheapest act)
      | Dontcare.For_power_fanout input_probs ->
        let cost c = reference_fanout_cost net n c ~input_probs in
        Option.map
          (fun (a, _, c) -> (c, a < cost (old_cov ()) -. 1e-12))
          (cheapest cost)
    in
    match chosen with
    | Some (c, true) when not (Expr.equal (Cover.to_expr c) func) ->
      Network.replace_func net n (Cover.to_expr c) fanins;
      true
    | _ -> false
  end

let reference_optimize net policy =
  List.fold_left
    (fun changed i ->
      if Network.is_input net i then changed
      else if reference_optimize_node net policy i then changed + 1
      else changed)
    0 (Network.topo_order net)

(* [Resynth.measured] with every node's candidates from the oracle. *)
let reference_measured net ~trace =
  let sim = Actsim.create net ~trace in
  let changed = ref 0 and tried = ref 0 in
  List.iter
    (fun n ->
      let fanins = Network.fanins net n in
      if (not (Network.is_input net n)) && List.length fanins <= 10 then begin
        let original = Network.func net n in
        let cands =
          List.fold_left
            (fun acc cover ->
              let e = Expr.simplify (Cover.to_expr cover) in
              if Expr.equal e original || List.exists (Expr.equal e) acc
              then acc
              else e :: acc)
            []
            (Dontcare.minimized_candidates (reference_dc net n))
        in
        let install e =
          Network.replace_func net n e fanins;
          Actsim.update sim n
        in
        let best = ref original
        and best_score = ref (Actsim.switched_capacitance sim) in
        List.iter
          (fun e ->
            incr tried;
            install e;
            let s = Actsim.switched_capacitance sim in
            if s < !best_score -. 1e-9 then begin
              best := e;
              best_score := s
            end)
          cands;
        if not (Expr.equal (Network.func net n) !best) then install !best;
        if not (Expr.equal !best original) then incr changed
      end)
    (Network.topo_order net);
  (!changed, !tried, Actsim.switched_capacitance sim)

let test_optimize_matches_fresh_manager_reference () =
  let r = Lowpower.Rng.create 12 in
  let total_changed = ref 0 in
  let same_functions case name net ref_net =
    List.iter
      (fun i ->
        if not (Network.is_input net i) then
          Alcotest.(check bool)
            (Printf.sprintf "case %d %s: node %d function" case name i)
            true
            (Expr.equal (Network.func ref_net i) (Network.func net i)))
      (Network.node_ids net)
  in
  for case = 1 to 100 do
    let shape =
      { Gen_comb.default_shape with
        Gen_comb.num_inputs = 4 + (case mod 5);
        num_gates = 8 + (case mod 13) }
    in
    let seed_net = Gen_comb.random r shape in
    let npi = List.length (Network.inputs seed_net) in
    let input_probs =
      Array.init npi (fun k ->
          0.1 +. (0.8 *. float_of_int ((k * 5 + case) mod 9) /. 8.0))
    in
    List.iter
      (fun (name, policy) ->
        let net = Network.copy seed_net and ref_net = Network.copy seed_net in
        let changed = Dontcare.optimize ~verify:`Off net policy in
        let expected = reference_optimize ref_net policy in
        total_changed := !total_changed + changed;
        Alcotest.(check int)
          (Printf.sprintf "case %d %s: changed count" case name)
          expected changed;
        same_functions case name net ref_net)
      [ ("area", Dontcare.For_area); ("power", Dontcare.For_power input_probs);
        ("fanout", Dontcare.For_power_fanout input_probs) ];
    let trace = Stimulus.random r ~width:npi ~length:40 () in
    let net = Network.copy seed_net and ref_net = Network.copy seed_net in
    let res = Resynth.measured ~verify:`Off net ~trace in
    let changed, tried, score = reference_measured ref_net ~trace in
    total_changed := !total_changed + res.Resynth.changed;
    Alcotest.(check int)
      (Printf.sprintf "case %d measured: changed count" case)
      changed res.Resynth.changed;
    Alcotest.(check int)
      (Printf.sprintf "case %d measured: tried count" case)
      tried res.Resynth.tried;
    Alcotest.(check bool)
      (Printf.sprintf "case %d measured: final score" case)
      true
      (Int64.equal (Int64.bits_of_float score)
         (Int64.bits_of_float res.Resynth.final_score));
    same_functions case "measured" net ref_net
  done;
  Alcotest.(check bool) "the sweep changes some nodes" true (!total_changed > 0)

(* --- Factor --- *)

let sop_of_string_pairs lits = lits (* readability alias *)

let test_division () =
  ignore sop_of_string_pairs;
  (* f = a c + a d + b c + b d; f / (c + d) = a + b, remainder 0. *)
  let a = Factor.lit_pos 0 and b = Factor.lit_pos 1 in
  let c = Factor.lit_pos 2 and d = Factor.lit_pos 3 in
  let f = [ [ a; c ]; [ a; d ]; [ b; c ]; [ b; d ] ] in
  let divisor = [ [ c ]; [ d ] ] in
  let q, r = Factor.divide f divisor in
  Alcotest.(check bool) "quotient a + b" true
    (List.sort compare q = [ [ a ]; [ b ] ]);
  Alcotest.(check bool) "no remainder" true (r = [])

let test_kernels_found () =
  let a = Factor.lit_pos 0 and b = Factor.lit_pos 1 in
  let c = Factor.lit_pos 2 and d = Factor.lit_pos 3 in
  let f = [ [ a; c ]; [ a; d ]; [ b; c ]; [ b; d ] ] in
  let ks = List.map snd (Factor.kernels f) in
  Alcotest.(check bool) "kernel c + d found" true
    (List.exists (fun k -> List.sort compare k = [ [ c ]; [ d ] ]) ks);
  Alcotest.(check bool) "kernel a + b found" true
    (List.exists (fun k -> List.sort compare k = [ [ a ]; [ b ] ]) ks)

let test_extract_reduces_literals () =
  let a = Factor.lit_pos 0 and b = Factor.lit_pos 1 in
  let c = Factor.lit_pos 2 and d = Factor.lit_pos 3 in
  let f = [ [ a; c ]; [ a; d ]; [ b; c ]; [ b; d ] ] in
  let ext = Factor.extract Factor.Literals ~nvars:4 [ ("f", f) ] in
  Alcotest.(check bool) "extraction happened" true (ext.Factor.defs <> []);
  Alcotest.(check bool) "cost reduced" true
    (Factor.total_cost Factor.Literals ext < 8.0)

let test_extract_network_equivalent () =
  let r = rng () in
  let funcs = Gen_comb.random_sop_set r ~nvars:6 ~nfuncs:3 ~cubes:6 ~max_lits:3 in
  let flat = Factor.extract ~max_new:0 Factor.Literals ~nvars:6 funcs in
  let ext = Factor.extract Factor.Literals ~nvars:6 funcs in
  Alcotest.(check bool) "factored network equals flat network" true
    (networks_equivalent (Factor.to_network flat) (Factor.to_network ext))

let test_activity_extract_prefers_quiet_signals () =
  (* Two structurally identical kernels: one over quiet variables (p near
     0), one over busy ones (p = 0.5).  Plain literal count sees a tie;
     the activity-weighted cost of [35] must pick the BUSY kernel: that
     extraction eliminates duplicated high-activity literals and replaces
     them with a single, less active intermediate signal, which is the
     larger switched-capacitance saving. *)
  let q1 = Factor.lit_pos 0 and q2 = Factor.lit_pos 1 in
  let b1 = Factor.lit_pos 2 and b2 = Factor.lit_pos 3 in
  let x = Factor.lit_pos 4 and y = Factor.lit_pos 5 in
  let funcs =
    [
      ("f1", [ [ x; q1 ]; [ x; q2 ] ]);
      ("f2", [ [ y; q1 ]; [ y; q2 ] ]);
      ("g1", [ [ x; b1 ]; [ x; b2 ] ]);
      ("g2", [ [ y; b1 ]; [ y; b2 ] ]);
    ]
  in
  let prob = function 0 | 1 -> 0.02 | _ -> 0.5 in
  let weight v = 2.0 *. prob v *. (1.0 -. prob v) in
  let cost = Factor.Activity { weight; prob } in
  let ext = Factor.extract ~max_new:1 cost ~nvars:6 funcs in
  match ext.Factor.defs with
  | [ (_, k) ] ->
    let vars =
      List.sort_uniq compare (List.map Factor.lit_var (List.concat k))
    in
    Alcotest.(check (list int)) "busy kernel chosen" [ 2; 3 ] vars
  | _ -> Alcotest.fail "expected exactly one extraction"

let prop_sop_expr_roundtrip =
  prop ~count:100 "sop <-> expr roundtrip"
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (list_size (int_range 1 3) (int_bound 7)))
    (fun sop ->
      (* Deduplicate conflicting literals within a cube first. *)
      let clean =
        List.map
          (fun cube ->
            List.sort_uniq compare
              (List.filter (fun l -> not (List.mem (l lxor 1) cube)) cube))
          sop
      in
      let e = Factor.expr_of_sop clean in
      match Factor.sop_of_expr e with
      | _ -> true
      | exception Invalid_argument _ -> false)

(* --- Cleanup --- *)

let test_cleanup_constants () =
  let net = Network.create () in
  let a = Network.add_input net in
  let one = Network.add_node net Expr.tru [] in
  let g = Network.add_node net Expr.(var 0 &&& var 1) [ a; one ] in
  Network.set_output net "z" g;
  let reference = Network.copy net in
  let changes = Cleanup.run net in
  Alcotest.(check bool) "changed" true (changes > 0);
  Alcotest.(check bool) "equivalent" true (networks_equivalent reference net);
  (* z = a & 1 = a: the AND collapses to a buffer and the constant dies. *)
  Alcotest.(check bool) "constant swept" true
    (List.for_all
       (fun i ->
         Network.is_input net i
         || not (Expr.equal (Network.func net i) Expr.tru))
       (Network.node_ids net))

let test_cleanup_double_inverter () =
  let net = Network.create () in
  let a = Network.add_input net in
  let n1 = Network.add_node net (Expr.not_ (Expr.var 0)) [ a ] in
  let n2 = Network.add_node net (Expr.not_ (Expr.var 0)) [ n1 ] in
  let g = Network.add_node net Expr.(var 0 ||| var 1) [ n2; a ] in
  Network.set_output net "z" g;
  let reference = Network.copy net in
  ignore (Cleanup.run net);
  Alcotest.(check bool) "equivalent" true (networks_equivalent reference net);
  (* The pair of inverters is bypassed and swept. *)
  Alcotest.(check int) "only the OR remains" 1 (Network.node_count net)

let test_cleanup_idempotent_on_clean_nets () =
  let net = (Circuits.ripple_adder 4).Circuits.net in
  Alcotest.(check int) "nothing to do" 0 (Cleanup.run net)

let test_cleanup_random_safe () =
  let r = rng () in
  for _ = 1 to 5 do
    let net = Gen_comb.random r Gen_comb.default_shape in
    let reference = Network.copy net in
    ignore (Cleanup.run net);
    Alcotest.(check bool) "cleanup safe" true (networks_equivalent reference net)
  done

(* --- Balance --- *)

let test_balance_removes_imbalance () =
  let net = Gen_comb.deep_chain ~width:4 ~depth:8 in
  Alcotest.(check bool) "imbalanced before" true (Balance.imbalance net > 0);
  let balanced, inserted = Balance.balance net in
  Alcotest.(check int) "balanced after" 0 (Balance.imbalance balanced);
  Alcotest.(check bool) "buffers inserted" true (inserted > 0)

let test_balance_preserves_function_and_depth () =
  let net = (Circuits.ripple_adder 4).Circuits.net in
  let balanced, _ = Balance.balance net in
  Alcotest.(check bool) "function preserved" true
    (networks_equivalent net balanced);
  (* Unit-delay critical path must not grow: buffers only pad slack. *)
  let lvl n =
    List.fold_left
      (fun acc (_, o) -> max acc (Network.level n o))
      0 (Network.outputs n)
  in
  Alcotest.(check int) "critical level unchanged" (lvl net) (lvl balanced)

let test_balance_reduces_glitches () =
  let net = (Circuits.array_multiplier 4).Circuits.net in
  let balanced, _ = Balance.balance net in
  let stim = Stimulus.random (rng ()) ~width:8 ~length:300 () in
  let before = Event_sim.run net Event_sim.Unit_delay stim in
  let after = Event_sim.run balanced Event_sim.Unit_delay stim in
  Alcotest.(check bool) "spurious fraction falls" true
    (Event_sim.spurious_fraction after < Event_sim.spurious_fraction before)

let test_balance_budget_respected () =
  let net = Gen_comb.deep_chain ~width:4 ~depth:10 in
  let _, inserted = Balance.balance ~budget:3 net in
  Alcotest.(check bool) "at most 3" true (inserted <= 3)

let test_selective_threshold () =
  let net = Gen_comb.deep_chain ~width:4 ~depth:10 in
  let all, n_all = Balance.balance net in
  let some, n_some = Balance.selective net ~threshold:4 in
  Alcotest.(check bool) "selective never inserts more" true (n_some <= n_all);
  Alcotest.(check int) "full balancing complete" 0 (Balance.imbalance all);
  (* Small gaps below the threshold deliberately remain. *)
  Alcotest.(check bool) "selective leaves residual imbalance" true
    (Balance.imbalance some > 0)

let suite =
  [
    quick "library cells self-consistent" test_cells_consistent;
    quick "cell lookup" test_cell_lookup;
    quick "pattern function" test_pattern_func;
    quick "decompose equivalent (adder)" test_decompose_equivalent;
    quick "decompose equivalent (multiplier/xor)" test_decompose_xor_shape;
    quick "power decomposition equivalent" test_decompose_for_power_equivalent;
    quick "power decomposition lowers activity" test_decompose_for_power_lowers_activity;
    quick "decompose rejects constants" test_decompose_rejects_constants;
    quick "area mapping equivalent" test_map_area_equivalent;
    quick "delay mapping equivalent" test_map_delay_equivalent;
    quick "power mapping equivalent" test_map_power_equivalent;
    quick "objectives optimize their own metric" test_map_area_beats_delay_on_area;
    quick "power mapping wins switched capacitance" test_map_power_beats_area_on_power;
    quick "power mapping checks input_probs"
      test_power_mapping_checks_input_probs;
    quick "mapper uses complex cells" test_map_uses_complex_cells;
    quick "mapper rejects raw networks" test_map_rejects_non_subject;
    quick "mapper rejects inadequate library" test_map_custom_library_failure;
    quick "satisfiability don't-cares" test_sdc_detected;
    quick "observability don't-cares" test_odc_detected;
    quick "dc optimization preserves outputs" test_optimize_preserves_outputs;
    quick "power dc optimization safe and useful" test_optimize_power_preserves_and_helps;
    quick "fanout-aware dc policy (paper [19])" test_optimize_fanout_policy;
    quick "dc optimization = fresh-manager reference sweep"
      test_optimize_matches_fresh_manager_reference;
    quick "dc session = fresh-manager oracle under edits"
      test_session_matches_oracle;
    quick "dc random regime: rare code falls back to BDDs" test_dc_rare_code;
    quick "dc decided by simulation builds no BDD node"
      test_dc_simulated_builds_no_bdd;
    quick "observability = free-variable ODC, no planes"
      test_observability_matches_free_variable;
    quick "algebraic division" test_division;
    quick "kernels found" test_kernels_found;
    quick "extraction reduces literals" test_extract_reduces_literals;
    quick "extraction network equivalent" test_extract_network_equivalent;
    quick "activity extraction prefers quiet kernels" test_activity_extract_prefers_quiet_signals;
    prop_sop_expr_roundtrip;
    quick "cleanup constant propagation" test_cleanup_constants;
    quick "cleanup double inverters" test_cleanup_double_inverter;
    quick "cleanup idempotent on clean nets" test_cleanup_idempotent_on_clean_nets;
    quick "cleanup safe on random nets" test_cleanup_random_safe;
    quick "balance removes imbalance" test_balance_removes_imbalance;
    quick "balance preserves function and depth" test_balance_preserves_function_and_depth;
    quick "balance reduces glitching" test_balance_reduces_glitches;
    quick "balance budget respected" test_balance_budget_respected;
    quick "selective balancing inserts fewer buffers" test_selective_threshold;
  ]
