(* Differential tests for the persistent measured-activity engine: the
   incremental changed-cone update vs a fresh engine's full replay vs a
   from-scratch Bitsim count (all compared with [=], the counts are
   bit-identical by design), plus the Annotation snapshot layer and the
   measurement-driven Resynth sweep built on top. *)

open Test_util

let gen_net seed ~gates =
  Gen_comb.random
    (Lowpower.Rng.create seed)
    { Gen_comb.num_inputs = 8; num_gates = gates; max_fanin = 3;
      output_fraction = 0.2 }

let gen_trace seed ~n =
  Traces.correlated_walk (Lowpower.Rng.create seed) ~bits:8 ~n ()

let logic_nodes net =
  net |> Network.node_ids
  |> List.filter (fun i -> not (List.mem i (Network.inputs net)))
  |> Array.of_list

(* A random replacement function over [k] fanins — global-function edits,
   so the dirty cone genuinely changes values. *)
let random_func r k =
  let v () = Expr.Var (Lowpower.Rng.int r k) in
  match Lowpower.Rng.int r 5 with
  | 0 -> Expr.not_ (v ())
  | 1 -> Expr.and_list (List.init k (fun i -> Expr.Var i))
  | 2 -> Expr.or_list [ v (); Expr.not_ (v ()) ]
  | 3 -> Expr.(Xor (v (), v ()))
  | _ -> Expr.(ite (v ()) (v ()) (Expr.not_ (v ())))

(* One random local edit announced to the engine; fanin extensions that
   would create a cycle are skipped (replace_func refuses them before the
   engine hears about the edit). *)
let random_edit r net sim =
  let live = logic_nodes net in
  let x = live.(Lowpower.Rng.int r (Array.length live)) in
  let fi = Network.fanins net x in
  let k = List.length fi in
  let applied =
    if k > 0 && Lowpower.Rng.int r 4 = 0 then begin
      (* Fanin extension: wire in one more randomly chosen node. *)
      let all = Array.of_list (Network.node_ids net) in
      let extra = all.(Lowpower.Rng.int r (Array.length all)) in
      let f = Expr.(Or [ Network.func net x; Var k ]) in
      match Network.replace_func net x f (fi @ [ extra ]) with
      | () -> true
      | exception Invalid_argument _ -> false
    end
    else if k > 0 then begin
      Network.replace_func net x (random_func r k) fi;
      true
    end
    else false
  in
  if applied then Actsim.update sim x

let fresh_counts net trace =
  Bitsim.count_transitions (Bitsim.of_network net) trace

(* Word evaluations of one whole-network replay: a fresh engine's
   creation pass. *)
let full_pass_words net trace =
  (Actsim.stats (Actsim.create net ~trace)).Actsim.word_evals

let test_incremental_matches_full =
  prop ~count:150 "incremental = full = fresh replay over random edits"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let r = Lowpower.Rng.create (seed + 1) in
      let net = gen_net seed ~gates:(30 + Lowpower.Rng.int r 51) in
      (* ~70 vectors: two packed blocks, so the overlap lane is exercised. *)
      let trace = gen_trace (seed + 2) ~n:(65 + Lowpower.Rng.int r 10) in
      let inc = Actsim.create net ~trace in
      let ok = ref true in
      for _ = 1 to 5 do
        random_edit r net inc;
        let fresh = Actsim.create net ~trace in
        let ci = Actsim.counts inc in
        ok :=
          !ok
          && ci = Actsim.counts fresh
          && ci = fresh_counts net trace
          && Actsim.switched_capacitance inc
             = Actsim.switched_capacitance fresh
      done;
      !ok)

let test_stats () =
  let net = gen_net 7 ~gates:50 in
  let trace = gen_trace 8 ~n:70 in
  let inc = Actsim.create net ~trace in
  let live = logic_nodes net in
  let x = live.(0) in
  let fi = Network.fanins net x in
  Network.replace_func net x (Expr.not_ (Network.func net x)) fi;
  Actsim.update inc x;
  let si = Actsim.stats inc in
  Alcotest.(check int) "inc: update counted" 1 si.Actsim.updates;
  if si.Actsim.node_visits < 1 then
    Alcotest.fail "inc: dirty cone visited no nodes";
  (* The update touches a strict subset of a full replay's node-block
     evaluations — the number the engine exists to shrink. *)
  if si.Actsim.word_evals >= 2 * full_pass_words net trace then
    Alcotest.fail "incremental did not save word evaluations"

let test_errors () =
  let net = gen_net 3 ~gates:40 in
  let trace = gen_trace 4 ~n:50 in
  expect_invalid_arg "empty trace" (fun () ->
      Actsim.create net ~trace:[]);
  expect_invalid_arg "arity mismatch" (fun () ->
      Actsim.create net ~trace:[ Array.make 3 false ]);
  let sim = Actsim.create net ~trace in
  expect_invalid_arg "update on input" (fun () ->
      Actsim.update sim (List.hd (Network.inputs net)));
  expect_invalid_arg "unknown id" (fun () -> Actsim.update sim (-1));
  expect_invalid_arg "unknown toggles id" (fun () ->
      Actsim.toggles sim (-1))

(* ---- Annotation ------------------------------------------------------ *)

let test_annotation () =
  let net = gen_net 11 ~gates:60 in
  let trace = gen_trace 12 ~n:90 in
  let sim = Actsim.create net ~trace in
  let a = Annotation.of_actsim sim in
  Alcotest.(check int) "cycles" (List.length trace) (Annotation.cycles a);
  (* Frozen counts agree exactly with the live engine... *)
  Array.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "toggles %d" id)
        (Actsim.toggles sim id) (Annotation.toggles a id))
    (Annotation.ids a);
  check_close "swcap snapshot"
    (Actsim.switched_capacitance sim)
    (Annotation.switched_capacitance a) ~eps:0.0;
  (* ...and rates are toggles per cycle pair. *)
  let id0 = (Annotation.ids a).(0) in
  check_close "rate"
    (float_of_int (Annotation.toggles a id0)
    /. float_of_int (List.length trace - 1))
    (Annotation.rate a id0);
  (* Measured input probabilities = the empirical line probabilities. *)
  let emp = Stimulus.empirical_probs trace in
  let ip = Annotation.input_probs a in
  Alcotest.(check int) "input_probs width" (Array.length emp)
    (Array.length ip);
  Array.iteri (fun i p -> check_close (Printf.sprintf "prob %d" i) emp.(i) p)
    ip;
  (* bdd_input_order is a permutation of the input positions, hottest
     first. *)
  let order = Annotation.bdd_input_order a in
  Alcotest.(check (list int))
    "order is a permutation"
    (List.init (Array.length ip) Fun.id)
    (List.sort compare (Array.to_list order));
  (* ranked is sorted by descending toggles. *)
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as tl) -> a >= b && sorted tl
    | _ -> true
  in
  if not (sorted (Annotation.ranked a)) then
    Alcotest.fail "ranked not descending"

(* ---- Resynth: the closed loop ---------------------------------------- *)

let test_resynth () =
  let net = gen_net 21 ~gates:70 in
  let trace = gen_trace 22 ~n:128 in
  let reference = Network.copy net in
  let r = Resynth.measured ~verify:`Off net ~trace in
  if r.Resynth.final_score > r.Resynth.initial_score then
    Alcotest.fail "resynthesis increased the measured score";
  (* The reported final score is exactly the measured score of the mutated
     network. *)
  check_close "final score is fresh measurement"
    (Annotation.switched_capacitance (Annotation.measure net ~trace))
    r.Resynth.final_score ~eps:0.0;
  if not (networks_equivalent reference net) then
    Alcotest.fail "resynthesis changed network behaviour";
  (* A full replay per candidate install would cost one creation pass
     plus one pass per update; the dirty cones must cost less. *)
  let st = r.Resynth.sim in
  if
    r.Resynth.tried > 0
    && st.Actsim.word_evals
       >= (st.Actsim.updates + 1) * full_pass_words reference trace
  then Alcotest.fail "incremental resynthesis saved no word evaluations"

let test_resynth_verified () =
  (* With verification forced on, the pass must survive its own proof. *)
  let net = gen_net 31 ~gates:50 in
  let trace = gen_trace 32 ~n:70 in
  let r = Resynth.measured ~verify:`Sat net ~trace in
  if r.Resynth.tried = 0 then Alcotest.fail "no candidates measured"

let suite =
  [
    test_incremental_matches_full;
    quick "stats: full passes, updates, saved word evals" test_stats;
    quick "error cases raise Invalid_argument" test_errors;
    quick "annotation freezes engine counts exactly" test_annotation;
    quick "measured resynthesis: monotone, equivalent, incremental"
      test_resynth;
    quick "measured resynthesis under SAT verification" test_resynth_verified;
  ]
