(* lib/rewrite: rule soundness, elaboration bit-exactness, cost models
   and the SAT-gated search. *)

open Test_util

let sorted l = List.sort compare l

let rand_env rng dfg =
  let m = (1 lsl Dfg.width dfg) - 1 in
  List.map
    (fun (nm, _) -> (nm, Lowpower.Rng.int rng (m + 1)))
    (Dfg.inputs dfg)

(* One synthetic datapath where every rule has at least one site. *)
let showcase () =
  let d = Dfg.create ~width:8 () in
  let inp nm = Dfg.add d (Dfg.Input nm) [] in
  let a = inp "a" and b = inp "b" and c = inp "c" in
  let x = inp "x" and y = inp "y" and z = inp "z" in
  let mul p q = Dfg.add d Dfg.Mul [ p; q ] in
  let add p q = Dfg.add d Dfg.Add [ p; q ] in
  let konst v = Dfg.add d (Dfg.Const v) [] in
  let factor_site = add (mul a b) (mul a c) in
  let chain = add (add x y) z in
  let csd_site = mul x (konst 13) in
  let fold_site = mul y (konst 1) in
  let share_site = mul b a in
  let distribute_site = mul z (add x y) in
  let o1 = add (add csd_site fold_site) share_site in
  let o2 = add (add factor_site chain) distribute_site in
  ignore (Dfg.add d (Dfg.Output "o1") [ o1 ]);
  ignore (Dfg.add d (Dfg.Output "o2") [ o2 ]);
  d

let check_preserves name orig rewritten rng =
  for _ = 1 to 8 do
    let env = rand_env rng orig in
    if sorted (Dfg.eval orig env) <> sorted (Dfg.eval rewritten env) then
      Alcotest.failf "%s: semantics broken" name
  done

(* Every rule applies somewhere on the showcase graph and preserves its
   semantics at every site. *)
let test_rules_showcase () =
  let d = showcase () in
  List.iter
    (fun r ->
      let sites = r.Rules.sites d in
      if sites = [] then Alcotest.failf "%s: no site on showcase" r.Rules.name;
      List.iter
        (fun site ->
          match r.Rules.apply_at d site with
          | None ->
            Alcotest.failf "%s: site %d did not apply" r.Rules.name site
          | Some d' -> check_preserves r.Rules.name d d' (rng ()))
        sites)
    Rules.all;
  (* rules are pure: the source graph is untouched *)
  Alcotest.(check bool) "source graph untouched" true
    (Dfg.equal d (showcase ()))

(* The 500-random-DFG fuzz: every rule, every site, bit-exact eval. *)
let test_rules_fuzz () =
  let r0 = rng () in
  let applied = Hashtbl.create 8 in
  for _ = 1 to 500 do
    let ops = 4 + Lowpower.Rng.int r0 12 in
    let width = 4 + Lowpower.Rng.int r0 5 in
    let g = Gen_dfg.random_dfg r0 ~ops ~width () in
    List.iter
      (fun r ->
        List.iter
          (fun site ->
            match r.Rules.apply_at g site with
            | None ->
              Alcotest.failf "%s: enumerated site %d did not apply"
                r.Rules.name site
            | Some g' ->
              Hashtbl.replace applied r.Rules.name ();
              check_preserves r.Rules.name g g' r0;
              if Dfg.width g' <> Dfg.width g then
                Alcotest.failf "%s: width changed" r.Rules.name)
          (r.Rules.sites g))
      Rules.all
  done;
  (* the fuzzer must actually exercise the frequent rules *)
  List.iter
    (fun nm ->
      if not (Hashtbl.mem applied nm) then
        Alcotest.failf "fuzz never applied %s" nm)
    [ "commute"; "reassociate"; "csd-mul"; "fold-const" ]

let test_csd_digits () =
  let r = rng () in
  List.iter
    (fun width ->
      let m = (1 lsl width) - 1 in
      for _ = 1 to 200 do
        let c = Lowpower.Rng.int r (m + 1) in
        let digits = Rules.csd_digits ~width c in
        let v =
          List.fold_left (fun acc (d, k) -> acc + (d * (1 lsl k))) 0 digits
        in
        if v land m <> c then
          Alcotest.failf "csd width %d c %d: reconstructed %d" width c
            (v land m);
        let rec no_adjacent = function
          | (d1, k1) :: ((d2, k2) :: _ as rest) ->
            if abs d1 <> 1 || k2 <= k1 then
              Alcotest.failf "csd width %d c %d: bad digit stream" width c;
            if k2 = k1 + 1 && d2 <> 0 then
              Alcotest.failf "csd width %d c %d: adjacent nonzeros" width c;
            no_adjacent rest
          | [ (d, _) ] ->
            if abs d <> 1 then Alcotest.failf "csd: digit out of range"
          | [] -> ()
        in
        no_adjacent digits
      done)
    [ 4; 8; 16 ]

(* CSD beats the binary expansion where it matters: x*15 becomes one
   subtraction, and every Mul-by-constant disappears. *)
let test_csd_mul_shapes () =
  let d = Dfg.create ~width:8 () in
  let x = Dfg.add d (Dfg.Input "x") [] in
  let c = Dfg.add d (Dfg.Const 15) [] in
  let p = Dfg.add d Dfg.Mul [ x; c ] in
  ignore (Dfg.add d (Dfg.Output "y") [ p ]);
  match Rules.apply Rules.csd_mul d with
  | None -> Alcotest.fail "csd-mul did not apply"
  | Some d' ->
    let count op =
      List.length
        (List.filter (fun i -> Dfg.op d' i = op) (Dfg.nodes d'))
    in
    Alcotest.(check int) "no multiplies left" 0 (count Dfg.Mul);
    Alcotest.(check int) "one subtraction" 1 (count Dfg.Sub);
    Alcotest.(check int) "one shift" 1 (count (Dfg.Shift_left 4));
    check_preserves "csd 15" d d' (rng ())

let test_elaborate_bit_exact () =
  let r = rng () in
  let cases =
    [ Gen_dfg.fir ~taps:4 ~width:6 ();
      Gen_dfg.mac_chain ~taps:3 ~width:5 ();
      Gen_dfg.biquad ();
      Gen_dfg.poly_horner ~degree:3 ();
      Gen_dfg.random_dfg r ~ops:10 ~width:4 ();
      Gen_dfg.random_dfg r ~ops:14 ~width:7 () ]
  in
  List.iter
    (fun dfg ->
      let net = Elaborate.to_network dfg in
      for _ = 1 to 25 do
        let env = rand_env r dfg in
        let expected = sorted (Dfg.eval dfg env) in
        let got = sorted (Elaborate.eval net ~width:(Dfg.width dfg) env) in
        if expected <> got then Alcotest.fail "elaboration not bit-exact"
      done)
    cases

(* Forcing a wider input set changes the pinout, not the function. *)
let test_elaborate_forced_inputs () =
  let r = rng () in
  let dfg = Gen_dfg.fir ~taps:3 ~width:6 () in
  let forced = [ "x0"; "x1"; "x2"; "unused0"; "unused1" ] in
  let net = Elaborate.to_network ~inputs:forced dfg in
  Alcotest.(check int) "input bits" (5 * 6) (List.length (Network.inputs net));
  for _ = 1 to 10 do
    let env = ("unused0", 17) :: ("unused1", 3) :: rand_env r dfg in
    if sorted (Dfg.eval dfg env) <> sorted (Elaborate.eval net ~width:6 env)
    then Alcotest.fail "forced-input elaboration differs"
  done;
  expect_invalid_arg "must cover graph inputs" (fun () ->
      Elaborate.to_network ~inputs:[ "x0" ] dfg)

(* Commuted operands elaborate to the identical netlist — the property
   that keeps the hash-keyed cost cache sound. *)
let test_elaborate_canonical_commute () =
  let d = Dfg.create ~width:5 () in
  let a = Dfg.add d (Dfg.Input "a") [] in
  let b = Dfg.add d (Dfg.Input "b") [] in
  let m = Dfg.add d Dfg.Mul [ a; b ] in
  let s = Dfg.add d Dfg.Add [ m; a ] in
  ignore (Dfg.add d (Dfg.Output "y") [ s ]);
  match Rules.apply Rules.commute d with
  | None -> Alcotest.fail "commute did not apply"
  | Some d' ->
    Alcotest.(check bool) "hashes collide" true
      (Dfg.structural_hash d = Dfg.structural_hash d');
    Alcotest.(check bool) "same netlist" true
      (Network.structural_hash (Elaborate.to_network d)
      = Network.structural_hash (Elaborate.to_network d'))

let trace_for rng dfg ~n = Gen_dfg.random_samples rng dfg ~n ~correlated:true ()

let test_cost_models () =
  let r = rng () in
  let dfg = Gen_dfg.fir ~taps:4 ~width:6 () in
  let trace = trace_for r dfg ~n:40 in
  let toggles = Cost.of_dfg ~model:Cost.Toggles dfg ~trace in
  let indep = Cost.of_dfg ~model:Cost.Independence dfg ~trace in
  let area = Cost.of_dfg ~model:Cost.Area dfg ~trace in
  Alcotest.(check bool) "toggles positive" true (toggles > 0.0);
  Alcotest.(check bool) "independence positive" true (indep > 0.0);
  let net = Elaborate.to_network dfg in
  check_close "area = literals" (float_of_int (Network.literal_count net)) area;
  (* measured and modeled activity respond to the trace; area does not *)
  let trace2 = trace_for r dfg ~n:40 in
  let toggles2 = Cost.of_dfg ~model:Cost.Toggles dfg ~trace:trace2 in
  Alcotest.(check bool) "toggles trace-sensitive" true (toggles <> toggles2);
  check_close "area trace-blind" area
    (Cost.of_dfg ~model:Cost.Area dfg ~trace:trace2)

let test_search_reduces_fir () =
  let r = rng () in
  let dfg = Gen_dfg.fir ~taps:4 ~width:6 () in
  let trace = trace_for r dfg ~n:48 in
  let memo = Memo.create () in
  let res =
    Search.run ~max_steps:8 ~samples:32 ~memo ~model:Cost.Toggles
      ~rng:(rng ()) dfg ~trace
  in
  Alcotest.(check bool) "cost reduced" true
    (res.Search.final_cost < res.Search.initial_cost);
  Alcotest.(check bool) "took steps" true (res.Search.steps <> []);
  Alcotest.(check bool) "every accepted rewrite SAT-proved" true
    (res.Search.proofs >= List.length res.Search.steps);
  (* the result is equivalent — checked independently of the session *)
  Alcotest.(check bool) "final equivalent (random exec)" true
    (Transform.equivalent ~samples:200 dfg res.Search.final ~rng:(rng ()));
  let inputs = List.map fst (Dfg.inputs dfg) in
  (match
     Cec.check
       (Elaborate.to_network ~inputs dfg)
       (Elaborate.to_network ~inputs res.Search.final)
   with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ -> Alcotest.fail "final not equivalent under CEC")

let test_search_deterministic () =
  let dfg = Gen_dfg.fir ~taps:3 ~width:5 () in
  let trace = trace_for (rng ()) dfg ~n:32 in
  let go () =
    Search.run ~max_steps:6 ~samples:24 ~model:Cost.Toggles
      ~rng:(rng ()) dfg ~trace
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "same final graph" true
    (Dfg.equal a.Search.final b.Search.final);
  check_close "same final cost" a.Search.final_cost b.Search.final_cost;
  Alcotest.(check int) "same step count" (List.length a.Search.steps)
    (List.length b.Search.steps)

(* An unsound "rule" (drops a used input) must be refuted by random
   execution and never applied. *)
let broken_rule =
  {
    Rules.name = "drop-input";
    sites =
      (fun dfg ->
        match Dfg.inputs dfg with [] -> [] | (_, i) :: _ -> [ i ]);
    apply_at =
      (fun dfg site ->
        match Dfg.op dfg site with
        | Dfg.Input _ ->
          Some
            (Rules.rebuild dfg (fun out _build i ->
                 if i = site then Some (Dfg.add out (Dfg.Const 0) [])
                 else None))
        | _ -> None);
  }

let test_search_refutes_broken_rule () =
  let r = rng () in
  let dfg = Gen_dfg.fir ~taps:3 ~width:5 () in
  let trace = trace_for r dfg ~n:32 in
  let res =
    Search.run ~rules:[ broken_rule ] ~max_steps:4 ~samples:32 ~model:Cost.Area
      ~rng:(rng ()) dfg ~trace
  in
  Alcotest.(check bool) "nothing accepted" true (res.Search.steps = []);
  Alcotest.(check bool) "final is the original" true
    (Dfg.equal dfg res.Search.final);
  Alcotest.(check bool) "refutation reported" true (res.Search.refuted <> []);
  List.iter
    (fun (rf : Search.refutation) ->
      Alcotest.(check string) "refuted rule name" "drop-input"
        rf.Search.rule)
    res.Search.refuted

(* With the random-execution stage disabled (samples = 0), the SAT stage
   alone must still catch the unsound rewrite. *)
let test_search_sat_gate () =
  let r = rng () in
  let dfg = Gen_dfg.fir ~taps:3 ~width:5 () in
  let trace = trace_for r dfg ~n:32 in
  let res =
    Search.run ~rules:[ broken_rule ] ~max_steps:2 ~samples:0 ~model:Cost.Area
      ~rng:(rng ()) dfg ~trace
  in
  Alcotest.(check bool) "nothing accepted" true (res.Search.steps = []);
  (match res.Search.refuted with
  | [] -> Alcotest.fail "no refutation"
  | rf :: _ ->
    Alcotest.(check bool) "refuted by SAT" true (rf.Search.stage = `Sat));
  Alcotest.(check bool) "final is the original" true
    (Dfg.equal dfg res.Search.final)

(* An unsound rewrite that ranks ahead of sound ones must not stall the
   search: a step reports it refuted and moves to the first candidate
   that is proved. *)
let test_search_refutes_then_admits () =
  let r = rng () in
  let dfg = Gen_dfg.fir ~taps:4 ~width:6 () in
  let trace = trace_for r dfg ~n:48 in
  let res =
    Search.run ~rules:(broken_rule :: Rules.all) ~max_steps:8 ~samples:32
      ~model:Cost.Toggles ~rng:(rng ()) dfg ~trace
  in
  Alcotest.(check bool) "took steps" true (res.Search.steps <> []);
  Alcotest.(check bool) "drop-input refuted" true
    (List.exists
       (fun (rf : Search.refutation) -> rf.Search.rule = "drop-input")
       res.Search.refuted);
  List.iter
    (fun (s : Search.step) ->
      Alcotest.(check bool) "no drop-input step" true
        (s.Search.rule <> "drop-input"))
    res.Search.steps;
  let inputs = List.map fst (Dfg.inputs dfg) in
  match
    Cec.check
      (Elaborate.to_network ~inputs dfg)
      (Elaborate.to_network ~inputs res.Search.final)
  with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ -> Alcotest.fail "final not equivalent under CEC"

(* The conflict-capped session check behind [Search]'s [sat_budget],
   against a session on the parent's elaboration: proves an easy rewrite
   outright, refutes a broken candidate with a genuine counterexample,
   and raises [Solver.Interrupted] when the cap trips before the proof
   completes — after which the same session, stronger for the learned
   clauses it kept, finishes the proof. *)
let test_budgeted_session () =
  let csd g =
    match Rules.apply Rules.csd_mul g with
    | Some d -> d
    | None -> Alcotest.fail "no csd site"
  in
  let dfg = Gen_dfg.fir ~taps:1 ~coeffs:[ 127 ] ~width:8 () in
  let inputs = List.sort compare (List.map fst (Dfg.inputs dfg)) in
  let base = Elaborate.to_network ~inputs dfg in
  let sess = Cec.session base in
  (match
     Cec.session_check ~conflicts:1_000_000 sess
       (Elaborate.to_network ~inputs (csd dfg))
   with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ -> Alcotest.fail "sound rewrite refuted");
  let broken =
    match broken_rule.Rules.sites dfg with
    | site :: _ -> (
      match broken_rule.Rules.apply_at dfg site with
      | Some d -> Elaborate.to_network ~inputs d
      | None -> Alcotest.fail "broken rule did not apply")
    | [] -> Alcotest.fail "broken rule found no site"
  in
  (match Cec.session_check ~conflicts:1_000_000 sess broken with
  | Cec.Counterexample vec ->
    Alcotest.(check bool) "counterexample replays" true
      (Cec.replay base broken vec)
  | Cec.Equivalent -> Alcotest.fail "broken candidate proved equivalent");
  (* A hard multiplier identity under a 1-conflict cap: the interrupt
     hook is polled every ~1024 conflicts, far short of the tens of
     thousands this proof needs, so the call must give up — and the
     session must survive it. *)
  let hard = Gen_dfg.fir ~taps:1 ~coeffs:[ 23453 ] ~width:16 () in
  let hinputs = List.sort compare (List.map fst (Dfg.inputs hard)) in
  let hsess = Cec.session (Elaborate.to_network ~inputs:hinputs hard) in
  let cand = Elaborate.to_network ~inputs:hinputs (csd hard) in
  (match Cec.session_check ~conflicts:1 hsess cand with
  | _ -> Alcotest.fail "decided within a 1-conflict cap"
  | exception Solver.Interrupted -> ());
  match Cec.session_check ~conflicts:1_000_000 hsess cand with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ -> Alcotest.fail "sound rewrite refuted on retry"

(* Every rule site of random DFGs, the unsound [broken_rule] included:
   a session on the parent's elaboration reaches the one-shot
   [Cec.check] verdict, and its counterexamples are genuine. *)
let prop_session_matches_check =
  prop ~count:100 "session verdicts on rule candidates equal one-shot"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let r = Lowpower.Rng.create seed in
      let ops = 4 + Lowpower.Rng.int r 9 in
      (* Up to width 5: wider variable-by-variable multiplier identities
         cost the one-shot oracle seconds each. *)
      let width = 4 + Lowpower.Rng.int r 2 in
      let g = Gen_dfg.random_dfg r ~ops ~width () in
      let inputs = List.sort compare (List.map fst (Dfg.inputs g)) in
      let parent = Elaborate.to_network ~inputs g in
      let sess = Cec.session parent in
      List.for_all
        (fun rule ->
          List.for_all
            (fun site ->
              match rule.Rules.apply_at g site with
              | None -> true
              | Some g' -> (
                let cand = Elaborate.to_network ~inputs g' in
                let oneshot = Cec.check parent cand = Cec.Equivalent in
                match Cec.session_check sess cand with
                | Cec.Equivalent -> oneshot
                | Cec.Counterexample vec ->
                  (not oneshot) && Cec.replay parent cand vec))
            (rule.Rules.sites g))
        (broken_rule :: Rules.all))

(* The search behaves under the Independence cost model too (the CLI's
   [rewrite --model independence]). *)
let test_search_independence_model () =
  let r = rng () in
  let dfg = Gen_dfg.fir ~taps:3 ~width:5 () in
  let trace = trace_for r dfg ~n:32 in
  let res =
    Search.run ~max_steps:6 ~samples:24 ~model:Cost.Independence
      ~rng:(rng ()) dfg ~trace
  in
  Alcotest.(check bool) "cost not increased" true
    (res.Search.final_cost <= res.Search.initial_cost);
  Alcotest.(check bool) "final equivalent" true
    (Transform.equivalent ~samples:100 dfg res.Search.final ~rng:(rng ()))

let suite =
  [
    quick "rules: showcase sites and soundness" test_rules_showcase;
    quick "rules: 500-random-DFG fuzz" test_rules_fuzz;
    quick "csd: digit stream well-formed and exact" test_csd_digits;
    quick "csd: x*15 -> shift-sub" test_csd_mul_shapes;
    quick "elaborate: bit-exact vs Dfg.eval" test_elaborate_bit_exact;
    quick "elaborate: forced input set" test_elaborate_forced_inputs;
    quick "elaborate: commute-canonical netlists"
      test_elaborate_canonical_commute;
    quick "cost: three models" test_cost_models;
    quick "search: reduces FIR toggles, SAT-proved" test_search_reduces_fir;
    quick "search: deterministic" test_search_deterministic;
    quick "search: refutes broken rule" test_search_refutes_broken_rule;
    quick "search: SAT gate alone catches unsound rewrite"
      test_search_sat_gate;
    quick "search: refuted rewrite does not stall a step"
      test_search_refutes_then_admits;
    quick "cec: conflict-budgeted session probe" test_budgeted_session;
    prop_session_matches_check;
    quick "search: independence fallback model"
      test_search_independence_model;
  ]
