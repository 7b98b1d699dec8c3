(* Tests for lp_sat: the CDCL solver, Tseitin encoding, miter-based
   equivalence checking, and the [~verify] safety net on the passes. *)

open Test_util

(* --- solver --- *)

let test_solver_basic () =
  let s = Solver.create () in
  let a = Solver.pos (Solver.new_var s) in
  let b = Solver.pos (Solver.new_var s) in
  Solver.add_clause s [ a; b ];
  Solver.add_clause s [ Solver.negate a; b ];
  Solver.add_clause s [ a; Solver.negate b ];
  (match Solver.solve s with
  | Solver.Sat ->
    Alcotest.(check bool) "a" true (Solver.lit_true s a);
    Alcotest.(check bool) "b" true (Solver.lit_true s b)
  | Solver.Unsat -> Alcotest.fail "satisfiable instance refuted");
  (* Incremental: close the last corner. *)
  Solver.add_clause s [ Solver.negate a; Solver.negate b ];
  Alcotest.(check bool) "now unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "ok false after level-0 refutation" false (Solver.ok s)

let test_solver_implication_chain () =
  (* x0 -> x1 -> ... -> x49, assume x0, refute under ~x49. *)
  let s = Solver.create () in
  let v = Array.init 50 (fun _ -> Solver.new_var s) in
  for i = 0 to 48 do
    Solver.add_clause s [ Solver.neg v.(i); Solver.pos v.(i + 1) ]
  done;
  Alcotest.(check bool) "chain sat" true
    (Solver.solve ~assumptions:[ Solver.pos v.(0) ] s = Solver.Sat);
  Alcotest.(check bool) "x49 forced" true (Solver.value s v.(49));
  Alcotest.(check bool) "contradicting assumptions" true
    (Solver.solve ~assumptions:[ Solver.pos v.(0); Solver.neg v.(49) ] s
    = Solver.Unsat);
  Alcotest.(check bool) "database still usable" true (Solver.ok s);
  Alcotest.(check bool) "sat again without assumptions" true
    (Solver.solve s = Solver.Sat)

let php s pigeons holes =
  (* Pigeonhole principle: [pigeons] into [holes]; unsat iff pigeons > holes. *)
  let p =
    Array.init pigeons (fun _ ->
        Array.init holes (fun _ -> Solver.pos (Solver.new_var s)))
  in
  for i = 0 to pigeons - 1 do
    Solver.add_clause s (Array.to_list p.(i))
  done;
  for h = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for j = i + 1 to pigeons - 1 do
        Solver.add_clause s [ Solver.negate p.(i).(h); Solver.negate p.(j).(h) ]
      done
    done
  done

let test_solver_pigeonhole () =
  let s = Solver.create () in
  php s 5 4;
  Alcotest.(check bool) "PHP(5,4) unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check int) "vars" 20 st.Solver.vars;
  Alcotest.(check bool) "learned from conflicts" true
    (st.Solver.conflicts > 0 && st.Solver.learned_clauses > 0);
  Alcotest.(check bool) "decisions counted" true (st.Solver.decisions > 0);
  let s = Solver.create () in
  php s 4 4;
  Alcotest.(check bool) "PHP(4,4) sat" true (Solver.solve s = Solver.Sat)

(* Differential: random 3-SAT instances against brute force. *)
let gen_3sat =
  QCheck2.Gen.(
    map2
      (fun seed nclauses -> (seed, 8 + nclauses))
      (int_bound 100_000) (int_bound 40))

let random_clauses seed nvars nclauses =
  let r = Lowpower.Rng.create seed in
  List.init nclauses (fun _ ->
      List.init 3 (fun _ ->
          let v = Lowpower.Rng.int r nvars in
          if Lowpower.Rng.bool r then Solver.pos v else Solver.neg v))

let brute_force_sat nvars clauses =
  let lit_true code l =
    let v = Solver.var_of l in
    let bit = code land (1 lsl v) <> 0 in
    if Solver.is_pos l then bit else not bit
  in
  let rec go code =
    code < 1 lsl nvars
    && (List.for_all (List.exists (lit_true code)) clauses || go (code + 1))
  in
  go 0

let prop_solver_vs_brute_force =
  prop ~count:150 "random 3-SAT agrees with brute force" gen_3sat
    (fun (seed, nclauses) ->
      let nvars = 8 in
      let clauses = random_clauses seed nvars nclauses in
      let s = Solver.create () in
      for _ = 1 to nvars do ignore (Solver.new_var s) done;
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve s with
      | Solver.Unsat -> not (brute_force_sat nvars clauses)
      | Solver.Sat ->
        (* The reported model must satisfy every clause. *)
        List.for_all (List.exists (Solver.lit_true s)) clauses)

(* --- cnf --- *)

let gen_network =
  QCheck2.Gen.(
    map2
      (fun seed gates ->
        ( seed,
          Gen_comb.random
            (Lowpower.Rng.create seed)
            {
              Gen_comb.num_inputs = 6;
              num_gates = 8 + gates;
              max_fanin = 3;
              output_fraction = 0.2;
            } ))
      (int_bound 10_000) (int_bound 20))

let prop_cnf_matches_eval =
  prop ~count:60 "Tseitin encoding agrees with network evaluation" gen_network
    (fun (seed, net) ->
      let s = Solver.create () in
      let env = Cnf.add_network s net in
      let r = Lowpower.Rng.create (seed + 17) in
      List.for_all
        (fun _ ->
          let n = Array.length env.Cnf.inputs in
          let vec = Array.init n (fun _ -> Lowpower.Rng.bool r) in
          let assumptions =
            List.init n (fun k ->
                if vec.(k) then env.Cnf.inputs.(k)
                else Solver.negate env.Cnf.inputs.(k))
          in
          Solver.solve ~assumptions s = Solver.Sat
          && List.for_all
               (fun (nm, b) ->
                 Solver.lit_true s (Cnf.lit_of_output env nm) = b)
               (Network.eval_outputs net vec))
        (List.init 8 Fun.id))

(* --- cec --- *)

let test_cec_adder_chain () =
  (* Acceptance: 8-bit adder through Dontcare + Balance + decomposition
     stays equivalent, proven by SAT. *)
  let orig = (Circuits.ripple_adder 8).Circuits.net in
  let net = Network.copy orig in
  ignore (Dontcare.optimize ~verify:`Off net Dontcare.For_area);
  let net, _ = Balance.balance ~verify:`Off net in
  let net = Subject.decompose net in
  match Cec.check orig net with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ -> Alcotest.fail "synthesis chain changed the adder"

let test_cec_factor_roundtrip () =
  (* Factoring the two-level adder SOPs and rebuilding the network is an
     equivalence the extractor's own ~verify:`Sat discharges. *)
  let nvars = 6 in
  let adder = (Circuits.ripple_adder 3).Circuits.net in
  let man = Bdd.manager ~order:(Array.init nvars Fun.id) () in
  let functions =
    List.map
      (fun (nm, _) ->
        let cover =
          Cover.of_bdd nvars man (Network.output_bdd adder man nm)
        in
        (nm, Factor.sop_of_expr (Cover.to_expr (Cover.minimize cover))))
      (Network.outputs adder)
  in
  let ext = Factor.extract ~verify:`Sat Factor.Literals ~nvars functions in
  Alcotest.(check bool) "extraction verified and non-trivial" true
    (ext.Factor.nvars >= nvars)

let test_cec_precomputed_comparator () =
  (* The paper's Fig. 1: comparator corrected by MSB predictors equals the
     plain comparator — combinationally, g1 OR (NOT g0 AND f) = f. *)
  let width = 6 in
  let dp = Circuits.comparator width in
  let net = dp.Circuits.net in
  let keep =
    [ List.nth dp.Circuits.a_bits (width - 1);
      List.nth dp.Circuits.b_bits (width - 1) ]
  in
  let g1, g0 = Precompute.predictors net ~output:"out0" ~keep in
  let corrected = Network.copy net in
  let g1n = Network.add_node corrected g1 keep in
  let g0n = Network.add_node corrected g0 keep in
  let f = List.assoc "out0" (Network.outputs corrected) in
  let mux =
    Network.add_node corrected
      Expr.(var 0 ||| (not_ (var 1) &&& var 2))
      [ g1n; g0n; f ]
  in
  Network.set_output corrected "out0" mux;
  match Cec.check net corrected with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ -> Alcotest.fail "mux correction differs from plain"

let test_cec_mutant_counterexample () =
  (* Acceptance: a deliberately wrong gate yields a counterexample that
     provably disagrees, replayed through the event simulator. *)
  let a = (Circuits.ripple_adder 8).Circuits.net in
  let b = Network.copy a in
  let victim =
    List.find (fun i -> not (Network.is_input b i)) (List.rev (Network.topo_order b))
  in
  Network.replace_func b victim
    (Expr.not_ (Network.func b victim))
    (Network.fanins b victim);
  match Cec.check a b with
  | Cec.Equivalent -> Alcotest.fail "mutant not caught"
  | Cec.Counterexample vec ->
    Alcotest.(check bool) "replay confirms disagreement" true
      (Cec.replay a b vec);
    Alcotest.(check bool) "direct evaluation disagrees" true
      (List.sort compare (Network.eval_outputs a vec)
      <> List.sort compare (Network.eval_outputs b vec))

let test_cec_validation () =
  let a = (Circuits.ripple_adder 2).Circuits.net in
  let b = (Circuits.ripple_adder 4).Circuits.net in
  expect_invalid_arg "input count mismatch" (fun () -> Cec.check a b);
  let c = (Circuits.comparator 2).Circuits.net in
  expect_invalid_arg "output name mismatch" (fun () -> Cec.check a c)

let test_cec_satisfiable () =
  let net = (Circuits.ripple_adder 4).Circuits.net in
  let m = Cec.miter net net in
  Alcotest.(check bool) "self-miter constant false" true
    (Cec.satisfiable m "miter" = None);
  (match Cec.satisfiable net "out0" with
  | Some vec ->
    Alcotest.(check bool) "witness drives out0" true
      (List.assoc "out0" (Network.eval_outputs net vec))
  | None -> Alcotest.fail "adder sum bit is not constant false");
  expect_invalid_arg "unknown output" (fun () ->
      ignore (Cec.satisfiable net "nope"))

(* --- verify wiring --- *)

let test_verify_modes_on_passes () =
  let net = (Circuits.ripple_adder 4).Circuits.net in
  List.iter
    (fun mode ->
      let n = Network.copy net in
      ignore (Dontcare.optimize ~verify:mode n Dontcare.For_area);
      ignore (Balance.balance ~verify:mode n);
      ignore (Mapper.map ~verify:mode (Subject.decompose n) Mapper.Area))
    [ `Sat; `Off ]

(* LOWPOWER_VERIFY accepts exactly unset, "", "off" and "sat"; anything
   else (a typo, or the retired "bdd") must raise rather than quietly
   turn the safety net off.  The previous value is restored afterwards so
   a suite run under LOWPOWER_VERIFY=sat stays under it; an unset
   variable comes back as "", which also means off. *)
let test_verify_env_values () =
  let var = "LOWPOWER_VERIFY" in
  let previous = Option.value (Sys.getenv_opt var) ~default:"" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv var previous)
    (fun () ->
      List.iter
        (fun (v, expected) ->
          Unix.putenv var v;
          Alcotest.(check bool)
            (Printf.sprintf "%S accepted" v)
            true
            (Verify.default () = expected))
        [ ("", `Off); ("off", `Off); ("sat", `Sat) ];
      List.iter
        (fun v ->
          Unix.putenv var v;
          match Verify.default () with
          | _ -> Alcotest.failf "%S: expected Invalid_argument" v
          | exception Invalid_argument msg ->
            Alcotest.(check string)
              (Printf.sprintf "%S: message names the accepted values" v)
              (Printf.sprintf "LOWPOWER_VERIFY=%S: expected sat, off or empty"
                 v)
              msg)
        [ "bdd"; "1"; "SAT" ];
      (* Passes left at the default read the variable too. *)
      Unix.putenv var "bdd";
      expect_invalid_arg "pass under bdd" (fun () ->
          Balance.balance (Circuits.ripple_adder 2).Circuits.net))

let test_verify_guard_rejects_bad_guard () =
  (* out = a AND b: the gate is always observable, so guarding it with the
     constant-true condition must be rejected by verification. *)
  let net = Network.create () in
  let a = Network.add_input net and b = Network.add_input net in
  let g = Network.add_node net Expr.(var 0 &&& var 1) [ a; b ] in
  let o = Network.add_node net (Expr.var 0) [ g ] in
  Network.set_output net "o" o;
  (match Guard.apply ~verify:`Sat net ~root:g ~guard:Expr.tru with
  | _ -> Alcotest.fail "observable root accepted under guard = true"
  | exception Verify.Failed _ -> ());
  (* The constant-false guard never freezes anything: always safe. *)
  ignore (Guard.apply ~verify:`Sat net ~root:g ~guard:Expr.fls)

let test_verify_guard_accepts_odc_guard () =
  let net, _sel = Circuits.mux_compare 4 in
  let z = List.assoc "z" (Network.outputs net) in
  let root =
    match Network.fanins net z with
    | [ _; _; e ] -> e
    | _ -> Alcotest.fail "unexpected mux shape"
  in
  match Guard.auto ~verify:`Sat net ~root with
  | Some g -> Alcotest.(check bool) "latches inserted" true (g.Guard.latch_count > 0)
  | None -> Alcotest.fail "mux-selected block has no ODC"

let test_verify_precompute () =
  let dp = Circuits.comparator 5 in
  let keep =
    [ List.nth dp.Circuits.a_bits 4; List.nth dp.Circuits.b_bits 4 ]
  in
  ignore (Precompute.build ~verify:`Sat dp.Circuits.net ~output:"out0" ~keep ())

(* --- modern-solver upgrades --- *)

let test_preprocessing_counters () =
  (* Equivalence chain x0 <-> x1 <-> ... <-> x19 with only the endpoints
     frozen: bounded variable elimination must remove interior variables,
     and the extended model must still respect the chain. *)
  let s = Solver.create () in
  let v = Array.init 20 (fun _ -> Solver.new_var s) in
  for i = 0 to 18 do
    Solver.add_clause s [ Solver.neg v.(i); Solver.pos v.(i + 1) ];
    Solver.add_clause s [ Solver.pos v.(i); Solver.neg v.(i + 1) ]
  done;
  Solver.freeze s v.(0);
  Solver.freeze s v.(19);
  Alcotest.(check bool) "chain sat" true
    (Solver.solve ~assumptions:[ Solver.pos v.(0) ] s = Solver.Sat);
  let st = Solver.stats s in
  Alcotest.(check bool) "interior variables eliminated" true
    (st.Solver.eliminated_vars > 0);
  Alcotest.(check bool) "extended model respects the chain" true
    (Array.for_all (fun x -> Solver.value s x) v);
  (* A later clause on an eliminated variable transparently restores it. *)
  Solver.add_clause s [ Solver.neg v.(10) ];
  Alcotest.(check bool) "unsat after pinning an interior var low" true
    (Solver.solve ~assumptions:[ Solver.pos v.(0) ] s = Solver.Unsat);
  Alcotest.(check bool) "sat with the chain driven low" true
    (Solver.solve ~assumptions:[ Solver.neg v.(0) ] s = Solver.Sat)

let test_subsumption_counters () =
  let s = Solver.create () in
  let a = Solver.new_var s
  and b = Solver.new_var s
  and c = Solver.new_var s
  and d = Solver.new_var s in
  List.iter (Solver.freeze s) [ a; b; c; d ];
  (* [a b] subsumes [a b c]; [a b] self-subsumes [~a b d] down to [b d]. *)
  Solver.add_clause s [ Solver.pos a; Solver.pos b ];
  Solver.add_clause s [ Solver.pos a; Solver.pos b; Solver.pos c ];
  Solver.add_clause s [ Solver.neg a; Solver.pos b; Solver.pos d ];
  Solver.preprocess s;
  let st = Solver.stats s in
  Alcotest.(check bool) "subsumption fired" true (st.Solver.subsumed_clauses > 0);
  Alcotest.(check bool) "self-subsumption fired" true
    (st.Solver.strengthened_clauses > 0);
  Alcotest.(check bool) "still satisfiable" true (Solver.solve s = Solver.Sat)

let test_clause_db_reduction () =
  (* PHP(8,7) generates thousands of conflicts: the LBD-driven reduction
     must fire and actually delete learned clauses. *)
  let s = Solver.create () in
  php s 8 7;
  Alcotest.(check bool) "PHP(8,7) unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check bool) "reductions ran" true (st.Solver.db_reductions > 0);
  Alcotest.(check bool) "learned clauses deleted" true
    (st.Solver.removed_learned > 0);
  Alcotest.(check bool) "restarts happened" true (st.Solver.restarts > 0)

(* Satellite: N sequential solve-under-assumptions calls on one solver
   agree with N fresh one-shot solvers, across interleaved SAT/UNSAT
   verdicts, while the clause database (and its learned clauses) persists. *)
let prop_incremental_vs_oneshot =
  prop ~count:100 "incremental assumptions agree with fresh one-shot solvers"
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let r = Lowpower.Rng.create (seed + 3) in
      let nvars = 7 in
      let s = Solver.create () in
      for _ = 1 to nvars do ignore (Solver.new_var s) done;
      let clauses = ref [] in
      let prev_conflicts = ref 0 in
      List.for_all
        (fun _round ->
          List.iter
            (fun c ->
              clauses := c :: !clauses;
              Solver.add_clause s c)
            (List.init
               (1 + Lowpower.Rng.int r 5)
               (fun _ ->
                 List.init 3 (fun _ ->
                     let v = Lowpower.Rng.int r nvars in
                     if Lowpower.Rng.bool r then Solver.pos v else Solver.neg v)));
          let assumptions =
            List.init (Lowpower.Rng.int r 3) (fun _ ->
                let v = Lowpower.Rng.int r nvars in
                if Lowpower.Rng.bool r then Solver.pos v else Solver.neg v)
          in
          let incr = Solver.solve ~assumptions s in
          let fresh = Solver.create () in
          for _ = 1 to nvars do ignore (Solver.new_var fresh) done;
          List.iter (Solver.add_clause fresh) !clauses;
          let oneshot = Solver.solve ~assumptions fresh in
          let st = Solver.stats s in
          let monotone = st.Solver.conflicts >= !prev_conflicts in
          prev_conflicts := st.Solver.conflicts;
          incr = oneshot && monotone
          &&
          match incr with
          | Solver.Unsat -> true
          | Solver.Sat ->
            List.for_all (Solver.lit_true s) assumptions
            && List.for_all (List.exists (Solver.lit_true s)) !clauses)
        (List.init 6 Fun.id))

(* [~rounds:0] skips the simulation filter, so the solver itself must
   find the mutant's counterexample. *)
let test_cec_sat_phase () =
  let a = (Circuits.ripple_adder 6).Circuits.net in
  let b = Network.copy a in
  ignore (Dontcare.optimize ~verify:`Off b Dontcare.For_area);
  let b, _ = Balance.balance ~verify:`Off b in
  let stats_seen = ref false in
  (match Cec.check ~on_stats:(fun _ -> stats_seen := true) a b with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ -> Alcotest.fail "refuted an equivalence");
  Alcotest.(check bool) "on_stats delivered" true !stats_seen;
  let m = Network.copy a in
  let victim =
    List.find (fun i -> not (Network.is_input m i)) (List.rev (Network.topo_order m))
  in
  Network.replace_func m victim
    (Expr.not_ (Network.func m victim))
    (Network.fanins m victim);
  match Cec.check ~rounds:0 a m with
  | Cec.Equivalent -> Alcotest.fail "SAT missed a mutant"
  | Cec.Counterexample vec ->
    Alcotest.(check bool) "SAT counterexample replays" true
      (Cec.replay a m vec)

(* --- incremental sessions --- *)

let test_cec_session_basic () =
  let base = (Circuits.ripple_adder 8).Circuits.net in
  let sess = Cec.session base in
  (* Equivalence against a synthesized derivative, twice: the second call
     rides on the first call's learned clauses in the same solver. *)
  let derived = Network.copy base in
  ignore (Dontcare.optimize ~verify:`Off derived Dontcare.For_area);
  let derived, _ = Balance.balance ~verify:`Off derived in
  (match Cec.session_check sess derived with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ -> Alcotest.fail "session refuted an equivalence");
  let c1 = (Cec.session_stats sess).Solver.conflicts in
  (match Cec.session_check sess (Network.copy base) with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ -> Alcotest.fail "session refuted a copy");
  Alcotest.(check bool) "one live solver accumulates work" true
    ((Cec.session_stats sess).Solver.conflicts >= c1);
  (* A mutant still yields a replay-confirmed counterexample. *)
  let m = Network.copy base in
  let victim =
    List.find (fun i -> not (Network.is_input m i)) (List.rev (Network.topo_order m))
  in
  Network.replace_func m victim
    (Expr.not_ (Network.func m victim))
    (Network.fanins m victim);
  (match Cec.session_check sess m with
  | Cec.Equivalent -> Alcotest.fail "session missed a mutant"
  | Cec.Counterexample vec ->
    Alcotest.(check bool) "session counterexample is genuine" true
      (List.sort compare (Network.eval_outputs base vec)
      <> List.sort compare (Network.eval_outputs m vec)));
  (* And the session is not poisoned by the retired mutant check. *)
  (match Cec.session_check sess (Network.copy base) with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ -> Alcotest.fail "retired obligation leaked");
  (* Handles: encode once, recheck repeatedly, retire explicitly. *)
  let h = Cec.session_encode sess derived in
  Alcotest.(check bool) "recheck #1" true
    (Cec.session_recheck sess h = Cec.Equivalent);
  Alcotest.(check bool) "recheck #2 (warm)" true
    (Cec.session_recheck sess h = Cec.Equivalent);
  Cec.session_retire sess h;
  Cec.session_retire sess h;
  expect_invalid_arg "recheck after retire" (fun () ->
      Cec.session_recheck sess h)

(* Acceptance: incremental sessions and the one-shot oracle return
   identical verdicts across 150+ random synthesized nets.  Each net is
   checked in one session against several restructurings — don't-care
   simplification plus balancing, subject-graph decomposition, a mapped
   netlist and plain balancing — each one-node-mutated a third of the
   time, so the sweep meets both merges and refutations. *)
let prop_session_agrees_with_oneshot =
  prop ~count:150 "Cec session verdicts equal one-shot verdicts"
    QCheck2.Gen.(
      map2
        (fun seed gates ->
          ( seed,
            Gen_comb.random
              (Lowpower.Rng.create seed)
              {
                Gen_comb.num_inputs = 6;
                num_gates = 8 + gates;
                max_fanin = 3;
                output_fraction = 0.25;
              } ))
        (int_bound 100_000) (int_bound 16))
    (fun (seed, net) ->
      let r = Lowpower.Rng.create (seed + 41) in
      let mutate derived =
        if Lowpower.Rng.int r 3 = 0 then begin
          let logic =
            List.filter
              (fun i -> not (Network.is_input derived i))
              (Network.node_ids derived)
          in
          let victim = List.nth logic (Lowpower.Rng.int r (List.length logic)) in
          Network.replace_func derived victim
            (Expr.not_ (Network.func derived victim))
            (Network.fanins derived victim)
        end;
        derived
      in
      let optimized () =
        let derived = Network.copy net in
        ignore (Dontcare.optimize ~verify:`Off derived Dontcare.For_area);
        fst (Balance.balance ~verify:`Off derived)
      in
      let decomposed () = Subject.decompose (Network.copy net) in
      let mapped () =
        Mapper.netlist (Mapper.map ~verify:`Off (decomposed ()) Mapper.Area)
      in
      let balanced () = fst (Balance.balance ~verify:`Off (Network.copy net)) in
      let sess = Cec.session net in
      List.for_all
        (fun build ->
          match build () with
          (* A constant node has no subject graph. *)
          | exception Invalid_argument _ -> true
          | derived ->
            let derived = mutate derived in
            let oneshot =
              match Cec.check ~seed:(seed + 31) net derived with
              | Cec.Equivalent -> true
              | Cec.Counterexample _ -> false
            in
            let incremental =
              match Cec.session_check sess derived with
              | Cec.Equivalent -> true
              | Cec.Counterexample vec ->
                if
                  List.sort compare (Network.eval_outputs net vec)
                  = List.sort compare (Network.eval_outputs derived vec)
                then Alcotest.fail "session returned a bogus counterexample"
                else false
            in
            incremental = oneshot)
        [ optimized; decomposed; mapped; balanced ])

(* Two base nodes that agree on every sweep vector but not everywhere:
   a 16-input AND is 1 on one vector in 65,536, so on the sweep's 252
   random vectors its signature is constant 0.  A candidate that swaps
   one for the other must be refuted by SAT, not merged. *)
let test_cec_session_aliasing () =
  let base = Network.create () in
  let ins = List.init 16 (fun _ -> Network.add_input base) in
  let all =
    Network.add_node base (Expr.and_list (List.init 16 Expr.var)) ins
  in
  let zero = Network.add_node base Expr.fls [] in
  Network.set_output base "all" all;
  Network.set_output base "zero" zero;
  let refuted what cand =
    let sess = Cec.session base in
    match Cec.session_check sess cand with
    | Cec.Equivalent -> Alcotest.failf "%s: aliased nodes merged" what
    | Cec.Counterexample vec ->
      Alcotest.(check bool) (what ^ ": counterexample replays") true
        (Cec.replay base cand vec);
      Alcotest.(check bool) (what ^ ": decided by SAT, not simulation") true
        ((Cec.session_stats sess).Solver.propagations > 0)
  in
  let swapped = Network.copy base in
  Network.set_output swapped "all" zero;
  refuted "output swapped to the constant" swapped;
  (* A new node with the same all-zero signature earns a local proof
     against a base node, which SAT refutes. *)
  let near = Network.copy base in
  let x15 = List.nth ins 15 in
  let almost =
    Network.add_node near
      Expr.(and_list (List.init 15 var) &&& not_ (var 15))
      (List.filter (fun i -> i <> x15) ins @ [ x15 ])
  in
  Network.set_output near "all" almost;
  refuted "new node aliasing the AND" near

(* An unchanged copy lands on the base encoding node for node — own ids
   first, so duplicated base nodes too — and costs the solver nothing. *)
let test_cec_session_copy_is_free () =
  let dup = Network.create () in
  let a = Network.add_input dup and b = Network.add_input dup in
  let g1 = Network.add_node dup Expr.(var 0 &&& var 1) [ a; b ] in
  let g2 = Network.add_node dup Expr.(var 0 &&& var 1) [ a; b ] in
  Network.set_output dup "x" g1;
  Network.set_output dup "y" (Network.add_node dup Expr.(not_ (var 0)) [ g2 ]);
  List.iter
    (fun (what, base) ->
      let sess = Cec.session base in
      let twice () =
        let before = Cec.session_stats sess in
        Alcotest.(check bool) (what ^ ": copy equivalent") true
          (Cec.session_check sess (Network.copy base) = Cec.Equivalent);
        let after = Cec.session_stats sess in
        Alcotest.(check int) (what ^ ": no conflicts") before.Solver.conflicts
          after.Solver.conflicts;
        Alcotest.(check int) (what ^ ": no decisions") before.Solver.decisions
          after.Solver.decisions
      in
      twice ();
      (* Still free on a warm session, after a restructured candidate. *)
      ignore (Cec.session_check sess (Subject.decompose (Network.copy base)));
      twice ())
    [
      ("mult5", (Circuits.array_multiplier 5).Circuits.net);
      ("cla8", (Circuits.carry_lookahead_adder 8).Circuits.net);
      ("duplicated nodes", dup);
    ]

(* Satellite: on random networks, SAT-based CEC agrees with the BDD oracle
   whenever the BDDs stay under a node cap (they always do at this size). *)
let prop_cec_agrees_with_bdd =
  prop ~count:150 "Cec.check agrees with BDD equivalence on random nets"
    QCheck2.Gen.(
      map2
        (fun seed gates ->
          ( seed,
            Gen_comb.random
              (Lowpower.Rng.create seed)
              {
                Gen_comb.num_inputs = 6;
                num_gates = 8 + gates;
                max_fanin = 3;
                output_fraction = 0.25;
              } ))
        (int_bound 100_000) (int_bound 16))
    (fun (seed, net) ->
      let r = Lowpower.Rng.create (seed + 23) in
      (* A pass that preserves behaviour... *)
      let derived = Network.copy net in
      ignore (Dontcare.optimize ~verify:`Off derived Dontcare.For_area);
      let derived, _ = Balance.balance ~verify:`Off derived in
      (* ...every fourth round sabotaged to exercise the inequivalent
         branch (a mutation may still be behaviour-preserving if it hits
         dead or redundant logic — the BDD oracle is the referee). *)
      if Lowpower.Rng.int r 4 = 0 then begin
        let logic =
          List.filter
            (fun i -> not (Network.is_input derived i))
            (Network.node_ids derived)
        in
        let victim = List.nth logic (Lowpower.Rng.int r (List.length logic)) in
        Network.replace_func derived victim
          (Expr.not_ (Network.func derived victim))
          (Network.fanins derived victim)
      end;
      let cec_equal =
        match Cec.check ~seed:(seed + 31) net derived with
        | Cec.Equivalent -> true
        | Cec.Counterexample vec ->
          (* A counterexample must be genuine regardless of the oracle. *)
          if
            List.sort compare (Network.eval_outputs net vec)
            = List.sort compare (Network.eval_outputs derived vec)
          then Alcotest.fail "Cec returned a bogus counterexample"
          else false
      in
      let bdd_equal =
        let man = Bdd.manager () in
        let res =
          List.for_all
            (fun (nm, _) ->
              Bdd.equal
                (Network.output_bdd net man nm)
                (Network.output_bdd derived man nm))
            (Network.outputs net)
        in
        if Bdd.node_count man > 200_000 then None else Some res
      in
      match bdd_equal with None -> true | Some b -> b = cec_equal)

let suite =
  [
    quick "solver basic + incremental" test_solver_basic;
    quick "solver implication chain under assumptions" test_solver_implication_chain;
    quick "solver pigeonhole + stats" test_solver_pigeonhole;
    prop_solver_vs_brute_force;
    prop_cnf_matches_eval;
    quick "cec adder8 synthesis chain" test_cec_adder_chain;
    quick "cec factored adder SOPs" test_cec_factor_roundtrip;
    quick "cec precomputed comparator vs plain" test_cec_precomputed_comparator;
    quick "cec mutant counterexample replays" test_cec_mutant_counterexample;
    quick "cec interface validation" test_cec_validation;
    quick "cec satisfiable" test_cec_satisfiable;
    quick "verify modes run on passes" test_verify_modes_on_passes;
    quick "verify rejects unknown LOWPOWER_VERIFY values"
      test_verify_env_values;
    quick "verify rejects unsound guard" test_verify_guard_rejects_bad_guard;
    quick "verify accepts ODC guard" test_verify_guard_accepts_odc_guard;
    quick "verify precompute obligations" test_verify_precompute;
    quick "preprocessing eliminates and extends models" test_preprocessing_counters;
    quick "subsumption and self-subsumption counters" test_subsumption_counters;
    quick "LBD clause-db reduction fires" test_clause_db_reduction;
    prop_incremental_vs_oneshot;
    quick "cec SAT phase: stats + refutation" test_cec_sat_phase;
    quick "cec session basic lifecycle" test_cec_session_basic;
    prop_session_agrees_with_oneshot;
    quick "cec session refutes simulation aliases" test_cec_session_aliasing;
    quick "cec session copy costs no search" test_cec_session_copy_is_free;
    prop_cec_agrees_with_bdd;
  ]
