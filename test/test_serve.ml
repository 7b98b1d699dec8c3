(* Batch service: work-stealing pool, content-hash memo, tournaments. *)

open Test_util

let mk_net seed =
  Gen_comb.random (Lowpower.Rng.create seed)
    { Gen_comb.num_inputs = 6; num_gates = 18; max_fanin = 3;
      output_fraction = 0.25 }

(* --- Pool --- *)

let test_pool_basic () =
  let xs = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) xs in
  List.iter
    (fun domains ->
      let r, st = Pool.map ~domains (fun i -> i * i) xs in
      Alcotest.(check (array int)) "results in job order" expected r;
      Alcotest.(check int) "all jobs executed" 100
        (Array.fold_left ( + ) 0 st.Pool.executed);
      Alcotest.(check int) "jobs counted" 100 st.Pool.jobs)
    [ 1; 2; 3 ]

let test_pool_determinism () =
  (* Heterogeneous job costs force stealing; results must not care. *)
  let xs = Array.init 64 (fun i -> i) in
  let job i =
    let rounds = if i mod 7 = 0 then 20000 else 100 in
    let acc = ref i in
    for _ = 1 to rounds do
      acc := (!acc * 31) + 1
    done;
    !acc
  in
  let serial, _ = Pool.map ~domains:1 job xs in
  List.iter
    (fun domains ->
      let r, _ = Pool.map ~domains job xs in
      Alcotest.(check (array int))
        (Printf.sprintf "%d domains match serial" domains)
        serial r)
    [ 2; 4 ]

let test_pool_clamp_and_empty () =
  let r, st = Pool.map ~domains:8 (fun i -> i + 1) [| 1; 2 |] in
  Alcotest.(check (array int)) "clamped still correct" [| 2; 3 |] r;
  Alcotest.(check bool) "domains clamped to jobs" true (st.Pool.domains <= 2);
  let r, st = Pool.map ~domains:3 (fun i -> i) [||] in
  Alcotest.(check (array int)) "empty batch" [||] r;
  Alcotest.(check int) "no jobs" 0 st.Pool.jobs

exception Boom

let test_pool_exception () =
  match
    Pool.map ~domains:2 (fun i -> if i = 17 then raise Boom else i)
      (Array.init 40 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected the job exception to propagate"
  | exception Boom -> ()

(* --- Memo --- *)

let test_memo_cec () =
  let m = Memo.create () in
  let net = mk_net 13 in
  let decomposed = Subject.decompose (Network.copy net) in
  let v1 = Memo.check m net decomposed in
  let v2 = Memo.check m (Network.copy net) (Network.copy decomposed) in
  Alcotest.(check bool) "verdict equivalent" true (v1 = Cec.Equivalent);
  Alcotest.(check bool) "verdict hit = cold recompute" true
    (v2 = Cec.check net decomposed);
  let s = Memo.stats m in
  Alcotest.(check int) "one cec miss" 1 s.Memo.misses;
  Alcotest.(check int) "one cec hit" 1 s.Memo.hits

(* The session prover and [Cec.check] find different counterexamples for
   the same refuted pair; sharing one key must not let whichever ran
   first decide what the other returns (on a multi-domain pool that
   would be scheduling deciding a batch digest). *)
let test_memo_cec_prover_order () =
  let net = mk_net 13 in
  let mutant = Network.copy net in
  let victim =
    List.find
      (fun i -> not (Network.is_input mutant i))
      (List.rev (Network.topo_order mutant))
  in
  Network.replace_func mutant victim
    (Expr.not_ (Network.func mutant victim))
    (Network.fanins mutant victim);
  let session () =
    let sess = Cec.session net in
    Cec.session_check sess mutant
  in
  let fresh_session = session () in
  let fresh_check = Cec.check net mutant in
  Alcotest.(check bool) "mutant refuted" true (fresh_check <> Cec.Equivalent);
  let m = Memo.create () in
  Alcotest.(check bool) "session first: fresh session verdict" true
    (Memo.check_with m net mutant session = fresh_session);
  Alcotest.(check bool) "then check: fresh check verdict" true
    (Memo.check m net mutant = fresh_check);
  let m = Memo.create () in
  Alcotest.(check bool) "check first: fresh check verdict" true
    (Memo.check m net mutant = fresh_check);
  Alcotest.(check bool) "then session: fresh session verdict" true
    (Memo.check_with m net mutant session = fresh_session)

(* A prover that gives up, as a conflict-capped session check does with
   [Solver.Interrupted], leaves no verdict behind: the exception reaches
   the caller and the next check of the pair runs its prover again. *)
let test_memo_cec_prover_raises () =
  let m = Memo.create () in
  let net = mk_net 13 in
  let decomposed = Subject.decompose (Network.copy net) in
  (match
     Memo.check_with m net decomposed (fun () -> raise Solver.Interrupted)
   with
  | _ -> Alcotest.fail "prover exception swallowed"
  | exception Solver.Interrupted -> ());
  Alcotest.(check int) "nothing cached" 0 (Memo.stats m).Memo.entries;
  let ran = ref false in
  let v =
    Memo.check_with m net decomposed (fun () ->
        ran := true;
        Cec.check net decomposed)
  in
  Alcotest.(check bool) "retry ran its prover" true !ran;
  Alcotest.(check bool) "retry proved" true (v = Cec.Equivalent);
  Alcotest.(check int) "proof cached" 1 (Memo.stats m).Memo.entries

let test_memo_eviction () =
  let m = Memo.create ~capacity:4 () in
  for seed = 1 to 12 do
    let net = mk_net (100 + seed) in
    ignore (Memo.check m net (Network.copy net))
  done;
  let s = Memo.stats m in
  Alcotest.(check bool) "evictions happened" true (s.Memo.evictions > 0);
  Alcotest.(check bool) "bounded residency" true (s.Memo.entries <= 4);
  Alcotest.(check int) "all cold" 12 s.Memo.misses

(* --- Tournament --- *)

let test_tournament_champion_verified () =
  let net = mk_net 21 in
  let p = Tournament.run ~name:"t21" net in
  let champ =
    List.find
      (fun c -> c.Tournament.c_strategy = p.Tournament.champion)
      p.Tournament.candidates
  in
  Alcotest.(check bool) "champion verified" true
    (champ.Tournament.c_verdict = Tournament.Verified);
  Alcotest.(check bool) "margin nonnegative" true (p.Tournament.margin >= 0.0);
  Alcotest.(check bool) "champion equivalent to source" true
    (networks_equivalent net p.Tournament.champion_net);
  Alcotest.(check bool) "sat effort recorded" true
    (p.Tournament.sat.Solver.decisions >= 0
    && p.Tournament.sat.Solver.vars > 0)

(* The default rosters race only entries that can win; a roster change
   moves every batch digest's margin, so the names are pinned. *)
let test_tournament_default_rosters () =
  let net = mk_net 25 in
  let names roster = List.map (fun s -> s.Tournament.s_name) roster in
  let raced p = List.map (fun c -> c.Tournament.c_strategy) p.Tournament.candidates in
  let estimated = [ "source"; "dontcare-area"; "dontcare-power" ] in
  let trace =
    Stimulus.random (Lowpower.Rng.create 9)
      ~width:(List.length (Network.inputs net))
      ~length:64 ()
  in
  Alcotest.(check (list string)) "roster without a trace" estimated
    (names (Tournament.default_strategies net));
  Alcotest.(check (list string)) "roster with a trace"
    (estimated @ [ "measured" ])
    (names (Tournament.default_strategies ~trace net));
  Alcotest.(check (list string)) "run races the roster in order" estimated
    (raced (Tournament.run net));
  Alcotest.(check (list string)) "traced run races measured last"
    (estimated @ [ "measured" ])
    (raced (Tournament.run ~trace net))

let test_tournament_rejects_broken_strategy () =
  let net = mk_net 22 in
  let break_one n =
    let id =
      List.find (fun i -> not (Network.is_input n i)) (List.rev (Network.topo_order n))
    in
    Network.replace_func n id (Expr.not_ (Network.func n id)) (Network.fanins n id);
    n
  in
  let roster =
    [
      { Tournament.s_name = "source"; transform = (fun n -> n) };
      (* Miscompiles, and would win on score if promoted unverified. *)
      {
        Tournament.s_name = "evil";
        transform =
          (fun n ->
            let n = break_one n in
            List.iter (fun i -> Network.set_cap n i 0.0) (Network.node_ids n);
            n);
      };
      {
        Tournament.s_name = "crashy";
        transform = (fun _ -> failwith "strategy exploded");
      };
    ]
  in
  let p = Tournament.run ~strategies:roster net in
  Alcotest.(check string) "broken strategies never promoted" "source"
    p.Tournament.champion;
  let verdict name =
    (List.find (fun c -> c.Tournament.c_strategy = name) p.Tournament.candidates)
      .Tournament.c_verdict
  in
  (match verdict "evil" with
  | Tournament.Refuted cex ->
    Alcotest.(check bool) "counterexample replays" false
      (Network.eval_outputs net cex
      = Network.eval_outputs (break_one (Network.copy net)) cex)
  | _ -> Alcotest.fail "evil strategy should be refuted with a witness");
  match verdict "crashy" with
  | Tournament.Failed _ -> ()
  | _ -> Alcotest.fail "raising strategy should be recorded as Failed"

let test_tournament_trace_scoring () =
  let net = mk_net 23 in
  let trace =
    Stimulus.random (Lowpower.Rng.create 5)
      ~width:(List.length (Network.inputs net))
      ~length:189 ()
  in
  let p = Tournament.run ~trace net in
  let champ =
    List.find
      (fun c -> c.Tournament.c_strategy = p.Tournament.champion)
      p.Tournament.candidates
  in
  Alcotest.(check bool) "measured champion verified" true
    (champ.Tournament.c_verdict = Tournament.Verified);
  Alcotest.(check bool) "measured scores finite" true
    (Float.is_finite p.Tournament.champion_score)

let test_tournament_measured_strategy () =
  (* With a trace the default roster gains the measured resynthesis
     strategy; it must be raced, verified, and never beat the champion. *)
  let net = mk_net 29 in
  let trace =
    Traces.correlated_walk (Lowpower.Rng.create 31)
      ~bits:(List.length (Network.inputs net))
      ~n:189 ()
  in
  let p = Tournament.run ~trace net in
  let measured =
    List.find_opt
      (fun c -> c.Tournament.c_strategy = "measured")
      p.Tournament.candidates
  in
  (match measured with
  | None -> Alcotest.fail "measured strategy missing from trace roster"
  | Some c ->
    Alcotest.(check bool) "measured candidate verified" true
      (c.Tournament.c_verdict = Tournament.Verified);
    Alcotest.(check bool) "champion at least as good" true
      (p.Tournament.champion_score <= c.Tournament.score));
  (* Without a trace the strategy must not appear. *)
  let q = Tournament.run net in
  Alcotest.(check bool) "no measured strategy without a trace" true
    (List.for_all
       (fun c -> c.Tournament.c_strategy <> "measured")
       q.Tournament.candidates)

let test_tournament_memo_transparent () =
  (* Same tournament with and without a shared cache: identical verdicts
     and scores (cache hits must be invisible). *)
  let summary p =
    List.map
      (fun c ->
        ( c.Tournament.c_strategy,
          c.Tournament.score,
          match c.Tournament.c_verdict with
          | Tournament.Verified -> "v"
          | Tournament.Refuted _ -> "r"
          | Tournament.Failed _ -> "f" ))
      p.Tournament.candidates
  in
  let net = mk_net 24 in
  let memo = Memo.create () in
  let cold = Tournament.run ~memo net in
  let warm = Tournament.run ~memo net in
  let plain = Tournament.run net in
  Alcotest.(check bool) "memo-warm = memo-cold" true
    (summary cold = summary warm);
  Alcotest.(check bool) "memo = no memo" true (summary cold = summary plain);
  Alcotest.(check string) "same champion" plain.Tournament.champion
    warm.Tournament.champion;
  Alcotest.(check bool) "warm run hit the cache" true
    ((Memo.stats memo).Memo.hits > 0)

let test_fsm_tournament () =
  let stg = Gen_fsm.counter ~bits:3 in
  let p = Tournament.run_fsm stg in
  let champ =
    List.find
      (fun c -> c.Tournament.encoding = p.Tournament.fsm_champion)
      p.Tournament.encodings
  in
  Alcotest.(check bool) "fsm champion passes the exact check" true
    champ.Tournament.verified;
  Alcotest.(check bool) "fsm margin nonnegative" true
    (p.Tournament.fsm_margin >= 0.0);
  Alcotest.(check (list string)) "full roster recorded"
    [ "binary"; "gray"; "low-power" ]
    (List.map (fun c -> c.Tournament.encoding) p.Tournament.encodings);
  Alcotest.(check bool) "champion capacitance finite" true
    (Float.is_finite p.Tournament.champion_capacitance)

(* --- Batch --- *)

let batch_digest report =
  Array.to_list
    (Array.map
       (fun (label, o) -> label ^ " " ^ Batch.summarize o)
       report.Batch.results)

let test_batch_determinism () =
  let jobs = Batch.mixed_workload ~seed:7 ~n:40 () in
  let serial = Batch.run ~domains:1 jobs in
  let parallel = Batch.run ~domains:3 jobs in
  Alcotest.(check (list string)) "1 vs 3 domains identical results"
    (batch_digest serial) (batch_digest parallel);
  Alcotest.(check int) "tournaments all verified"
    parallel.Batch.tournaments parallel.Batch.champions_verified

(* Estimate jobs report each output's exact probability in declaration
   order: the same floats as a per-output BDD built in its own manager. *)
let test_batch_estimate_probabilities () =
  let jobs =
    Array.init 6 (fun k ->
        let net = mk_net (40 + k) in
        let input_probs =
          Array.init (List.length (Network.inputs net)) (fun i ->
              0.1 +. (0.13 *. float_of_int ((i + k) mod 7)))
        in
        Batch.Estimate { label = string_of_int k; net; input_probs })
  in
  let report = Batch.run ~domains:1 jobs in
  Array.iteri
    (fun k job ->
      match (job, snd report.Batch.results.(k)) with
      | Batch.Estimate { net; input_probs; _ }, Batch.Estimated { probs; _ } ->
        Alcotest.(check (list string)) "outputs in declaration order"
          (List.map fst (Network.outputs net))
          (List.map fst (Array.to_list probs));
        Array.iter
          (fun (name, p) ->
            let man = Bdd.manager () in
            let bdd = Network.output_bdd net man name in
            let cold = Bdd.probability man (fun v -> input_probs.(v)) bdd in
            if cold <> p then
              Alcotest.failf "output %s: %h, cold BDD %h" name p cold)
          probs
      | _ -> Alcotest.fail "estimate job did not report probabilities")
    jobs

let test_batch_memo_traffic () =
  let jobs = Batch.mixed_workload ~seed:3 ~n:40 () in
  let report = Batch.run ~domains:2 jobs in
  Alcotest.(check bool) "duplicated circuits hit the cache" true
    (report.Batch.memo.Memo.hits > 0);
  Alcotest.(check bool) "sat effort aggregated over tournaments" true
    (report.Batch.tournaments = 0
    || report.Batch.sat.Solver.vars > 0);
  Alcotest.(check int) "jobs preserved" 40 (Array.length report.Batch.results)

(* --- Solver stats aggregation --- *)

let test_sum_stats () =
  let s = Solver.empty_stats in
  Alcotest.(check int) "empty is zero" 0 s.Solver.conflicts;
  let a = { s with Solver.decisions = 3; conflicts = 1; vars = 10 } in
  let b = { s with Solver.decisions = 4; conflicts = 2; vars = 7 } in
  let c = Solver.sum_stats a b in
  Alcotest.(check int) "decisions add" 7 c.Solver.decisions;
  Alcotest.(check int) "conflicts add" 3 c.Solver.conflicts;
  Alcotest.(check int) "vars add" 17 c.Solver.vars;
  Alcotest.(check bool) "empty is left unit" true (Solver.sum_stats s a = a)

let suite =
  [
    quick "pool basic map" test_pool_basic;
    quick "pool determinism 1 vs N domains" test_pool_determinism;
    quick "pool clamping and empty batch" test_pool_clamp_and_empty;
    quick "pool exception propagation" test_pool_exception;
    quick "memo cec verdicts" test_memo_cec;
    quick "memo cec verdict independent of prover order" test_memo_cec_prover_order;
    quick "memo cec prover exception caches nothing" test_memo_cec_prover_raises;
    quick "memo lru eviction" test_memo_eviction;
    quick "tournament champion verified" test_tournament_champion_verified;
    quick "tournament default rosters" test_tournament_default_rosters;
    quick "tournament rejects broken strategy"
      test_tournament_rejects_broken_strategy;
    quick "tournament trace scoring" test_tournament_trace_scoring;
    quick "tournament measured strategy" test_tournament_measured_strategy;
    quick "tournament memo transparency" test_tournament_memo_transparent;
    quick "fsm encoding tournament" test_fsm_tournament;
    quick "batch determinism across domains" test_batch_determinism;
    quick "batch estimate probabilities equal per-output BDDs"
      test_batch_estimate_probabilities;
    quick "batch memo traffic" test_batch_memo_traffic;
    quick "solver stats aggregation" test_sum_stats;
  ]
