(* Deterministic greedy rewrite search.  Each step enumerates every
   (rule, site) application to the current graph, costs the candidates
   (graphs seen before pruned by [Dfg.structural_hash]), and
   moves to the cheapest one that passes the two-stage equivalence gate:
   [Transform.equivalent] random execution first (the cheap filter), then
   [Cec.session_check] against a session on the current graph's
   elaboration, opened lazily once per step.  Proofs are relative to the
   current graph — itself proven, so transitivity closes the chain back
   to the original — and the session's SAT sweep merges every cone the
   one new rewrite did not touch, so only the rewritten logic reaches the
   solver however deep the search runs.  A candidate failing either stage
   is recorded as refuted and never applied. *)

type refutation = {
  rule : string;
  site : Dfg.id;
  stage : [ `Random_exec | `Sat ];
}

type step = {
  rule : string;
  site : Dfg.id;
  cost_before : float;
  cost_after : float;
}

type result = {
  final : Dfg.t;
  initial_cost : float;
  final_cost : float;
  steps : step list;
  refuted : refutation list;
  candidates : int;
  proofs : int;
  undecided : int;
  sat : Solver.stats;
  model : Cost.model;
}

(* The search stops after this many steps in a row that do not improve
   the best cost. *)
let patience = 2

(* Conflicts each output-miter solve may spend before its candidate is
   skipped. *)
let sat_budget = 60_000

type state = { g : Dfg.t; c : float; trail : step list (* reversed *) }

let run ?(rules = Rules.all) ?(max_steps = 24) ?(samples = 64) ?memo
    ?(model = Cost.Toggles) ~rng dfg ~trace =
  (* Every candidate is elaborated and costed over the original input
     set, so input positions line up for [Cec] and input-pin activity is
     charged identically across candidates. *)
  let inputs = List.sort compare (List.map fst (Dfg.inputs dfg)) in
  let cost g = Cost.of_dfg ~model ~inputs g ~trace in
  let elaborate g = Elaborate.to_network ~inputs g in
  let base_net = elaborate dfg in
  let refuted = ref [] in
  let candidates = ref 0 in
  let proofs = ref 0 in
  let undecided = ref 0 in
  let sat = ref Solver.empty_stats in
  let verify sess cand =
    if not (Transform.equivalent ~samples dfg cand ~rng) then
      `Refuted `Random_exec
    else begin
      (* The memo key is (original, candidate): the session's base is the
         parent, already proven equal to the original.  A check over
         [sat_budget] conflicts raises [Solver.Interrupted], so an
         undecided candidate is skipped — never applied, never memoized,
         not reported refuted. *)
      let cand_net = elaborate cand in
      let prove () =
        Cec.session_check ~conflicts:sat_budget (Lazy.force sess) cand_net
      in
      match
        (match memo with
        | Some m -> Memo.check_with m base_net cand_net prove
        | None -> prove ())
      with
      | Cec.Equivalent ->
        incr proofs;
        `Proved
      | Cec.Counterexample _ -> `Refuted `Sat
      | exception Solver.Interrupted ->
        incr undecided;
        `Undecided
    end
  in
  let initial = { g = dfg; c = cost dfg; trail = [] } in
  let visited = Hashtbl.create 64 in
  Hashtbl.replace visited (Dfg.structural_hash dfg) ();
  (* The rewrites of [cur] not seen before, cheapest first. *)
  let ranked cur =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun site ->
            match r.Rules.apply_at cur.g site with
            | None -> None
            | Some g' ->
              incr candidates;
              let h = Dfg.structural_hash g' in
              if Hashtbl.mem visited h then None
              else begin
                Hashtbl.replace visited h ();
                Some (r.Rules.name, site, g', cost g')
              end)
          (r.Rules.sites cur.g))
      rules
    |> List.stable_sort (fun (_, _, _, c1) (_, _, _, c2) -> compare c1 c2)
  in
  (* [cur] is the graph the last step moved to and [best] the cheapest
     seen; a step moves to the cheapest proved rewrite even when it costs
     more than [best], and [stale] counts such steps in a row. *)
  let rec search cur best stale steps_left =
    if steps_left <= 0 then best
    else
      let sess = lazy (Cec.session (elaborate cur.g)) in
      let next =
        List.find_map
          (fun (rule, site, g', c') ->
            match verify sess g' with
            | `Proved ->
              let step = { rule; site; cost_before = cur.c; cost_after = c' } in
              Some { g = g'; c = c'; trail = step :: cur.trail }
            | `Refuted stage ->
              refuted := { rule; site; stage } :: !refuted;
              None
            | `Undecided -> None)
          (ranked cur)
      in
      if Lazy.is_val sess then
        sat := Solver.sum_stats !sat (Cec.session_stats (Lazy.force sess));
      match next with
      | None -> best
      | Some next when next.c < best.c -> search next next 0 (steps_left - 1)
      | Some next ->
        if stale + 1 >= patience then best
        else search next best (stale + 1) (steps_left - 1)
  in
  let best = search initial initial 0 max_steps in
  {
    final = best.g;
    initial_cost = initial.c;
    final_cost = best.c;
    steps = List.rev best.trail;
    refuted = List.rev !refuted;
    candidates = !candidates;
    proofs = !proofs;
    undecided = !undecided;
    sat = !sat;
    model;
  }
