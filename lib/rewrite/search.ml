(* Deterministic greedy rewrite search.  Each step enumerates every
   (rule, site) application to the current graph, costs the candidates
   (memo-cached; graphs seen before pruned by [Dfg.structural_hash]), and
   moves to the cheapest one that passes the two-stage equivalence gate:
   [Transform.equivalent] random execution first (the cheap filter), then
   a SAT sweep ([Elaborate.sweep]) through one shared incremental session
   holding the original's encoding.  Proofs are relative to the current
   graph — itself proven, so transitivity closes the chain back to the
   original — with simulation-signature cut-points merging everything the
   one new rewrite did not touch; each obligation is built into a copy of
   the base netlist, so [Cec.session_never_true] encodes only small local
   cones however deep the search runs.  A candidate failing either stage
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

(* Conflicts each SAT call may spend before its candidate is skipped. *)
let sat_budget = 60_000

type state = { g : Dfg.t; c : float; trail : step list (* reversed *) }

exception Undecided_proof

let run ?(rules = Rules.all) ?(max_steps = 24) ?(samples = 64) ?memo ?model
    ~rng dfg ~trace =
  let model = match model with Some m -> m | None -> Cost.default_model () in
  (* Every candidate is elaborated and costed over the original input
     set, so input positions line up for [Cec] and input-pin activity is
     charged identically across candidates. *)
  let inputs = List.sort compare (List.map fst (Dfg.inputs dfg)) in
  let cost g = Cost.of_dfg ?memo ~model ~inputs g ~trace in
  let elaborate g = Elaborate.to_network ~inputs g in
  let base_net = elaborate dfg in
  let sess = Cec.session base_net in
  (* Simulation signatures guide the SAT sweep: a candidate node whose
     result word matches a node of its (already-proven) parent on every
     trace sample is a suspected cut-point, and a small local proof lets
     the sweep merge it onto the parent's gates.  Map each signature to
     the first (in topo order) parent node computing it; the hash set
     skips candidate nodes the structural gate cache resolves without
     any proof. *)
  let sig_tables parent =
    let sigs = Hashtbl.create 64 and hashes = Hashtbl.create 64 in
    let vt = Dfg.value_trace parent trace in
    List.iter
      (fun i ->
        Hashtbl.replace hashes (Dfg.node_hash parent i) ();
        let s = Hashtbl.find vt i in
        let cls = match Hashtbl.find_opt sigs s with Some l -> l | None -> [] in
        Hashtbl.replace sigs s (i :: cls))
      (Dfg.nodes parent);
    (sigs, hashes)
  in
  let max_pairs = 16 in
  let cut_pairs tables cand =
    if trace = [] then []
    else begin
      let sigs, hashes = Lazy.force tables in
      let vt = Dfg.value_trace cand trace in
      let pairs = ref [] and n = ref 0 in
      List.iter
        (fun ci ->
          if
            !n < max_pairs
            && not (Hashtbl.mem hashes (Dfg.node_hash cand ci))
          then
            match Hashtbl.find_opt sigs (Hashtbl.find vt ci) with
            | Some cls ->
              incr n;
              (* Nearest node id first: rewrites renumber only locally,
                 so the structural counterpart of [ci] — the cheap proof
                 — almost always sits closest, and aliased class-mates
                 (partial sums equal on every sample) are tried last. *)
              let cls =
                List.stable_sort
                  (fun a b -> compare (abs (a - ci)) (abs (b - ci)))
                  cls
              in
              pairs := (ci, cls) :: !pairs
            | None -> ())
        (Dfg.operation_nodes cand);
      List.rev !pairs
    end
  in
  let refuted = ref [] in
  let candidates = ref 0 in
  let proofs = ref 0 in
  let undecided = ref 0 in
  let verify parent tables cand =
    if not (Transform.equivalent ~samples dfg cand ~rng) then
      `Refuted `Random_exec
    else begin
      (* SAT-sweep the candidate against its parent — itself proven
         equivalent to the original, so transitivity makes every proof a
         proof against the original while each obligation stays
         one-rewrite local no matter how deep the search is.  Every
         obligation network structurally extends the original base
         elaboration, so the one shared session discharges them all.
         Each SAT call is bounded by [sat_budget] conflicts; a candidate
         the bound leaves undecided is skipped — never applied, but not
         reported refuted either (and never memoized: a later retry may
         succeed from the session's learned clauses). *)
      let prove () =
        let sat_prove net out =
          Cec.session_never_true_within sess ~conflicts:sat_budget net out
        in
        match
          Elaborate.sweep ~base:base_net ~ref_dfg:parent cand
            ~pairs:(cut_pairs tables cand) ~prove:sat_prove
        with
        | Elaborate.Equivalent -> Cec.Equivalent
        | Elaborate.Counterexample vec -> Cec.Counterexample vec
        | Elaborate.Undecided -> raise Undecided_proof
      in
      match
        (match memo with
        | Some m -> Memo.check_with m base_net (elaborate cand) prove
        | None -> prove ())
      with
      | Cec.Equivalent ->
        incr proofs;
        `Proved
      | Cec.Counterexample _ -> `Refuted `Sat
      | exception Undecided_proof ->
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
      let tables = lazy (sig_tables cur.g) in
      let next =
        List.find_map
          (fun (rule, site, g', c') ->
            match verify cur.g tables g' with
            | `Proved ->
              let step = { rule; site; cost_before = cur.c; cost_after = c' } in
              Some { g = g'; c = c'; trail = step :: cur.trail }
            | `Refuted stage ->
              refuted := { rule; site; stage } :: !refuted;
              None
            | `Undecided -> None)
          (ranked cur)
      in
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
    sat = Cec.session_stats sess;
    model;
  }
