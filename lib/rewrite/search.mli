(** Deterministic activity-costed greedy rewrite search over {!Rules}.

    Each step enumerates every rule application to the current graph,
    costs the candidates under {!Cost} (graphs seen before pruned via
    {!Dfg.structural_hash}, so each graph is costed once), and puts them,
    cheapest first, through the two-stage equivalence gate:
    [Transform.equivalent] random execution, then [Cec.session_check]
    against one incremental session on the current graph's elaboration,
    opened lazily once per step.  The search moves to the first
    candidate proved.  Proofs are relative to the current graph — itself
    already proven, so transitivity closes the chain to the original —
    and the session's SAT sweep merges every cone the one new rewrite
    left untouched, so only the rewritten logic reaches the solver
    however deep the search runs.  Rewrites failing either stage are
    reported as {!refutation}s and never applied; rewrites the per-check
    conflict budget leaves undecided are skipped (counted, not refuted).
    The search is deterministic for a given rng seed. *)

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
  final : Dfg.t;  (** cheapest verified graph found *)
  initial_cost : float;
  final_cost : float;
  steps : step list;  (** accepted rewrites leading to [final], in order *)
  refuted : refutation list;  (** rejected applications, never applied *)
  candidates : int;  (** rule applications enumerated *)
  proofs : int;  (** SAT-verified acceptances *)
  undecided : int;  (** candidates skipped on SAT-budget exhaustion *)
  sat : Solver.stats;  (** solver counters summed over the step sessions *)
  model : Cost.model;
}

val run :
  ?rules:Rules.rule list ->
  ?max_steps:int ->
  ?samples:int ->
  ?memo:Memo.t ->
  ?model:Cost.model ->
  rng:Lowpower.Rng.t ->
  Dfg.t ->
  trace:(string * int) list list ->
  result
(** Search from [dfg] under the word [trace].  [max_steps] (default 24)
    bounds the depth, and the search stops after 2 steps in a row that
    do not improve the best cost; [samples] (default 64) sets the
    random-execution sample count threaded to [Transform.equivalent],
    which rejects a negative count with [Invalid_argument]; each
    output-miter solve may spend 60000 conflicts — a candidate left
    undecided is skipped, never applied and never memoized; [memo]
    caches CEC verdicts across and within runs;
    [model] defaults to [Cost.Toggles]. *)
