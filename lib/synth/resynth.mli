(** Measurement-driven don't-care resynthesis: the survey's
    simulate → annotate → re-synthesize loop closed over one network.

    {!Dontcare.optimize} scores each candidate re-implementation with a
    probability model that assumes independent inputs.  Under a correlated
    workload the model misprices candidates; this pass scores them by what
    actually happens — each candidate is installed, the {!Actsim} engine
    incrementally re-simulates its dirty cone against the retained trace,
    and the measured capacitance-weighted toggle rate decides.  Zero-delay
    toggle counts depend only on a node's {e global} function, so pure
    re-expression cannot move them; the leverage is exactly the don't-care
    flexibility (SDC ∪ ODC), which permits global-function changes at
    points where they are unobservable at the outputs. *)

type result = {
  changed : int;  (** nodes whose installed function improved *)
  tried : int;  (** candidate implementations measured *)
  initial_score : float;  (** measured switched capacitance before *)
  final_score : float;  (** measured switched capacitance after *)
  sim : Actsim.stats;  (** engine work: one creation pass, then dirty cones *)
}

val measured :
  ?verify:Verify.mode ->
  ?max_fanin:int ->
  Network.t ->
  trace:Stimulus.t ->
  result
(** One topological sweep: for every logic node with at most [max_fanin]
    (default 10, capped at 16) fanins, compute its don't-cares, install
    each {!Dontcare.minimized_candidates} cover in turn, re-measure via
    {!Actsim.update}, and keep the strictly best implementation (the
    original wins ties).  One {!Dontcare.session} serves the sweep; it
    learns only each function kept ({!Dontcare.installed}), not the
    candidates tried on the engine.  The network is mutated in place and
    stays functionally equivalent by construction; [verify] (default
    {!Verify.default}) re-proves it and raises {!Verify.Failed} on a
    mismatch.  Raises [Invalid_argument] on an empty trace or arity
    mismatch. *)
