(** Combinational equivalence checking by miter + SAT (with word-parallel
    random simulation as a pre-filter).

    Two networks over the same inputs and output names are fed into one
    solver sharing input literals; each matched output pair becomes an
    XOR miter discharged under an assumption, so one incremental solver
    handles every output.  Before any SAT call, a few rounds of
    word-parallel random simulation (63 vectors per machine word) look
    for an output pair that already disagrees — the cheap filter that
    finds almost every inequivalence in practice; only the
    candidate-equivalent survivors reach the solver.

    A reported counterexample is always replayed through {!Event_sim}
    (on the miter network) before being returned, so the answer is
    confirmed by an independent evaluator.

    {e Sessions} ({!session}) keep one live solver holding the Tseitin
    encoding of a base network and check a stream of operands for
    equivalence against it ({!session_check}) — each operand adds only
    clauses guarded by an activation literal that is assumed during its
    check and retired (unit negated, then reclaimed by
    {!Solver.simplify}) afterwards, so learned clauses accumulate across
    checks instead of being rebuilt.  Operands are {e SAT-swept} onto the
    base encoding: a node that matches a base node structurally, or that
    a short local proof shows equal to a base node with the same
    simulation signature, reuses the base literal, so only outputs the
    sweep could not merge reach a full miter — an unchanged copy costs
    no search at all.  An optional conflict cap on those miters lets a
    caller give up on a check ({!Solver.Interrupted}) instead of
    accepting or refuting.  The one-shot path is the oracle the session
    path is property-tested against.  Every check runs one solver on the
    calling domain. *)

type outcome =
  | Equivalent
  | Counterexample of bool array
      (** An input vector (by input position) on which some output pair
          disagrees; confirmed by {!replay}. *)

val check :
  ?rounds:int ->
  ?seed:int ->
  ?on_stats:(Solver.stats -> unit) ->
  Network.t ->
  Network.t ->
  outcome
(** [check a b] decides whether every equally-named output computes the
    same function of the primary inputs.  [rounds] (default 4) sets the
    number of 63-vector random simulation passes; [seed] their stream.
    Surviving output pairs are discharged one by one, each under an
    assumption on one incremental solver.  [on_stats] receives that
    solver's counters when the SAT phase ran — the simulation filter
    short-circuits it.  Raises [Invalid_argument] if the input counts or
    output name sets differ. *)

val miter : Network.t -> Network.t -> Network.t
(** The combined network: both operands instantiated over shared fresh
    inputs, an XOR per matched output pair, OR-reduced into the single
    output ["miter"] — satisfiable iff the networks differ.  Raises
    [Invalid_argument] as {!check}. *)

val replay : Network.t -> Network.t -> bool array -> bool
(** [replay a b vec] confirms a counterexample through the event-driven
    simulator: the miter is simulated over the step [all-zeros -> vec]
    under the unit-delay model, and the parity of the miter output's
    settled transitions (anchored at the evaluated all-zeros value)
    yields the miter value on [vec].  [true] means the networks really
    disagree on [vec]. *)

val satisfiable : Network.t -> string -> bool array option
(** [satisfiable net out] is an input vector driving the named output to
    1, or [None] if the output is constant false — the discharge engine
    for the never-true proof obligations of {!Verify}: one solve of a
    fresh encoding of [net] under the output's literal.  Raises
    [Invalid_argument] on an unknown output. *)

(** {1 Incremental sessions} *)

type session
(** One live solver holding the Tseitin encoding of a base network, plus
    the retirement bookkeeping for per-obligation activation literals. *)

val session : Network.t -> session
(** Encode the base network once.  Obligations checked against the
    session reuse its input literals, node literals and every clause
    learned by earlier checks. *)

val session_check : ?conflicts:int -> session -> Network.t -> outcome
(** [session_check sess other]: decide whether [other] computes the
    base's outputs — {!session_encode}, {!session_recheck}, then
    {!session_retire}.  The base is never re-encoded; the verdict is as
    complete as {!check}'s.  Counterexamples are replay-confirmed as in
    {!check}, but need not be the vector {!check} would return.
    [conflicts] caps each output-miter solve as in {!session_recheck}:
    over the cap the call raises {!Solver.Interrupted}, neither proving
    nor refuting, and the handle is retired either way.  Raises
    [Invalid_argument] as {!check}. *)

type handle
(** An operand network swept into a session but not yet retired, so its
    remaining output miters can be re-discharged without re-encoding. *)

val session_encode : session -> Network.t -> handle
(** Sweep an operand onto the base encoding.  It is simulated first on a
    few fixed-seed words of 63 vectors, the same for every operand; if
    an output disagrees with the base there, the handle carries that
    replay-confirmed counterexample and nothing is encoded.  Otherwise
    the operand is walked in topological order: a node whose function
    and fanin literals match a base node (its own id first) takes the
    base literal; any other node is encoded under the handle's
    activation literal, and if its signature equals or complements a
    base node's, one local SAT proof — capped at about a thousand
    conflicts — decides whether the base literal replaces it in every
    later node.  Only outputs whose literals still differ from the
    base's get a miter.  So this call runs the solver (the local proofs)
    and grows the session's learned clauses; the first call also builds
    the base's signatures and lookup tables and freezes the base's node
    variables, so a session that never encodes an operand never pays for
    them.  Raises [Invalid_argument] as {!check}. *)

val session_recheck : ?conflicts:int -> session -> handle -> outcome
(** The handle's verdict: its simulation counterexample if it has one,
    else one assumption solve per remaining output miter ([Equivalent]
    at once when the sweep merged every output).  Each solve is
    uncapped unless [conflicts] is given; a solve that spends more than
    [conflicts] conflicts (polled at the solver's interrupt granularity,
    so slightly more may elapse) raises {!Solver.Interrupted}, keeping
    the clauses learned so far.  After the first call, later calls ride
    on retained learned clauses.  Raises [Invalid_argument] on a retired
    handle. *)

val session_retire : session -> handle -> unit
(** Permanently retire the handle's encoding (unit-negate its activation
    literal; the clauses are reclaimed by a periodic
    {!Solver.simplify}).  Idempotent. *)

val session_stats : session -> Solver.stats
(** Counters of the session's live solver. *)
