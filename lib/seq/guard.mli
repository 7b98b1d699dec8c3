(** Guarded evaluation (§III.C.4, [44] Tiwari, Malik & Ashar; subcircuit
    selection by don't-cares as in [30]).

    Where precomputation adds {e new} predictor logic, guarded evaluation
    reuses signals already present: if a subcircuit's output is
    unobservable under some condition (its ODC), {e transparent latches}
    on the subcircuit's inputs can hold their previous values during those
    cycles — the subcircuit stops switching, and the outputs are unchanged
    because nobody is looking.

    Latch model at cycle granularity: a guarded input presents
    [pass ? current : held] to the cone, where [held] is the value it
    presented the last time [pass] was 1.  [pass] must be computed from
    signals outside the guarded cone. *)

val observability_condition : Network.t -> Network.id -> Expr.t
(** The exact ODC of a node over the primary inputs (true = the node's
    value cannot affect any output), as a minimized two-level expression.
    The ODC comes from a one-visit {!Dontcare.session}.
    Raises [Invalid_argument] on an input node or networks with more than
    18 primary inputs (two-level tabulation bound). *)

type guarded = {
  circuit : Seq_circuit.t;
  root : Network.id;            (** the guarded cone's root in the original net *)
  pass_node : Network.id;       (** the latch-enable signal *)
  latch_count : int;
  guard_literals : int;         (** cost of the guarding logic *)
}

val apply :
  ?verify:Verify.mode -> Network.t -> root:Network.id -> guard:Expr.t
  -> guarded
(** Build the guarded design: transparent latches on the boundary of
    [root]'s maximum fanout-free cone (the whole subcircuit that feeds
    only [root]), passing when [guard] is false — so the entire cone stops
    switching during guarded cycles, not just the root gate.
    [guard] is an expression over primary-input positions and must imply
    the root's ODC for the result to be equivalent (checked by
    {!equivalent} / the test suite, and guaranteed when [guard] comes from
    {!observability_condition}).  The guard logic reads the raw primary
    inputs, never the latched copies, so freezing a cone that shares
    support with the guard is safe.  Raises [Invalid_argument] if [root]
    is an input node.

    [verify] (default {!Verify.default}) discharges the safety obligation
    — guard AND (an output changes when the root is flipped) is
    unsatisfiable — and raises {!Verify.Failed} when [guard] does not
    imply the root's ODC. *)

val rank_roots :
  Network.t -> score:(Network.id -> float) -> (Network.id * float) list
(** Candidate guard roots ordered by how much switching their cone could
    silence: every logic node, scored by the [score]-mass of its maximum
    fanout-free cone (the subcircuit {!apply} would freeze), heaviest
    first (ties by ascending id).  With [score] = measured toggle rate ×
    capacitance from an [Annotation], this ranks roots by {e observed}
    workload activity instead of model probabilities — the annotate step
    of the measured feedback loop applied to guard selection. *)

val auto :
  ?verify:Verify.mode -> Network.t -> root:Network.id -> guarded option
(** {!apply} with the exact ODC as guard; [None] when the ODC is constant
    false (the node is always observable — nothing to gain). *)

val equivalent :
  guarded -> Network.t -> stimulus:Stimulus.t -> bool
(** Simulate the guarded design against the plain combinational network on
    the same stimulus; true iff all output traces agree. *)

val energy_comparison :
  guarded -> Network.t -> stimulus:Stimulus.t -> float * float
(** [(plain, guarded)] switched capacitance over the stimulus, both under
    the zero-delay model (the plain network is wrapped in the same
    always-transparent latch structure so the comparison isolates the
    effect of gating, not of the added latch hardware). *)
