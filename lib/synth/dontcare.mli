(** Don't-care computation and power-aware node simplification
    (§III.A.1; [37], [38], [19]).

    For a node [n] of a multi-level network, two don't-care sets exist over
    its fanin space:
    - the {e satisfiability/controllability} don't-cares (SDC): fanin value
      combinations that no primary-input assignment can produce;
    - the {e observability} don't-cares (ODC): fanin combinations for which
      the node's value cannot be observed at any primary output.

    Both are computed exactly: by word-parallel simulation where it
    decides, by BDDs otherwise (see Sessions below).  A node may then be
    re-implemented with any function agreeing with its current one outside
    the don't-care set.  The power-aware policy ([38]) picks, within that flexibility, the
    implementation that skews the node's signal probability away from 1/2 —
    minimizing its [2p(1-p)] switching activity — and two-level-minimizes it
    with the don't-cares. *)

type dc = {
  node : Network.id;
  local_onset : Truth_table.t;  (** current function over fanins *)
  dontcare : Truth_table.t;     (** SDC union ODC over fanins *)
}

(** {1 Sessions}

    A pass visits many nodes of one network; a session serves the whole
    pass.  On the first {!dc} it simulates every node over one fixed
    vector set, 63 vectors to a word: all [2^npi] input vectors when the
    net has at most 11 inputs (in {!Bitsim.exhaustive_word}'s layout),
    otherwise 1,008 random vectors from a fixed seed.  A visit
    re-simulates the node's transitive fanout with the node's words
    complemented.  A lane where some output changes is
    observable, and the fanin code it carries there is a care point.  The
    visit then takes one of three decisions:
    - every fanin code is witnessed: the don't-care set is empty;
    - the vectors were exhaustive: the don't-cares are exactly the
      unwitnessed codes;
    - otherwise the unwitnessed codes go to BDDs, the only case in which
      {!dc} touches the session's BDD manager.

    The BDDs are the current global function of every node, in one
    manager built on first need.  The ODC there comes from a flipped
    cone: the node's global is complemented and its fanout rebuilt over
    it, and the node is unobservable where every output of the cone keeps
    its global value.  An unwitnessed code is a care point iff the
    complement of that ODC, conjoined with the fanin globals' literals for
    the code, is not empty.  A visit releases everything it built when it
    ends ({!Bdd.release}), so the store holds the globals alone between
    visits.  Every BDD is over the primary inputs alone, so it has the
    same graph in any manager: a session gives the same don't-cares and
    the same probability floats as a fresh manager per visit. *)

type session

val session : Network.t -> session
(** Open a session on [net].  It builds nothing yet: the value planes come
    with the first {!dc} and the BDDs with the first visit that needs
    them.  The network's wiring must not change while the session is in
    use; a local function may, and each change the caller keeps must be
    reported with {!installed} before the next visit. *)

val dc : session -> Network.id -> dc
(** Exact local don't-cares of one node, in one visit.  Raises
    [Invalid_argument] on an input node or a node with more than 16
    fanins. *)

val installed : session -> Network.id -> unit
(** [installed s n] tells the session that [n]'s local function changed:
    the value planes and the global BDDs of [n]'s transitive fanout are
    brought up to date (whichever exist).  When the dead globals that
    installs leave behind outgrow a fixed multiple of the live ones, the
    next visit that needs BDDs starts a fresh manager. *)

val observability : session -> Network.id -> Cover.t
(** The exact ODC of a node over the primary inputs (true = the node's
    value cannot affect any output), as the disjoint cover of its BDD
    paths, made in one visit from the flipped cone.  Builds no value
    planes.  Raises [Invalid_argument] on an input node. *)

type stats = {
  vectors : int;  (** simulated input vectors; 0 until the first {!dc} *)
  witnessed : int;  (** {!dc} visits where every fanin code was witnessed *)
  exhaustive : int;
      (** {!dc} visits settled by exhaustive vectors with some code
          unwitnessed *)
  fallback : int;  (** {!dc} visits whose unwitnessed codes went to BDDs *)
  bdd_nodes : int;  (** {!Bdd.node_count} of the session's manager (0 when
                        no BDD has been needed) *)
}

val stats : session -> stats

val minimized_candidates : dc -> Cover.t list
(** Two-level-minimized re-implementations of the node, one per don't-care
    assignment: free (the minimizer chooses), all-to-0, all-to-1.  With
    no don't-cares the three coincide and are minimized once.  Every
    cover agrees with [local_onset] on the care set, so installing any of
    them preserves all primary outputs.  Exposed for measurement-driven
    resynthesis ({!Resynth}), which scores these same candidates by
    measured toggles instead of model probabilities. *)

type policy =
  | For_area    (** minimize cube/literal count only *)
  | For_power of float array
      (** [38]: minimize the node's own switching activity; the array gives
          primary-input 1-probabilities used to evaluate candidate
          probabilities *)
  | For_power_fanout of float array
      (** [19]: like [For_power], but candidates are scored by the total
          capacitance-weighted activity of the node {e and its transitive
          fanout} — a probability skew that quiets the node can excite
          downstream gates, and this policy sees that *)

val optimize : ?verify:Verify.mode -> Network.t -> policy -> int
(** Re-implement every logic node (at most 16 fanins), in topological
    order, using its don't-cares under the given policy; returns the
    number of changed nodes.  One session serves the whole sweep: each
    node's don't-cares and candidate scores come from one visit.  The
    network remains functionally equivalent at all primary outputs
    (don't-cares guarantee it); [verify] (default {!Verify.default})
    re-proves the equivalence once, after the whole sweep, and raises
    {!Verify.Failed} on a mismatch. *)
