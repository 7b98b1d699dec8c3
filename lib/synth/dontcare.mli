(** Don't-care computation and power-aware node simplification
    (§III.A.1; [37], [38], [19]).

    For a node [n] of a multi-level network, two don't-care sets exist over
    its fanin space:
    - the {e satisfiability/controllability} don't-cares (SDC): fanin value
      combinations that no primary-input assignment can produce;
    - the {e observability} don't-cares (ODC): fanin combinations for which
      the node's value cannot be observed at any primary output.

    Both are computed exactly with BDDs.  A node may then be re-implemented
    with any function agreeing with its current one outside the don't-care
    set.  The power-aware policy ([38]) picks, within that flexibility, the
    implementation that skews the node's signal probability away from 1/2 —
    minimizing its [2p(1-p)] switching activity — and two-level-minimizes it
    with the don't-cares. *)

type dc = {
  node : Network.id;
  local_onset : Truth_table.t;  (** current function over fanins *)
  dontcare : Truth_table.t;     (** SDC union ODC over fanins *)
}

(** {1 Sessions}

    A pass visits many nodes of one network.  A session holds one BDD
    manager and the current global BDDs of every node for the whole pass.
    A visit builds the node's free-variable copy on its transitive fanout
    only, and releases everything it built when it ends ({!Bdd.release}),
    so the store holds the globals alone between visits.  Every BDD over
    the primary inputs alone has the same graph in any manager (the fanin
    and free variables sit below the inputs), so a session gives the same
    don't-cares and the same probability floats as a fresh manager per
    visit. *)

type session

val session : Network.t -> session
(** Open a session on [net], building the global BDDs of every node.  The
    network's wiring must not change while the session is in use; a local
    function may, and each change the caller keeps must be reported with
    {!installed} before the next visit. *)

val dc : session -> Network.id -> dc
(** Exact local don't-cares of one node, in one visit.  Raises
    [Invalid_argument] on an input node or a node with more than 16
    fanins. *)

val installed : session -> Network.id -> unit
(** [installed s n] tells the session that [n]'s local function changed:
    the global BDDs of [n]'s transitive fanout are rebuilt.  When the dead
    globals that installs leave behind outgrow a fixed multiple of the
    live ones, the session starts a fresh manager. *)

val observability : session -> Network.id -> Cover.t
(** The exact ODC of a node over the primary inputs (true = the node's
    value cannot affect any output), as the disjoint cover of its BDD
    paths, made in one visit.  Raises [Invalid_argument] on an input
    node. *)

val minimized_candidates : dc -> Cover.t list
(** Two-level-minimized re-implementations of the node, one per don't-care
    assignment: free (the minimizer chooses), all-to-0, all-to-1.  Every
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
