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

val compute : Network.t -> Network.id -> dc
(** Exact local don't-cares of one node.  Raises [Invalid_argument] on an
    input node or a node with more than 16 fanins. *)

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
    number of changed nodes.  The network remains functionally
    equivalent at all primary outputs (don't-cares guarantee it);
    [verify] (default {!Verify.default}) re-proves the equivalence once,
    after the whole sweep, and raises {!Verify.Failed} on a mismatch. *)
