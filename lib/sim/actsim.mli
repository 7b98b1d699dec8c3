(** Persistent measured-activity engine: per-node toggle counts over a
    retained packed trace, updated incrementally after local network edits.

    {!Bitsim.count_transitions} answers "how much does this network switch
    under this trace" as a one-shot question: pack the trace 63 cycles per
    word, evaluate every node once per block, popcount adjacent-lane XORs.
    Optimizers want to ask that question {e inside their inner loops} —
    after every candidate re-implementation of one node — and a one-shot
    replay prices each probe at the whole network times the whole trace.

    This engine keeps the packed input words and every node's value planes
    resident.  After a mutation of one node ({!Network.replace_func}
    followed by {!update}), only the dirty output cone is re-simulated:
    a min-heap worklist keyed by topological position pops nodes in
    dependency order, re-evaluates each against the retained planes, stops
    propagating the moment a node's words come back unchanged, and adjusts
    toggle counts by exact popcount deltas.  The same changed-cone
    discipline as the {!Sta} timing engine, applied to switching activity.

    Counts are maintained {e bit-identical} to a from-scratch
    {!Bitsim.count_transitions} of the mutated network over the same trace
    (same packing, same overlap lane, same popcount masks), which is what
    lets the differential tests compare with [=] and lets the propagation
    cutoff be exact rather than approximate.  The oracle is a fresh
    {!create} (or [Bitsim.count_transitions]) over the edited network. *)

type t

type stats = {
  updates : int;  (** {!update} calls that reached the engine *)
  node_visits : int;  (** nodes popped off the incremental worklist *)
  word_evals : int;  (** node-block word evaluations performed *)
}

val create : Network.t -> trace:Stimulus.t -> t
(** Snapshot the network's current structure, pack the trace with the
    {!Bitsim.count_transitions} one-lane block overlap, simulate every
    block once and count every node's settled (zero-delay) transitions.
    The engine retains a reference to [net]: subsequent edits must be
    announced through {!update}.  Raises [Invalid_argument] on an empty
    trace or input-arity mismatch. *)

val update : t -> Network.id -> unit
(** Announce that node [id]'s local function and/or fanin list changed in
    the underlying network (after {!Network.replace_func}).  Re-reads the
    function and fanins, rewires the engine's adjacency mirror, recompiles
    the word closure, restores topological order if the rewiring broke it,
    and re-simulates the dirty cone.  Counts are exact afterwards.  Raises
    [Invalid_argument] if [id] is a primary input, absent from the
    snapshot, has a fanin outside the snapshot, or if the network's node
    set changed since {!create} (nodes added or swept). *)

val network : t -> Network.t
(** The underlying network (the engine holds it by reference). *)

val size : t -> int
(** Total node count of the snapshot (inputs included). *)

val num_inputs : t -> int

val cycles : t -> int
(** Trace length in vectors. *)

val ids : t -> Network.id array
(** Snapshot node ids in ascending order — the index convention of
    {!counts}, matching {!Compiled} compact indices for the same network.
    Fresh array. *)

val toggles : t -> Network.id -> int
(** Settled transition count of one node over the whole trace.  Raises
    [Invalid_argument] on an id absent from the snapshot. *)

val ones : t -> Network.id -> int
(** Cycles (of {!cycles} total) in which the node's settled value is 1 —
    measured signal-probability numerator.  The block-overlap lane is
    counted once.  Raises [Invalid_argument] on an unknown id. *)

val counts : t -> int array
(** All toggle counts, indexed like {!ids} (ascending id).  Bit-identical
    to [Bitsim.count_transitions (Bitsim.of_network net) trace] on the
    network's current state.  Fresh array. *)

val iter : t -> (Network.id -> int -> unit) -> unit
(** Apply to every (id, toggle count) pair in ascending id order. *)

val switched_capacitance : t -> float
(** Capacitance-weighted measured toggles per cycle:
    [(sum_n cap(n) * toggles(n)) / (cycles - 1)], summed in ascending id
    order, caps read live from the network.  The measured analogue of
    {!Activity.switched_capacitance} — the optimizer inner-loop score. *)

val stats : t -> stats
