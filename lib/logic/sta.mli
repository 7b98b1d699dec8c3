(** Incremental static timing engine over flat float arrays.

    [Sta] owns three arrays indexed by node — arrival times, required
    times and (derived) slacks — plus the per-node delays that produce
    them.  It is built once from a {!graph} snapshot of the circuit
    topology and then answers delay changes incrementally: after
    {!set_delay} only the affected cone is re-propagated, forward for
    arrivals and backward for requireds, using topo-ordered worklists
    with early cutoff as soon as a node's value is unchanged.  A move
    that touches a handful of gates therefore costs O(changed cone)
    instead of O(network), which is what makes thousands-of-moves
    sizing loops ({!module:Dualvth} in [lp_circuit]) affordable.

    The engine is deliberately dependency-free: it knows nothing about
    {!module:Network} or {!module:Compiled}.  Both provide
    [timing_graph] views onto themselves; [Network]'s public
    [arrival_times]/[required_times]/[slacks] are thin Hashtbl wrappers
    over an [Sta.t].

    Incremental updates are float-exact against a full recompute: a
    changed node's value is refolded from scratch over its fan-in (the
    same left-to-right fold a full pass performs), so the incremental
    path reproduces bit-identical arrays.  The oracle for that is a
    fresh {!create} over the edited delays, whose creation is the full
    pass. *)

(** Topology snapshot the engine runs over.  Indices are an arbitrary
    dense id space [0 .. size-1]; entries not reachable from [topo] are
    simply never visited (their arrival stays [0.], required stays
    [infinity]).  [fanouts] may list a consumer more than once if it
    reads the same signal twice; min/max folds make duplicates
    harmless. *)
type graph = {
  size : int;               (** length of every per-node array *)
  topo : int array;         (** all live nodes, topologically sorted *)
  fanins : int array array; (** per node: signals it reads *)
  fanouts : int array array;(** per node: nodes reading it *)
  is_source : bool array;   (** primary inputs: arrival pinned to 0. *)
  sinks : int array;        (** primary outputs (deduplicated) *)
}

type t

(** Counters accumulated over the life of an engine: [full_passes] is
    the number of whole-array propagations (creation and lazy required
    materialization), [updates] the number of effective {!set_delay}
    calls, and the visit counts say how many node recomputations the
    incremental worklists actually performed — the cone-vs-network
    ratio the engine exists to shrink. *)
type stats = {
  full_passes : int;
  updates : int;
  arrival_visits : int;
  required_visits : int;
}

(** [create ?required g delays] builds the engine and runs the
    initial forward pass.  [delays] (one entry per node, copied) is the
    node's own delay; sources contribute arrival [0.] regardless.
    [required] is the arrival limit applied at every sink; it defaults
    to the critical delay of the initial state, i.e. the tightest
    constraint the starting point meets.

    Required times are materialized lazily on the first query that
    needs them; engines used only for arrivals/critical delay never pay
    for the backward pass.

    @raise Invalid_argument if [delays] length differs from [g.size]. *)
val create : ?required:float -> graph -> float array -> t

(** The sink arrival limit this engine propagates requireds from. *)
val required_limit : t -> float

(** [set_required_limit t r] replaces the sink arrival limit.  Requireds
    are materialized from [r] on the next query that needs them, so a
    limit set before any such query (say, a factor of the initial
    {!critical_delay}) costs no extra pass. *)
val set_required_limit : t -> float -> unit

(** Current delay of a node. *)
val delay : t -> int -> float

(** [set_delay t i d] changes node [i]'s delay and re-propagates:
    arrivals update forward from [i] and requireds backward from [i]'s
    fan-in (a node's own required excludes its own delay, so the first
    affected requireds are its drivers'), each worklist processed in
    topo order and cut off where values are unchanged.  Requireds are
    only propagated if they have been materialized.  A no-op change
    ([d] equal to the current delay) returns immediately.

    @raise Invalid_argument if [i] is out of range or not a live node
    of the graph ([topo] does not contain it). *)
val set_delay : t -> int -> float -> unit

(* {1 Flat-array results}

   The returned arrays are the engine's own state: read-only views,
   valid until the next [set_delay].  Copy them to keep a snapshot. *)

(** Arrival time per node (sources [0.]). *)
val arrival_array : t -> float array

(** Required time per node ([infinity] off any path to a sink).
    Materializes the backward pass on first use. *)
val required_array : t -> float array

(** Fresh array of [required -. arrival] per node ([infinity] where
    required is). *)
val slack_array : t -> float array

val arrival : t -> int -> float
val required : t -> int -> float
val slack : t -> int -> float

(** Latest sink arrival ([0.] with no sinks). *)
val critical_delay : t -> float

(** [required_limit t -. critical_delay t]: minimum sink slack, without
    materializing the backward pass ([infinity] with no sinks).
    Negative iff the constraint is violated. *)
val worst_slack : t -> float

val stats : t -> stats
