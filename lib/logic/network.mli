(** Multi-level Boolean networks.

    A network is a DAG of nodes; each logic node carries a local function
    (an {!Expr.t} whose variable [i] denotes the node's [i]-th fanin) plus
    physical annotations: a propagation delay and the capacitance switched
    when the node's output toggles.  Primary inputs are nodes of kind
    [Input]; primary outputs are named references to nodes.

    This single structure serves as the technology-independent network for
    synthesis (§III.A), the mapped netlist for simulation and power
    accounting (§II, §III.B), and the combinational core of sequential
    circuits (§III.C). *)

type t
type id = int

exception Cycle of id list
(** Raised by traversals on a combinational cycle; carries the cycle. *)

val create : unit -> t

val add_input : ?name:string -> t -> id
(** Append a primary input.  Default name [x<k>] by input position. *)

val add_node :
  ?name:string -> ?delay:float -> ?cap:float -> ?leak:float ->
  t -> Expr.t -> id list -> id
(** [add_node t f fanins] adds a logic node computing [f] over [fanins].
    Default [delay] and [cap] are 1.0 (unit-delay, unit-capacitance model);
    default [leak] (static leakage current, amperes) is 0.0 — only mapped
    netlists carry real leakage, set from the chosen cell variant.
    Raises [Invalid_argument] if a fanin is unknown or the expression
    references a variable beyond the fanin list. *)

val set_output : t -> string -> id -> unit
(** Declare (or redirect) a named primary output. *)

(** {1 Structure access} *)

val inputs : t -> id list
(** Primary inputs in declaration order. *)

val outputs : t -> (string * id) list
val node_ids : t -> id list
val node_count : t -> int
(** Logic nodes only (inputs excluded). *)

val is_input : t -> id -> bool
val name : t -> id -> string
val func : t -> id -> Expr.t
(** Raises [Invalid_argument] on an input node. *)

val fanins : t -> id -> id list
val fanouts : t -> id -> id list
(** Served from an incrementally maintained reverse-adjacency index: O(d)
    in the fanout degree, not a scan of the network.  Sorted by id; a node
    appears once even if the fanin is duplicated. *)

val delay : t -> id -> float
val cap : t -> id -> float
val leak : t -> id -> float
(** Static leakage current of the node, amperes (0.0 unless annotated). *)

val set_delay : t -> id -> float -> unit
val set_cap : t -> id -> float -> unit
val set_leak : t -> id -> float -> unit
val input_index : t -> id -> int
(** Position of an input node among the inputs.  Raises [Not_found]. *)

val mem : t -> id -> bool

(** {1 Traversal and evaluation} *)

val topo_order : t -> id list
(** Inputs first, then logic nodes in dependency order.  Raises {!Cycle}. *)

val eval : t -> bool array -> (id, bool) Hashtbl.t
(** Zero-delay evaluation from input values (indexed by input position) to
    every node's value.  Raises [Invalid_argument] on input-arity mismatch. *)

val eval_outputs : t -> bool array -> (string * bool) list

val bdd_input_order : t -> int array
(** Interleaved BDD variable order for this network's inputs: inputs named
    [<prefix><digits>] are sorted by (numeric suffix, prefix) so operand
    bits of equal significance sit at adjacent levels (a0,b0,a1,b1,…),
    which keeps adder/comparator BDDs linear.  Suffix-less inputs come
    first in declared order.  Entry [l] is the input position placed at
    level [l]. *)

val global_bdds : ?max_nodes:int -> t -> Bdd.man -> (id, Bdd.t) Hashtbl.t
(** Global function of every node over the primary inputs; BDD variable [i]
    is the [i]-th primary input.  If [man] is pristine (no nodes, no
    variables), the {!bdd_input_order} interleaved order is installed
    first; pre-seeded managers are left untouched.  Variables numbered
    past the inputs are appended below them.

    [max_nodes] (default unbounded) stops the build, in topological order,
    after the first node that leaves [man] holding more than [max_nodes]
    nodes ({!Bdd.node_count}); the table then lacks the nodes after it.
    On a pristine manager the budget was passed iff
    [Bdd.node_count man > max_nodes] afterwards. *)

val output_bdd : t -> Bdd.man -> string -> Bdd.t
(** Global function of one named output.  Builds only the output's
    transitive fanin cone, and installs the interleaved order on pristine
    managers as {!global_bdds} does. *)

val structural_hash : t -> int
(** Canonical 63-bit content hash of the network: input positions, local
    functions, fanin wiring, output names and delay/cap/leak annotations
    all contribute; node {e ids} do not.  Rebuilding the same structure
    under a different id assignment (or declaring outputs in a different
    order) yields the same hash, and
    [structural_hash (copy t) = structural_hash t].
    Any structural or annotation change — a flipped local function, a
    rewired fanin, an edited delay, cap or leak, a redirected or renamed
    output — changes the hash (up to 63-bit collisions, which the
    proof cache in [lib/serve] relies on being negligible). *)

(** {1 Metrics} *)

val literal_count : t -> int
(** Total literal count of all local functions — the technology-independent
    area estimate. *)

val total_cap : t -> float
(** Sum of node capacitances (inputs included: their cap models the input
    pin loading). *)

val levels : t -> (id, int) Hashtbl.t
(** Unit-delay logic depth of every node (inputs are level 0).  Cached
    until the next structural edit; treat the table as read-only. *)

val level : t -> id -> int
(** Unit-delay logic depth (inputs are level 0).  Served from the
    {!levels} cache, so per-query cost is O(1) on an unmodified network. *)

(** {1 Timing}

    All timing views are thin wrappers over the flat-array {!Sta}
    engine; the hashtable-returning functions below exist for API
    stability and convenience.  Callers doing repeated delay edits (a
    sizing loop) should hold the {!timing} engine directly and use
    [Sta.set_delay] for O(changed cone) updates. *)

val timing_graph : t -> Sta.graph
(** Topology snapshot for the {!Sta} engine, indexed by raw node id
    (dense: every index < an internal bound; ids freed by {!sweep} are
    absent from the topo order and never visited).  Cached until the
    next structural or output edit; treat as read-only. *)

val timing : ?required:float -> t -> Sta.t
(** Fresh incremental timing engine over {!timing_graph} seeded with the
    current per-node delays.  [required] defaults to the critical delay
    (see {!Sta.create}).  Subsequent [Network.set_delay] edits are {e
    not} reflected in an already-created engine — push them through
    [Sta.set_delay] instead, and write back when done. *)

val arrival_times : t -> (id, float) Hashtbl.t
(** Longest-path arrival using per-node delays; inputs arrive at 0. *)

val critical_delay : t -> float
(** Maximum output arrival time. *)

val required_times : t -> float -> (id, float) Hashtbl.t
(** Latest allowed arrival per node given a required time at all outputs.
    Linear in the network size (uses the cached reverse adjacency). *)

val slacks : t -> ?required:float -> unit -> (id, float) Hashtbl.t
(** Per-node slack = required - arrival; default required time is the
    critical delay (so critical nodes have zero slack).  Nodes on no
    path to any output (infinite required) are omitted. *)

(** {1 Editing} *)

val replace_func : t -> id -> Expr.t -> id list -> unit
(** Swap a logic node's function and fanins.  Raises [Invalid_argument] on
    an input node, unknown fanins, or if the change creates a cycle.  When
    no {e new} fanin edge is added (the optimizer-inner-loop case:
    reimplement a node over the same or shrinking support) the O(n)
    cycle check is skipped — the call is O(fanin). *)

val sweep : t -> int
(** Remove logic nodes not reachable from any output; returns the number
    removed. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
(** Human-readable listing: one line per node. *)
