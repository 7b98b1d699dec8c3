(** Technology mapping by tree covering (§III.B; [20], [43], [48], [26]).

    The subject graph is covered with library-cell patterns by dynamic
    programming over the DAG (multi-fanout nodes are covering boundaries,
    the classic tree-partition heuristic).  Three cost functions:

    - {!Area}: minimize total cell area — the original DAGON objective.
    - {!Delay}: minimize the mapped critical path (DP combines leaf costs
      with [max] instead of [+]).
    - {!Power}: minimize switched capacitance.  Every net that survives
      mapping costs (activity of the net) × (driving cell's output cap +
      fanin pin caps); nets hidden inside a cell cost nothing.  A power
      mapping therefore prefers covers that swallow high-activity nodes,
      exactly the intuition of [43]. *)

type objective =
  | Area
  | Delay
  | Power of Activity.t
      (** zero-delay activity per {e subject-graph} node, carried to
          the netlist (see {!netlist_activity}) *)

type mapping

val map :
  ?verify:Verify.mode -> ?cells:Techlib.cell list -> Network.t -> objective
  -> mapping
(** Cover a subject graph (see {!Subject.decompose}); the default library is
    {!Techlib.default}.  Raises [Invalid_argument] if the network is not a
    subject graph or if some node cannot be matched by any cell (the default
    library always matches INV and NAND2, so this means an empty or
    inadequate custom library).  [verify] (default {!Verify.default})
    re-proves that the mapped netlist still computes the subject graph's
    outputs and raises {!Verify.Failed} otherwise. *)

val netlist : mapping -> Network.t
(** The mapped network: one logic node per chosen cell instance, with
    [delay], [cap] and [leak] annotations taken from the cell ([cap] =
    cell output capacitance + fanout pin capacitances). *)

val netlist_activity : mapping -> input_probs:float array -> Activity.t
(** Switching activity per {!netlist} node, as a fresh table.  A {!Power}
    mapping returns the activity it was costed with, carried from each
    subject node to the netlist node implementing it, with no BDD pass;
    an {!Area} or {!Delay} mapping, exact [Activity.zero_delay (netlist
    m) ~input_probs].  Costed with exact activity under the same
    [input_probs], the two agree bit for bit: the inputs, hence the BDD
    variable order, are the same and BDDs are canonical.  Raises
    [Invalid_argument] unless [input_probs] has one probability in [0,1]
    per input. *)

val choices : mapping -> (Network.id * Techlib.cell) list
(** The chosen cell per {!netlist} logic node, sorted by node id — the
    gate list a sizing/Vth optimizer ([Circuit.Dualvth]) starts from. *)

val instances : mapping -> (string * int) list
(** Cell-name usage histogram. *)

val total_area : mapping -> float

val critical_delay : mapping -> float
(** Of the mapped netlist, using cell delays. *)

val switched_capacitance : mapping -> input_probs:float array -> float
(** Zero-delay switched capacitance of the mapped netlist under
    {!netlist_activity}: exact for area and delay mappings, the carried
    activity for a power mapping. *)
