(** Measured-activity annotations: an immutable per-node toggle snapshot
    taken from an {!Actsim} engine, in the shape the optimizers consume.

    {!Activity.zero_delay} and {!Probability} answer "how much will this
    switch" from a probability model that assumes spatially and temporally
    independent inputs.  Real workloads are correlated, and the survey's
    measurement-driven loop (simulate → annotate → re-synthesize) feeds
    {e measured} counts back instead.  An annotation is that feedback
    artifact: frozen toggle and ones counts for every node of one network
    under one trace, plus the derived quantities consumers want — activity
    rates for {!Activity.switched_capacitance}-style costing, empirical
    input probabilities, toggle-ranked orders for BDD sifting and gating
    candidate selection.

    Annotations are immutable snapshots (caps included): later edits to
    the network or the engine leave them unchanged. *)

type t

val measure : Network.t -> trace:Stimulus.t -> t
(** Simulate the whole trace once ({!Actsim.create}) and freeze the
    counts.  Raises [Invalid_argument] on an empty trace or input-arity
    mismatch. *)

val of_actsim : Actsim.t -> t
(** Freeze an engine's current counts (the engine stays usable). *)

val cycles : t -> int
val size : t -> int

val ids : t -> Network.id array
(** Annotated node ids, ascending.  Fresh array. *)

val toggles : t -> Network.id -> int
(** Measured settled transitions over the whole trace.  Raises
    [Invalid_argument] on an unknown id. *)

val rate : t -> Network.id -> float
(** Transitions per cycle pair: [toggles / (cycles - 1)]. *)

val activity : t -> Activity.t
(** All rates as an {!Activity.t} table — drop-in for every consumer of
    {!Activity.zero_delay} ({!Activity.switched_capacitance}, [Mapper]
    costing, gating heuristics), with measured numbers inside. *)

val input_probs : t -> float array
(** Measured signal probability per input position: fraction of trace
    cycles in which the input is 1.  Drop-in for the [~input_probs] the
    model-driven estimators take. *)

val switched_capacitance : t -> float
(** [(sum_n cap(n) * toggles(n)) / (cycles - 1)] in ascending id order,
    caps as snapshotted — bit-identical to
    {!Actsim.switched_capacitance} at snapshot time. *)

val ranked : t -> (Network.id * int) list
(** Nodes by measured toggles, most active first (ties by ascending id) —
    the candidate order for guard/gating insertion. *)

val bdd_input_order : t -> int array
(** Input positions sorted by measured input toggles, most active first
    (ties by position) — a seed order for {!Bdd.manager} putting the
    hottest variables near the root, for {!Bdd.reorder} to polish. *)
