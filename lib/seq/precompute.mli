(** Precomputation-based sequential power-down (§III.C.4, Fig. 1; [1], [30]).

    One cycle ahead of the main computation, cheap {e predictor} logic
    examines a small subset R1 of the inputs.  If the predictors already
    determine the output — [g1] forces 1, [g0] forces 0 — the registers
    feeding the remaining inputs R2 are load-disabled for the next cycle:
    their outputs freeze, no switching propagates through the big
    combinational block, and the output is taken from the prediction.

    The architecture is profitable when [P(g1) + P(g0)] is large and the
    predictors are small — for the n-bit comparator of Fig. 1 with uniform
    inputs, examining only the MSBs gives probability 1/2. *)

val predictors :
  Network.t -> output:string -> keep:Network.id list -> Expr.t * Expr.t
(** [(g1, g0)] as expressions over the positions of [keep] (the R1 inputs):
    universal quantification of the output function over all other inputs
    [30].  [g1] implies the output is 1 whatever R2 holds; [g0] likewise 0.
    Raises [Invalid_argument] if [keep] contains non-inputs or [output] is
    unknown. *)

val shutdown_probability :
  Network.t -> output:string -> keep:Network.id list
  -> input_probs:float array -> float
(** [P(g1) + P(g0)] — expected fraction of cycles in which R2 can be shut
    off. *)

val measured_shutdown :
  Network.t -> output:string -> keep:Network.id list
  -> trace:Stimulus.t -> float
(** The same fraction {e measured}: evaluate the predictors on every trace
    vector and count the cycles where [g1 OR g0] holds.  Under correlated
    workloads this is the number the architecture will actually see, and
    it can differ sharply from {!shutdown_probability} under the
    independence model.  Raises [Invalid_argument] on an empty trace,
    arity mismatch, or non-input [keep]. *)

val rank_keep :
  Network.t -> output:string -> candidates:Network.id list
  -> trace:Stimulus.t -> (Network.id * float) list
(** Singleton-R1 candidates ordered by {!measured_shutdown}, best first
    (ties by ascending id) — which input to examine one cycle early, as
    the measured trace decides it. *)

type architecture = {
  plain : Seq_circuit.t;       (** all inputs registered, always clocked *)
  precomputed : Seq_circuit.t; (** R2 registers gated by [g1 OR g0]'s complement *)
  keep : int list;             (** input positions in R1 *)
}

val build :
  ?verify:Verify.mode -> Network.t -> output:string -> keep:Network.id list
  -> unit -> architecture
(** Wrap a combinational block into the two competing sequential designs.
    In the precomputed design the output is corrected with a multiplexer:
    [g1 OR (NOT g0 AND f)] evaluated on registered values, which equals [f]
    whenever the R2 registers were loaded and equals the prediction when
    they were frozen — the Fig. 1 argument.  [verify] (default
    {!Verify.default}) discharges the predictor obligations — [g1] forces
    the output to 1 and [g0] to 0 on every input vector — and raises
    {!Verify.Failed} otherwise. *)

val equivalent :
  architecture -> stimulus:Stimulus.t -> bool
(** Simulate both designs on the same stimulus and compare output traces
    (ignoring the one-cycle pipeline fill). *)

val energy_comparison :
  architecture -> stimulus:Stimulus.t
  -> Seq_circuit.stats * Seq_circuit.stats
(** [(plain, precomputed)] statistics on the same stimulus. *)
