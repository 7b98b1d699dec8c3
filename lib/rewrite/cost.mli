(** Activity cost of a datapath candidate (the search's objective).

    The candidate is elaborated ({!Elaborate.to_network}) and costed
    under one of three models:
    - {!Toggles} (the default): settled gate-level transitions over the
      supplied word trace, measured by [Bitsim.count_transitions] and
      weighted by node capacitance — the "measured activity" signal of
      Simopt-Power;
    - {!Independence}: the model-based estimate ([--model independence]
      on the CLI) — empirical per-bit input probabilities propagated by
      the independence estimate ([Activity.zero_delay ~exact:false]),
      capacitance-weighted;
    - {!Area}: literal count, trace-blind — the baseline E23 compares
      activity-driven search against. *)

type model = Toggles | Independence | Area

val of_network :
  ?model:model -> Network.t -> trace:(string * int) list list -> float
(** Cost an already-elaborated netlist.  Raises [Invalid_argument] on an
    empty trace (except under {!Area}, which ignores it). *)

val of_dfg :
  ?model:model ->
  ?inputs:string list ->
  Dfg.t ->
  trace:(string * int) list list ->
  float
(** Elaborate and cost a DFG.  [inputs] is passed through to
    {!Elaborate.to_network} — the search pins it to the original graph's
    input set so every candidate is costed over identical input
    positions. *)
