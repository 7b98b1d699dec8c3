(** Optimization tournaments: race synthesis strategies, promote a
    SAT-verified champion.

    The survey's low-power passes (area- and power-directed don't-care
    resimplification, measured-activity resynthesis) each win on some
    circuits and lose on others; a tournament makes the choice empirical
    per circuit.  Every strategy transforms a private copy of the source
    network, every surviving candidate is scored by switched capacitance
    per cycle — zero-delay activity from signal probabilities under the
    independence estimate by default, measured
    {!Bitsim.count_transitions} toggles when a [trace] is supplied — and
    {e every} scored candidate is checked equivalent to the source
    through one shared incremental {!Cec.session} — so a promoted
    champion is always SAT-verified, and a strategy that miscompiles is
    refuted with a counterexample instead of winning on a bogus score.

    The promotion record carries the full field (scores, margins,
    verdicts) plus the SAT effort of the session: its solver's counters
    accumulate over every candidate's proof. *)

type strategy = {
  s_name : string;
  transform : Network.t -> Network.t;
      (** Receives a private [Network.copy] of the source; may mutate it
          in place and/or return a fresh network. *)
}

val default_strategies :
  ?input_probs:float array -> ?trace:Stimulus.t -> Network.t ->
  strategy list
(** The stock roster for a given source network: [source] (identity —
    guarantees a verified candidate always exists), then
    [dontcare-area] and [dontcare-power] ({!Dontcare} policies;
    internal re-verification off — the tournament SAT-checks the
    result).  With [trace], a fourth strategy [measured] joins:
    {!Resynth.measured} don't-care resynthesis scored by toggles
    measured over that trace through the incremental {!Actsim} engine —
    the simulate → annotate → re-synthesize loop as a tournament
    entrant, SAT-verified like every other candidate.  [input_probs]
    (default all 0.5) feeds [dontcare-power] and must match the source
    input count.

    Only entries that can win are raced.  NAND2/INV decomposition
    ({!Subject}) and mapping with dual-Vth sizing add nodes and cell
    capacitance, and scored over twice the source on every circuit
    checked; node cleanup and per-node two-level re-minimization at best
    tie it, and the source wins ties by roster order.  Pass such passes
    through [~strategies] to race them anyway. *)

type verdict =
  | Verified  (** SAT-proved equivalent to the source *)
  | Refuted of bool array
      (** counterexample input vector, replay-confirmed by {!Cec} *)
  | Failed of string  (** the strategy raised; exception text *)

type candidate = {
  c_strategy : string;
  score : float;
      (** switched capacitance per cycle; [infinity] on [Failed] *)
  literals : int;  (** {!Network.literal_count}; [0] on [Failed] *)
  c_verdict : verdict;
}

type promotion = {
  circuit : string;
  champion : string;  (** strategy name; ties broken by roster order *)
  champion_net : Network.t;
  champion_score : float;
  source_score : float;  (** the untransformed source, same estimator *)
  margin : float;
      (** runner-up score minus champion score over verified candidates;
          [0.] when the champion is the only verified candidate *)
  candidates : candidate list;  (** roster order, failures included *)
  sat : Solver.stats;
      (** session effort for all verification in this tournament *)
}

val run :
  ?name:string ->
  ?strategies:strategy list ->
  ?input_probs:float array ->
  ?trace:Stimulus.t ->
  ?memo:Memo.t ->
  Network.t ->
  promotion
(** Race the roster (default {!default_strategies}) on [net].  [name]
    labels the promotion record (default ["circuit"]).  With [trace],
    candidates are scored by capacitance-weighted toggle counts measured
    over the vector stream (per cycle) and the default roster gains the
    [measured] strategy; otherwise by zero-delay activity under
    [input_probs] (the independence estimate).  With [memo], proved
    equivalences ({!Memo.check_with}) are served from / inserted into
    the shared cache (a cached equivalence skips the session query
    entirely; a refuted candidate is re-checked every time).  The source
    is never mutated.  Raises [Invalid_argument] if no strategy produces
    a verified candidate (an all-refuted roster — impossible with the
    default roster's [source] entry). *)

(** {1 FSM encoding tournaments}

    The sequential analogue: race state encodings for one STG.  There is
    no combinational-equivalence reference between two encodings of the
    same machine (the state spaces differ), so each candidate is checked
    against the STG by {!Fsm_synth.implements} rather than by the CEC
    session — an exact check over every reachable (state, input code)
    pair, which the record reports as a plain [verified] flag. *)

type fsm_candidate = {
  encoding : string;
  bits : int;
  capacitance : float;
      (** {!Seq_estimate.steady_state} switched capacitance;
          [infinity] on failure *)
  fsm_literals : int;
  verified : bool;
  error : string option;
}

type fsm_promotion = {
  fsm : string;
  fsm_champion : string;
  champion_synth : Fsm_synth.t;
  champion_capacitance : float;
  fsm_margin : float;
  encodings : fsm_candidate list;
}

val run_fsm : Stg.t -> fsm_promotion
(** Race the [binary], [gray] and [low-power] encodings of the STG:
    synthesize each, score by exact steady-state switched capacitance
    under uniform inputs (each bit 1 with probability 0.5), check each
    successful candidate with {!Fsm_synth.implements}, and promote the
    lowest-capacitance verified one.  Encodings whose synthesis or
    analysis raises are recorded as failed, not fatal.  Raises
    [Invalid_argument] if every encoding fails.  {!Encode.one_hot} is
    not raced: on the benchmark FSMs it never beat a minimum-width
    code. *)
