(** Batch synthesis service: heterogeneous job lists over the
    work-stealing {!Pool} with a shared {!Memo} cache of proved
    equivalences.

    A job is a self-contained unit of toolkit work — estimate a network's
    output statistics, race an optimization tournament, prove a pair
    equivalent, technology-map, or race FSM encodings.  [run] spreads a
    job array over domains and returns results {e in job order} together
    with pool, cache and SAT-effort statistics; given identical inputs
    the results are identical for every domain count (jobs only read
    their networks, and every cached computation is deterministic — the
    property the 1-vs-N determinism tests pin down). *)

type job =
  | Estimate of { label : string; net : Network.t; input_probs : float array }
      (** exact per-output signal probabilities ({!Probability.exact},
          in output declaration order) plus estimated switched
          capacitance *)
  | Synthesize of { label : string; net : Network.t; trace : Stimulus.t option }
      (** a full {!Tournament.run} over its default roster; [trace]
          switches scoring to measured toggles and adds the [measured]
          strategy *)
  | Verify of { label : string; left : Network.t; right : Network.t }
      (** [Cec.check] through {!Memo.check} *)
  | Map of { label : string; net : Network.t; power : bool }
      (** {!Subject.decompose} + {!Mapper.map} ([Power] objective when
          [power], else [Area]); the pass-level [~verify] safety net is
          left at {!Verify.default} *)
  | Encode_fsm of { label : string; stg : Stg.t }
      (** a {!Tournament.run_fsm} race of the binary, Gray and low-power
          encodings *)

val label : job -> string

type outcome =
  | Estimated of { probs : (string * float) array; switched_cap : float }
  | Promoted of Tournament.promotion
  | Checked of Cec.outcome
  | Mapped of { area : float; delay : float; cells : int }
  | Encoded of Tournament.fsm_promotion

val summarize : outcome -> string
(** One-line stable digest (scores, verdicts, structural hashes of
    promoted networks) — what the CLI prints per job and what the
    determinism tests compare across domain counts. *)

type report = {
  results : (string * outcome) array;  (** (label, outcome), in job order *)
  pool : Pool.stats;
  memo : Memo.stats;
  sat : Solver.stats;
      (** {!Solver.sum_stats} total over every tournament promotion in
          the batch *)
  wall_seconds : float;
  jobs_per_second : float;
  tournaments : int;  (** comb + FSM tournaments run *)
  champions_verified : int;
      (** promoted champions that carry a verification (SAT for comb —
          always, by {!Tournament.run}'s construction — and
          {!Fsm_synth.implements}' exact check for FSM) *)
}

val run : ?domains:int -> ?memo:Memo.t -> job array -> report
(** Execute the batch.  [domains] defaults to {!Pool.default_domains};
    [memo] defaults to a fresh cache private to this run (pass one
    explicitly to share across batches).  A job that raises aborts the
    run with that exception, per {!Pool.map}. *)

val mixed_workload : ?seed:int -> n:int -> unit -> job array
(** The batch benchmark workload (the end-to-end [batch_mixed]
    benchmark runs [n] = 300): [n] jobs in fixed proportions (≈40%
    estimate, 25% tournament — alternating estimated and trace-measured
    scoring — 15% verify of a network against its own NAND2/INV
    decomposition, 10% map, 10% FSM encode) over seeded random circuits,
    with roughly a quarter of the networks repeated across jobs so the
    content-hash cache has real hits to serve.  Deterministic in [seed]
    (default 1) via {!Lowpower.Rng.stream} sharding. *)
