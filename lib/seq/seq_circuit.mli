(** Synchronous sequential circuits: a combinational network plus
    edge-triggered registers, with optional per-register load-enables.

    This is the common substrate of the sequential optimizations: FSMs
    (§III.C.1), gated clocks (§III.C.3) and precomputation (§III.C.4) are
    all expressed as register wiring over one combinational core.

    Wiring convention: each register reads its next value from a node [d]
    of the combinational network and drives a primary-input node [q] of the
    same network.  If [enable] is given (another node of the network), the
    register loads only in cycles where that node evaluates to 1; otherwise
    it holds — and its clock pin consumes no switching energy that cycle
    (the gated-clock model). *)

type register = {
  d : Network.id;            (** data input: any node of the network *)
  q : Network.id;            (** register output: an [Input] node *)
  enable : Network.id option;(** load-enable node, [None] = always load *)
  init : bool;               (** power-up value *)
  clock_cap : float;         (** capacitance switched per clocked cycle *)
}

type t

val create : Network.t -> register list -> t
(** Raises [Invalid_argument] if some [q] is not an input node, is
    duplicated, or if [d]/[enable] nodes are unknown. *)

val network : t -> Network.t
val registers : t -> register list

val free_inputs : t -> Network.id list
(** Network inputs not driven by a register — the circuit's primary
    inputs, in network input order. *)

val register_count : t -> int

type stats = {
  cycles : int;
  comb_energy : float;
      (** capacitance-weighted transitions inside the combinational core,
          under the chosen delay model (includes register-output nodes) *)
  clock_energy : float;
      (** sum of [clock_cap] over register-cycles actually clocked *)
  ff_input_toggles : int;  (** settled d-value changes across cycles *)
  ff_output_toggles : int; (** q changes across cycles *)
  gated_cycles : int;      (** register-cycles skipped by enables *)
  outputs : (string * bool) list list; (** output trace, one entry per cycle *)
}

val total_energy : stats -> float
(** [comb_energy + clock_energy] in capacitance units (multiply by
    [1/2 V^2] for joules). *)

val simulate :
  ?delay_model:Event_sim.delay_model -> ?packed:bool -> t -> Stimulus.t
  -> stats
(** Clock the circuit through the stimulus (one vector of primary-input
    values per cycle; arity = [free_inputs]).  Default delay model is
    [Zero_delay]; pass [Unit_delay]/[Node_delays] to include glitch power in
    [comb_energy].

    Under [Zero_delay] the combinational transition counting behind
    [comb_energy] runs on the word-parallel engine ([Bitsim], 63 cycles per
    machine word) unless [~packed:false] selects the event-driven scalar
    path, the reference the tests compare it against; the two paths
    produce bit-identical stats.  Delay models with glitching always use
    [Event_sim].  Raises [Invalid_argument] on arity mismatch or empty
    stimulus. *)
