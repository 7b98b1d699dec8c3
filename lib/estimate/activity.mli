(** Switching-activity and transition-density estimation.

    Activity is the [N] factor of Eqn. 1: expected output transitions per
    clock cycle.  Under the zero-delay model with temporally independent
    vectors, a node of signal probability [p] has activity [2 p (1-p)].
    Transition density (Najm) instead propagates input toggle rates through
    Boolean differences and also captures inputs that toggle more or less
    than once per cycle. *)

type t = (Network.id, float) Hashtbl.t
(** Expected transitions per cycle, per node. *)

val of_probability : float -> float
(** [2 p (1 - p)]. *)

val zero_delay : ?exact:bool -> Network.t -> input_probs:float array -> t
(** Per-node zero-delay activity [2 p (1-p)] from signal probabilities:
    {!Probability.exact} when [exact] (the default) holds, which with
    every input at 1/2 and large BDDs counts all input vectors instead,
    with the same floats; otherwise the independence estimate
    {!Probability.approximate}.  The table is filled by iterating the
    probability table, so it too has one fixed order. *)

val transition_density : Network.t -> input_probs:float array
  -> input_densities:float array -> t
(** Najm-style density propagation on exact global BDDs:
    [D(y) = sum_i P(df/dx_i) D(x_i)].  Input densities are transitions per
    cycle of each primary input. *)

val switched_capacitance : Network.t -> t -> float
(** [sum_n cap(n) * activity(n)] over logic nodes and inputs — the
    capacitance-weighted activity that Eqn. 1 multiplies by [1/2 V^2 f]. *)

val network_power :
  Lowpower.Power_model.params -> Network.t -> t -> Lowpower.Power_model.breakdown
(** Eqn. 1 evaluated with the network's switched capacitance, treating the
    per-node [cap] annotations as farads. *)
