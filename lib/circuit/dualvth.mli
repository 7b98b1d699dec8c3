(** Slack-driven gate sizing + dual-Vth assignment (§II.B transistor
    sizing, plus the leakage axis every post-1995 follow-up adds).

    The optimizer runs the iterative loop of sermazz/dualvth-opt
    (SNIPPETS.md) over a mapped netlist whose gates are
    {!Techlib.cell} variants:

    + {e downsize} gates with slack above γ one drive step, accepted if
      the worst slack stays within the constraint (smaller drive = less
      input capacitance on the drivers, less area, less leakage);
    + {e upsize} gates with slack below ε one drive step, accepted only
      if the worst slack strictly improves — ε is recomputed each
      iteration from the current worst slack, so the phase targets the
      worst offenders while any path still violates;
    + {e assign high-Vth} to gates in descending-slack order, accepted
      under the same constraint, until the leakage budget is met (or
      exhaustively, with no budget) — each swap buys the ~300x
      exponential leakage reduction of
      {!Lowpower.Power_model.vth_leakage_factor} at the price of
      reduced overdrive.

    The loop ends when an iteration accepts no move (or at
    [max_iterations]).  Timing comes from one {!Sta} engine over the
    {!Compiled} snapshot, so every trial move and its revert cost
    O(changed cone), not O(network): a move only re-times the resized
    gate and its drivers (whose load changed), and reverts restore the
    exact previous floats.

    Delay model per gate: [cell.delay] (intrinsic) [+
    Power_model.gate_delay ~v_threshold ~drive ~load], where the load
    is the sum of fanout pin capacitances plus [output_load] on primary
    outputs — the convention of {!Sizing.delay_params}. *)

type start =
  | Max_drive  (** start from every gate's largest low-Vth variant — the
                   all-max-drive baseline the power reduction is
                   measured against *)
  | Asis       (** start from the gates as given (e.g. the mapper's
                   unit-drive choices) *)

type config = {
  params : Lowpower.Power_model.params;
  unit_cap : float;      (** farads per capacitance unit (20 fF) *)
  output_load : float;   (** extra load units on primary-output nets *)
  drive_gain : float;    (** scales [drive] inside [gate_delay]; calibrates
                             load-dependent vs intrinsic delay *)
  gamma : float;         (** downsize gates with slack > gamma (0.0) *)
  epsilon : float;       (** upsize threshold while timing is met (0.0:
                             no upsizing of feasible gates) *)
  tol : float;           (** slack tolerance for feasibility (1e-9) *)
  max_iterations : int;  (** hard iteration cap (50) *)
  start : start;         (** [Max_drive] *)
}

val default_config : config

(** State snapshot after one iteration ([iteration = 0] is the starting
    assignment; move counts are the {e accepted} moves of that
    iteration). *)
type step = {
  iteration : int;
  downsized : int;
  upsized : int;
  hvt_assigned : int;
  worst_slack : float;
  switched_cap : float;  (** activity-weighted capacitance, units *)
  leakage : float;       (** total leakage current, amperes *)
  hvt_count : int;
  power : Lowpower.Power_model.breakdown;
      (** switching from [switched_cap] at [unit_cap], short-circuit
          from total activity, leakage from [leakage] *)
}

type result = {
  net : Network.t;
      (** the input network, with delay/cap/leak annotations rewritten
          to the final assignment *)
  assignment : (Network.id * Techlib.cell) list;
      (** final variant per logic node, sorted by id *)
  required : float;      (** the arrival constraint optimized against *)
  steps : step list;     (** trajectory, starting state first *)
  moves : int;           (** total accepted moves *)
  sta : Sta.stats;       (** the timing engine's work counters *)
}

val initial_step : result -> step
val final_step : result -> step

val optimize :
  ?config:config ->
  ?required:float ->
  ?slack_factor:float ->
  ?leakage_budget:float ->
  ?cells:Techlib.cell list ->
  Network.t ->
  gates:(Network.id * Techlib.cell) list ->
  activity:Activity.t ->
  result
(** [optimize net ~gates ~activity] sizes the netlist [net], whose
    logic nodes are the cell instances listed in [gates] (as
    {!Mapper.choices} reports) with per-node switching activity
    [activity].

    The arrival constraint is [required] if given, else [slack_factor]
    x the starting assignment's critical delay, else exactly that
    critical delay.  [leakage_budget] (amperes) bounds the high-Vth
    phase; without it every gate the constraint allows goes high-Vth.
    [cells] (default {!Techlib.default_variants}) supplies the variant
    ladders, looked up by family and Vth flavor.

    The optimizer never accepts a move that leaves the worst slack
    below [-tol] unless it strictly improves an already-violated slack,
    so a feasible starting point stays feasible; an infeasible one
    ([Asis] start under a tight constraint) is driven toward
    feasibility by the upsize phase.  [net]'s function is untouched —
    only delay/cap/leak annotations change (checked by tests via
    {!Network.structural_hash} on annotation-normalized copies).

    Raises [Invalid_argument] if [gates] misses a logic node of [net],
    names an input, or references a family absent from [cells]. *)

val optimize_mapping :
  ?config:config ->
  ?required:float ->
  ?slack_factor:float ->
  ?leakage_budget:float ->
  ?cells:Techlib.cell list ->
  Mapper.mapping ->
  input_probs:float array ->
  result
(** Convenience wrapper: run {!optimize} on a mapping's netlist and
    {!Mapper.choices}, under the mapping's activity
    ({!Mapper.netlist_activity}): a power mapping's carried activity,
    exact zero-delay activity from [input_probs] otherwise.  The
    mapping's netlist is annotated in place (it is the [result.net]). *)
