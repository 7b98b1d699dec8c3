(** Gated clocks (§III.C.3, [9]) and FSM self-loop gating ([4]).

    A register bank that is not written every cycle wastes clock power:
    every clocked cycle costs the clock-tree and internal flip-flop
    capacitance even when the stored value does not change.  Deriving an
    idle condition and gating the clock with it removes that cost (minus
    the gating logic's own overhead). *)

type bank = {
  width : int;             (** registers in the bank *)
  clock_cap_per_ff : float;(** switched capacitance per FF per clocked cycle *)
  data_cap_per_ff : float; (** switched when the stored bit changes *)
  gating_overhead : float; (** per-cycle cost of the gating logic itself *)
}

val default_bank : int -> bank
(** [width] FFs with representative capacitances and a small gating
    overhead. *)

type report = {
  ungated_energy : float;
  gated_energy : float;
  idle_fraction : float;
}

val saving : report -> float
(** [1 - gated/ungated]. *)

val evaluate : bank -> (bool * int) list -> report
(** [evaluate bank trace]: the trace is one [(write_enable, word)] pair per
    cycle.  Ungated: full clock cost every cycle, data cost on every stored
    change (when disabled the bank recirculates its old value, so no data
    cost, but the clock still burns).  Gated: clock and data cost only on
    enabled cycles, plus [gating_overhead] every cycle. *)

val rank :
  (string * bank * (bool * int) list) list
  -> (string * report * float) list
(** Evaluate several named banks against their measured enable traces and
    order them by absolute energy saved ([ungated - gated], the third
    component), biggest win first (stable for ties) — which banks to gate
    first when the gating logic budget is limited, decided by measured
    workload traces rather than duty-cycle assumptions. *)

val gate_fsm : Fsm_synth.t -> Fsm_synth.t
(** Add self-loop gating to a synthesized FSM: a comparator network detects
    [next_state = current_state] and disables the state registers' load in
    those cycles.  Functionally invisible (holding equals reloading the
    same code) but removes register clocking on self-loops. *)
