type strategy = { s_name : string; transform : Network.t -> Network.t }

type verdict = Verified | Refuted of bool array | Failed of string

type candidate = {
  c_strategy : string;
  score : float;
  literals : int;
  c_verdict : verdict;
}

type promotion = {
  circuit : string;
  champion : string;
  champion_net : Network.t;
  champion_score : float;
  source_score : float;
  margin : float;
  candidates : candidate list;
  sat : Solver.stats;
}

let default_strategies ?input_probs ?trace net =
  let probs =
    match input_probs with
    | Some p -> p
    | None -> Array.make (List.length (Network.inputs net)) 0.5
  in
  (* The measured strategy only exists when there is a trace to measure
     against; it re-synthesizes don't-care flexibility by installed-and-
     measured toggle counts instead of model probabilities. *)
  let measured =
    match trace with
    | None -> []
    | Some tr ->
      [
        {
          s_name = "measured";
          transform =
            (fun n ->
              ignore (Resynth.measured ~verify:`Off n ~trace:tr);
              ignore (Cleanup.run n);
              n);
        };
      ]
  in
  [
    { s_name = "source"; transform = (fun n -> n) };
    {
      s_name = "dontcare-area";
      transform =
        (fun n ->
          (* The tournament SAT-checks every candidate itself, so the
             pass-internal re-verification is redundant work here. *)
          ignore (Dontcare.optimize ~verify:`Off n Dontcare.For_area);
          ignore (Cleanup.run n);
          n);
    };
    {
      s_name = "dontcare-power";
      transform =
        (fun n ->
          ignore (Dontcare.optimize ~verify:`Off n (Dontcare.For_power probs));
          ignore (Cleanup.run n);
          n);
    };
  ]
  @ measured

(* Capacitance-weighted settled toggles per cycle, measured over the
   trace. *)
let measured_score net trace =
  let bs = Bitsim.of_network net in
  let counts = Bitsim.count_transitions bs trace in
  let c = Bitsim.compiled bs in
  let acc = ref 0.0 in
  Array.iteri
    (fun i k -> acc := !acc +. (Compiled.cap c i *. float_of_int k))
    counts;
  !acc /. float_of_int (max 1 (List.length trace - 1))

let estimated_score net ~input_probs =
  let act = Activity.zero_delay ~exact:false net ~input_probs in
  Activity.switched_capacitance net act

let run ?(name = "circuit") ?strategies ?input_probs ?trace ?memo net =
  let probs =
    match input_probs with
    | Some p -> p
    | None -> Array.make (List.length (Network.inputs net)) 0.5
  in
  let roster =
    match strategies with
    | Some s -> s
    | None -> default_strategies ~input_probs:probs ?trace net
  in
  let score n =
    match trace with
    | Some tr -> measured_score n tr
    | None -> estimated_score n ~input_probs:probs
  in
  let source_score = score net in
  let sess = Cec.session net in
  let verify cand_net =
    let prove () = Cec.session_check sess cand_net in
    let outcome =
      match memo with
      | Some m -> Memo.check_with m net cand_net prove
      | None -> prove ()
    in
    match outcome with
    | Cec.Equivalent -> Verified
    | Cec.Counterexample v -> Refuted v
  in
  let field =
    List.map
      (fun s ->
        match
          let cand_net = s.transform (Network.copy net) in
          let sc = score cand_net in
          let verdict = verify cand_net in
          ( { c_strategy = s.s_name; score = sc;
              literals = Network.literal_count cand_net; c_verdict = verdict },
            Some cand_net )
        with
        | c -> c
        | exception e ->
          ( { c_strategy = s.s_name; score = infinity; literals = 0;
              c_verdict = Failed (Printexc.to_string e) },
            None ))
      roster
  in
  let verified =
    List.filter_map
      (fun (c, n) ->
        match (c.c_verdict, n) with
        | Verified, Some n -> Some (c, n)
        | _ -> None)
      field
  in
  match verified with
  | [] -> invalid_arg "Tournament.run: no strategy produced a verified candidate"
  | first :: rest ->
    (* Strict < keeps roster order as the deterministic tie-break. *)
    let (champ, champ_net) =
      List.fold_left
        (fun (bc, bn) (c, n) ->
          if c.score < bc.score then (c, n) else (bc, bn))
        first rest
    in
    let margin =
      List.fold_left
        (fun m (c, _) ->
          if c.c_strategy = champ.c_strategy then m
          else min m (c.score -. champ.score))
        infinity verified
    in
    {
      circuit = name;
      champion = champ.c_strategy;
      champion_net = champ_net;
      champion_score = champ.score;
      source_score;
      margin = (if margin = infinity then 0.0 else margin);
      candidates = List.map fst field;
      sat = Cec.session_stats sess;
    }

(* FSM encoding tournaments *)

type fsm_candidate = {
  encoding : string;
  bits : int;
  capacitance : float;
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

let run_fsm stg =
  let num_states = Stg.num_states stg in
  let roster =
    [
      ("binary", Encode.binary ~num_states);
      ("gray", Encode.gray ~num_states);
      ("low-power", Encode.low_power stg (Markov.uniform_inputs stg));
    ]
  in
  let probs = Array.make (Stg.num_inputs stg) 0.5 in
  let field =
    List.map
      (fun (ename, enc) ->
        match
          let synth = Fsm_synth.synthesize stg enc in
          let est =
            Seq_estimate.steady_state synth.Fsm_synth.circuit
              ~input_bit_probs:probs
          in
          ( { encoding = ename; bits = enc.Encode.bits;
              capacitance = est.Seq_estimate.switched_capacitance;
              fsm_literals = Fsm_synth.literal_count synth;
              verified = Fsm_synth.implements synth stg;
              error = None },
            Some synth )
        with
        | c -> c
        | exception e ->
          ( { encoding = ename; bits = 0; capacitance = infinity;
              fsm_literals = 0; verified = false;
              error = Some (Printexc.to_string e) },
            None ))
      roster
  in
  let verified =
    List.filter_map
      (fun (c, s) ->
        match (c.verified, s) with true, Some s -> Some (c, s) | _ -> None)
      field
  in
  match verified with
  | [] -> invalid_arg "Tournament.run_fsm: every encoding failed"
  | first :: rest ->
    let (champ, champ_synth) =
      List.fold_left
        (fun (bc, bs) (c, s) ->
          if c.capacitance < bc.capacitance then (c, s) else (bc, bs))
        first rest
    in
    let margin =
      List.fold_left
        (fun m (c, _) ->
          if c.encoding = champ.encoding then m
          else min m (c.capacitance -. champ.capacitance))
        infinity verified
    in
    {
      fsm = Stg.name stg;
      fsm_champion = champ.encoding;
      champion_synth = champ_synth;
      champion_capacitance = champ.capacitance;
      fsm_margin = (if margin = infinity then 0.0 else margin);
      encodings = List.map fst field;
    }
