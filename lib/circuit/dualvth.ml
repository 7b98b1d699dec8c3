(* Slack-driven sizing + dual-Vth assignment.  See dualvth.mli for the
   algorithm; implementation notes:

   - All per-gate state lives in arrays indexed by Compiled compact
     index; the one Sta engine is shared by every trial move.
   - A move at gate [x] re-times [x] (its own delay changed) and the
     logic drivers of [x] (their load includes [x]'s pin capacitance).
     Reverting applies the inverse move through the same path, which
     restores bit-identical timing — so try/revert needs no snapshots.
   - Acceptance is on worst slack only (O(#sinks) per check, no
     required-time materialization): stay within [-tol], or strictly
     improve a slack that is already violated. *)

module P = Lowpower.Power_model

type start = Max_drive | Asis

type config = {
  params : P.params;
  unit_cap : float;
  output_load : float;
  drive_gain : float;
  gamma : float;
  epsilon : float;
  tol : float;
  max_iterations : int;
  start : start;
}

let default_config =
  { params = P.default_params;
    unit_cap = 20.0e-15;
    output_load = 2.0;
    drive_gain = 1.0;
    gamma = 0.0;
    epsilon = 0.0;
    tol = 1e-9;
    max_iterations = 50;
    start = Max_drive }

type step = {
  iteration : int;
  downsized : int;
  upsized : int;
  hvt_assigned : int;
  worst_slack : float;
  switched_cap : float;
  leakage : float;
  hvt_count : int;
  power : P.breakdown;
}

type result = {
  net : Network.t;
  assignment : (Network.id * Techlib.cell) list;
  required : float;
  steps : step list;
  moves : int;
  sta : Sta.stats;
}

let initial_step r = List.hd r.steps

let rec last = function
  | [] -> invalid_arg "Dualvth.final_step"
  | [ s ] -> s
  | _ :: rest -> last rest

let final_step r = last r.steps

let optimize ?(config = default_config) ?required ?slack_factor
    ?leakage_budget ?(cells = Techlib.default_variants) net ~gates
    ~activity =
  let c = Compiled.of_network net in
  let size = Compiled.size c in
  (* Variant ladders: (family, vth) -> cells sorted by ascending drive. *)
  let ladders : (string * Techlib.vth, Techlib.cell array) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun (cl : Techlib.cell) ->
      let key = (cl.Techlib.family, cl.Techlib.vth) in
      let prev = Option.value (Hashtbl.find_opt ladders key) ~default:[||] in
      Hashtbl.replace ladders key (Array.append prev [| cl |]))
    cells;
  Hashtbl.iter
    (fun _ l ->
      Array.sort
        (fun (a : Techlib.cell) b -> compare a.Techlib.drive b.Techlib.drive)
        l)
    ladders;
  let ladder (cl : Techlib.cell) vth =
    match Hashtbl.find_opt ladders (cl.Techlib.family, vth) with
    | Some l -> l
    | None ->
      invalid_arg
        (Printf.sprintf "Dualvth.optimize: no %s variants of family %s"
           (match vth with Techlib.Low -> "low-Vth" | Techlib.High -> "high-Vth")
           cl.Techlib.family)
  in
  (* Starting assignment, one cell per logic node. *)
  let cell_of : Techlib.cell option array = Array.make size None in
  List.iter
    (fun (id, cl) ->
      let x = Compiled.index_of_id c id in
      if Compiled.is_input c x then
        invalid_arg "Dualvth.optimize: gate list names an input node";
      cell_of.(x) <- Some cl)
    gates;
  Array.iter
    (fun x ->
      if (not (Compiled.is_input c x)) && cell_of.(x) = None then
        invalid_arg
          (Printf.sprintf "Dualvth.optimize: logic node %d has no cell"
             (Compiled.id_of_index c x)))
    (Compiled.topo c);
  (match config.start with
  | Asis -> ()
  | Max_drive ->
    Array.iteri
      (fun x -> function
        | None -> ()
        | Some cl ->
          let l = ladder cl Techlib.Low in
          cell_of.(x) <- Some l.(Array.length l - 1))
      (Array.copy cell_of));
  let cellx x =
    match cell_of.(x) with Some cl -> cl | None -> assert false
  in
  let act = Array.make size 0.0 in
  for x = 0 to size - 1 do
    match Hashtbl.find_opt activity (Compiled.id_of_index c x) with
    | Some a -> act.(x) <- a
    | None -> ()
  done;
  let is_po = Array.make size false in
  Array.iter (fun (_, x) -> is_po.(x) <- true) (Compiled.outputs c);
  (* Load on a net: fanout pin caps (+ the external load on POs);
     [Compiled.fanouts] is deduplicated, matching the mapper's cap
     accounting. *)
  let pin_sum x =
    Array.fold_left
      (fun acc h -> acc +. (cellx h).Techlib.pin_cap)
      0.0 (Compiled.fanouts c x)
  in
  let load x =
    pin_sum x +. if is_po.(x) then config.output_load else 0.0
  in
  let gdelay x =
    let cl = cellx x in
    cl.Techlib.delay
    +. P.gate_delay config.params
         ~v_threshold:(Techlib.vth_volts cl.Techlib.vth)
         ~drive:(config.drive_gain *. cl.Techlib.drive)
         ~load:(load x)
  in
  let delays =
    Array.init size (fun x ->
        if Compiled.is_input c x then 0.0 else gdelay x)
  in
  let g = Compiled.timing_graph c in
  (* One engine serves every bound: its default limit is the initial
     critical delay, and a slack factor scales that before any required
     time materializes. *)
  let sta = Sta.create ?required g delays in
  (match (required, slack_factor) with
  | None, Some f -> Sta.set_required_limit sta (f *. Sta.critical_delay sta)
  | _ -> ());
  let required = Sta.required_limit sta in
  let leak_total =
    ref
      (Array.fold_left
         (fun acc -> function
           | Some (cl : Techlib.cell) -> acc +. cl.Techlib.leak
           | None -> acc)
         0.0 cell_of)
  in
  let moves = ref 0 in
  let apply x newcl =
    leak_total := !leak_total -. (cellx x).Techlib.leak +. newcl.Techlib.leak;
    cell_of.(x) <- Some newcl;
    Sta.set_delay sta x (gdelay x);
    Array.iter
      (fun d ->
        if not (Compiled.is_input c d) then Sta.set_delay sta d (gdelay d))
      (Compiled.fanins c x)
  in
  let try_cell x newcl ~accept =
    let old = cellx x in
    let before = Sta.worst_slack sta in
    apply x newcl;
    if accept before (Sta.worst_slack sta) then begin
      incr moves;
      true
    end
    else begin
      apply x old;
      false
    end
  in
  (* Keep the constraint met, or strictly improve an already-violated
     slack (the [Asis]-start recovery path). *)
  let non_worsening before after = after >= -.config.tol || after >= before in
  let improving before after = after > before in
  let step_down cl =
    let l = ladder cl cl.Techlib.vth in
    let below =
      Array.to_list l
      |> List.filter (fun (v : Techlib.cell) ->
             v.Techlib.drive < cl.Techlib.drive)
    in
    match List.rev below with [] -> None | v :: _ -> Some v
  in
  let step_up cl =
    let l = ladder cl cl.Techlib.vth in
    Array.to_list l
    |> List.find_opt (fun (v : Techlib.cell) ->
           v.Techlib.drive > cl.Techlib.drive)
  in
  let to_vth cl vth =
    Array.to_list (ladder cl vth)
    |> List.find_opt (fun (v : Techlib.cell) ->
           v.Techlib.drive = cl.Techlib.drive)
  in
  let logic_idx =
    Array.of_list
      (List.filter
         (fun x -> not (Compiled.is_input c x))
         (Array.to_list (Compiled.topo c)))
  in
  let by_slack descending =
    let a = Array.copy logic_idx in
    let key = Array.map (Sta.slack sta) a in
    let order = Array.init (Array.length a) (fun i -> i) in
    Array.sort
      (fun i j ->
        let d = compare key.(i) key.(j) in
        let d = if descending then -d else d in
        if d <> 0 then d else compare a.(i) a.(j))
      order;
    Array.map (fun i -> a.(i)) order
  in
  let budget_met () =
    match leakage_budget with None -> false | Some b -> !leak_total <= b
  in
  let record iteration ~downsized ~upsized ~hvt_assigned =
    let swcap = ref 0.0 and act_total = ref 0.0 and hvt = ref 0 in
    Array.iter
      (fun x ->
        let drain =
          if Compiled.is_input c x then 1.0
          else begin
            let cl = cellx x in
            if cl.Techlib.vth = Techlib.High then incr hvt;
            cl.Techlib.out_cap
          end
        in
        act_total := !act_total +. act.(x);
        swcap := !swcap +. (act.(x) *. (drain +. pin_sum x)))
      (Compiled.topo c);
    let p = config.params in
    let power =
      { P.switching =
          0.5 *. config.unit_cap *. !swcap *. p.P.vdd *. p.P.vdd *. p.P.freq;
        short_circuit = p.P.qsc *. p.P.vdd *. p.P.freq *. !act_total;
        leakage = !leak_total *. p.P.vdd }
    in
    { iteration; downsized; upsized; hvt_assigned;
      worst_slack = Sta.worst_slack sta;
      switched_cap = !swcap; leakage = !leak_total; hvt_count = !hvt;
      power }
  in
  let steps = ref [ record 0 ~downsized:0 ~upsized:0 ~hvt_assigned:0 ] in
  let iter = ref 0 and running = ref true in
  while !running && !iter < config.max_iterations do
    incr iter;
    let downs = ref 0 and ups = ref 0 and hvts = ref 0 in
    Array.iter
      (fun x ->
        if Sta.slack sta x > config.gamma then
          match step_down (cellx x) with
          | Some smaller ->
            if try_cell x smaller ~accept:non_worsening then incr downs
          | None -> ())
      (by_slack true);
    let eps =
      let ws = Sta.worst_slack sta in
      if ws < -.config.tol then ws /. 2.0 else config.epsilon
    in
    Array.iter
      (fun x ->
        if Sta.slack sta x < eps then
          match step_up (cellx x) with
          | Some bigger ->
            if try_cell x bigger ~accept:improving then incr ups
          | None -> ())
      (by_slack false);
    Array.iter
      (fun x ->
        let cl = cellx x in
        if cl.Techlib.vth = Techlib.Low && not (budget_met ()) then
          match to_vth cl Techlib.High with
          | Some hv -> if try_cell x hv ~accept:non_worsening then incr hvts
          | None -> ())
      (by_slack true);
    steps :=
      record !iter ~downsized:!downs ~upsized:!ups ~hvt_assigned:!hvts
      :: !steps;
    if !downs + !ups + !hvts = 0 then running := false
  done;
  (* Write the final assignment's annotations back to the network. *)
  Array.iter
    (fun x ->
      let id = Compiled.id_of_index c x in
      if Compiled.is_input c x then Network.set_cap net id (1.0 +. pin_sum x)
      else begin
        let cl = cellx x in
        Network.set_delay net id (Sta.delay sta x);
        Network.set_cap net id (cl.Techlib.out_cap +. pin_sum x);
        Network.set_leak net id cl.Techlib.leak
      end)
    (Compiled.topo c);
  let assignment =
    Array.to_list logic_idx
    |> List.map (fun x -> (Compiled.id_of_index c x, cellx x))
    |> List.sort (fun (a, _) (b, _) -> compare (a : Network.id) b)
  in
  { net; assignment; required; steps = List.rev !steps; moves = !moves;
    sta = Sta.stats sta }

let optimize_mapping ?config ?required ?slack_factor ?leakage_budget ?cells
    m ~input_probs =
  optimize ?config ?required ?slack_factor ?leakage_budget ?cells
    (Mapper.netlist m) ~gates:(Mapper.choices m)
    ~activity:(Mapper.netlist_activity m ~input_probs)
