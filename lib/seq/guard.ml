let observability_condition net root =
  if Network.is_input net root then
    invalid_arg "Guard.observability_condition: input node";
  let npi = List.length (Network.inputs net) in
  if npi > 18 then
    invalid_arg "Guard.observability_condition: more than 18 primary inputs";
  (* BDD paths give a compact disjoint cover directly; minimize cleans up
     the path fragmentation. *)
  Cover.to_expr
    (Cover.minimize (Dontcare.observability (Dontcare.session net) root))

type guarded = {
  circuit : Seq_circuit.t;
  root : Network.id;
  pass_node : Network.id;
  latch_count : int;
  guard_literals : int;
}

let build_over_inputs net expr =
  let pis = Array.of_list (Network.inputs net) in
  let support = Expr.support expr in
  List.iter
    (fun v ->
      if v >= Array.length pis then
        invalid_arg "Guard: guard expression escapes the primary inputs")
    support;
  match support with
  | [] -> Network.add_node ~name:"guard" net expr []
  | _ ->
    let fanins = List.map (fun v -> pis.(v)) support in
    let remap =
      let tbl = Hashtbl.create 8 in
      List.iteri (fun pos v -> Hashtbl.replace tbl v pos) support;
      fun v -> Hashtbl.find tbl v
    in
    Network.add_node ~name:"guard" net (Expr.rename_vars remap expr) fanins

(* Maximum fanout-free cone of [root]: the nodes all of whose fanout paths
   run into [root].  Freezing the cone's boundary signals freezes the whole
   cone. *)
let mffc net root =
  let cone = Hashtbl.create 16 in
  Hashtbl.replace cone root ();
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun i ->
        if (not (Hashtbl.mem cone i)) && not (Network.is_input net i) then begin
          let fanouts = Network.fanouts net i in
          let is_output =
            List.exists (fun (_, o) -> o = i) (Network.outputs net)
          in
          if
            fanouts <> []
            && (not is_output)
            && List.for_all (fun j -> Hashtbl.mem cone j) fanouts
          then begin
            Hashtbl.replace cone i ();
            changed := true
          end
        end)
      (Network.node_ids net)
  done;
  cone

(* Proof obligation for [apply]: freezing the MFFC can corrupt only the
   root's value (every cone path ends there), and a wrong Boolean is a
   flipped one — so the guarded design is equivalent to the plain network
   iff  guard AND (some output changes when root is flipped)  is
   unsatisfiable.  This network computes that conjunction as the output
   ["__guard_violation"]: the root's transitive fanout is duplicated with
   the root image inverted, outputs are compared pairwise, and the
   disjunction of the differences is ANDed with the guard. *)
let obligation net0 ~root ~guard =
  let t = Network.copy net0 in
  let flip =
    Network.add_node ~name:"root_flip" t (Expr.not_ (Expr.var 0)) [ root ]
  in
  let image = Hashtbl.create 16 in
  Hashtbl.replace image root flip;
  List.iter
    (fun i ->
      if (not (Network.is_input t i)) && i <> root then begin
        let fanins = Network.fanins t i in
        if List.exists (Hashtbl.mem image) fanins then begin
          let fanins' =
            List.map
              (fun f -> Option.value (Hashtbl.find_opt image f) ~default:f)
              fanins
          in
          Hashtbl.replace image i (Network.add_node t (Network.func t i) fanins')
        end
      end)
    (Network.topo_order net0);
  let diffs =
    List.filter_map
      (fun (_, o) ->
        Option.map
          (fun o' -> Network.add_node t Expr.(var 0 ^^^ var 1) [ o; o' ])
          (Hashtbl.find_opt image o))
      (Network.outputs net0)
  in
  let any_diff =
    match diffs with
    | [] -> Network.add_node t Expr.fls []
    | [ d ] -> d
    | ds ->
      Network.add_node t (Expr.or_list (List.mapi (fun i _ -> Expr.var i) ds)) ds
  in
  let guard_node = build_over_inputs t guard in
  let violation =
    Network.add_node t Expr.(var 0 &&& var 1) [ guard_node; any_diff ]
  in
  Network.set_output t "__guard_violation" violation;
  t

let apply ?verify net0 ~root ~guard =
  if Network.is_input net0 root then invalid_arg "Guard.apply: input root";
  (let mode = Verify.resolve verify in
   if mode <> `Off then
     Verify.never_true ~mode ~pass:"Guard.apply"
       (obligation net0 ~root ~guard)
       "__guard_violation");
  let net = Network.copy net0 in
  let guard_node = build_over_inputs net guard in
  let pass =
    Network.add_node ~name:"pass" net (Expr.not_ (Expr.var 0)) [ guard_node ]
  in
  let cone = mffc net root in
  (* Boundary signals: fanins of cone nodes that are not themselves in the
     cone.  One transparent latch per distinct boundary signal. *)
  let latch_of = Hashtbl.create 8 in
  let regs = ref [] in
  let latch_for f =
    match Hashtbl.find_opt latch_of f with
    | Some l -> l
    | None ->
      let held = Network.add_input ~name:(Printf.sprintf "held_%d" f) net in
      (* Transparent latch at cycle granularity: present the live signal
         while passing, the held one while guarded. *)
      let latch_out =
        Network.add_node ~name:(Printf.sprintf "latch_%d" f) net
          Expr.(ite (var 0) (var 1) (var 2))
          [ pass; f; held ]
      in
      regs :=
        { Seq_circuit.d = latch_out; q = held; enable = Some pass;
          init = false; clock_cap = 1.0 }
        :: !regs;
      Hashtbl.replace latch_of f latch_out;
      latch_out
  in
  Hashtbl.iter
    (fun i () ->
      let fanins =
        List.map
          (fun f -> if Hashtbl.mem cone f then f else latch_for f)
          (Network.fanins net i)
      in
      Network.replace_func net i (Network.func net i) fanins)
    cone;
  {
    circuit = Seq_circuit.create net (List.rev !regs);
    root;
    pass_node = pass;
    latch_count = List.length !regs;
    guard_literals = Expr.literal_count guard;
  }

let rank_roots net ~score =
  Network.node_ids net
  |> List.filter_map (fun i ->
         if Network.is_input net i then None
         else begin
           let mass = ref 0.0 in
           Hashtbl.iter
             (fun j () -> mass := !mass +. score j)
             (mffc net i);
           Some (i, !mass)
         end)
  |> List.sort (fun (i1, m1) (i2, m2) ->
         if m1 <> m2 then compare m2 m1 else compare i1 i2)

let auto ?verify net ~root =
  let odc = observability_condition net root in
  match odc with
  | Expr.Const false -> None
  | guard -> Some (apply ?verify net ~root ~guard)

let equivalent g net ~stimulus =
  let stats = Seq_circuit.simulate g.circuit stimulus in
  let reference =
    List.map (fun vec -> List.sort compare (Network.eval_outputs net vec))
      stimulus
  in
  let got =
    List.map (fun outs -> List.sort compare outs) stats.Seq_circuit.outputs
  in
  reference = got

let energy_comparison g net ~stimulus =
  (* Wrap the plain network with the same always-transparent structure so
     latch hardware is present in both designs and the comparison isolates
     the gating effect. *)
  let plain = apply net ~root:g.root ~guard:Expr.fls in
  let e c = Seq_circuit.total_energy (Seq_circuit.simulate c.circuit stimulus) in
  (e plain, e g)
