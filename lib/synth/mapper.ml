type objective =
  | Area
  | Delay
  | Power of Activity.t

type chosen = {
  cell : Techlib.cell;
  leaves : Network.id array; (* by slot *)
}

type mapping = {
  subject : Network.t;
  choice : (Network.id, chosen) Hashtbl.t; (* per instantiated match root *)
  net : Network.t;
  signal : (Network.id, Network.id) Hashtbl.t; (* subject node -> mapped node *)
  activity : Activity.t option; (* per netlist node, for a [Power] mapping *)
}

let is_inv net i =
  (not (Network.is_input net i)) && Expr.equal (Network.func net i) Subject.inv_func

let is_nand net i =
  (not (Network.is_input net i))
  && Expr.equal (Network.func net i) Subject.nand2_func

(* All ways to match [pat] rooted at [node]; a binding maps slots to subject
   nodes.  Nodes consumed strictly inside a match must have a single fanout
   (they disappear into the cell). *)
let matches net fanout_count node cell =
  let bind bindings k node =
    match List.assoc_opt k bindings with
    | Some n when n = node -> Some bindings
    | Some _ -> None
    | None -> Some ((k, node) :: bindings)
  in
  let rec root bindings node pat =
    match pat with
    | Techlib.L k -> (match bind bindings k node with Some b -> [ b ] | None -> [])
    | Techlib.Inv p ->
      if is_inv net node then
        match Network.fanins net node with
        | [ a ] -> descend bindings a p
        | _ -> []
      else []
    | Techlib.Nand (p, q) ->
      if is_nand net node then
        match Network.fanins net node with
        | [ a; b ] ->
          let one =
            List.concat_map (fun bs -> descend bs b q) (descend bindings a p)
          in
          let two =
            List.concat_map (fun bs -> descend bs a q) (descend bindings b p)
          in
          one @ two
        | _ -> []
      else []
  and descend bindings node pat =
    match pat with
    | Techlib.L k -> (match bind bindings k node with Some b -> [ b ] | None -> [])
    | Techlib.Inv _ | Techlib.Nand _ ->
      if Network.is_input net node || fanout_count node > 1 then []
      else root bindings node pat
  in
  let all = root [] node cell.Techlib.pattern in
  List.map
    (fun bindings ->
      Array.init cell.Techlib.arity (fun k -> List.assoc k bindings))
    all

let map_unchecked ?(cells = Techlib.default) subject objective =
  if not (Subject.is_subject_graph subject) then
    invalid_arg "Mapper.map: not a NAND2/INV subject graph";
  let fanout_tbl = Hashtbl.create 256 in
  List.iter
    (fun i ->
      if not (Network.is_input subject i) then
        List.iter
          (fun j ->
            let c = Option.value (Hashtbl.find_opt fanout_tbl j) ~default:0 in
            Hashtbl.replace fanout_tbl j (c + 1))
          (Network.fanins subject i))
    (Network.node_ids subject);
  List.iter
    (fun (_, i) ->
      let c = Option.value (Hashtbl.find_opt fanout_tbl i) ~default:0 in
      Hashtbl.replace fanout_tbl i (c + 1))
    (Network.outputs subject);
  let fanout_count i = Option.value (Hashtbl.find_opt fanout_tbl i) ~default:0 in
  let activity_of =
    match objective with
    | Power act -> fun i -> Option.value (Hashtbl.find_opt act i) ~default:0.0
    | Area | Delay -> fun _ -> 0.0
  in
  (* DP: best cost and best match per node. *)
  let cost = Hashtbl.create 256 in
  let best = Hashtbl.create 256 in
  let leaf_cost i = Option.value (Hashtbl.find_opt cost i) ~default:0.0 in
  List.iter
    (fun i ->
      if Network.is_input subject i then Hashtbl.replace cost i 0.0
      else begin
        let consider (best_c, best_m) cell =
          List.fold_left
            (fun (bc, bm) leaves ->
              let c =
                match objective with
                | Area ->
                  Array.fold_left
                    (fun acc l -> acc +. leaf_cost l)
                    cell.Techlib.area leaves
                | Delay ->
                  cell.Techlib.delay
                  +. Array.fold_left
                       (fun acc l -> max acc (leaf_cost l))
                       0.0 leaves
                | Power _ ->
                  let root_cost = activity_of i *. cell.Techlib.out_cap in
                  Array.fold_left
                    (fun acc l ->
                      acc +. leaf_cost l
                      +. (activity_of l *. cell.Techlib.pin_cap))
                    root_cost leaves
              in
              if c < bc then (c, Some (cell, leaves)) else (bc, bm))
            (best_c, best_m)
            (matches subject fanout_count i cell)
        in
        let c, m = List.fold_left consider (infinity, None) cells in
        match m with
        | None ->
          invalid_arg
            (Printf.sprintf "Mapper.map: node %s has no library match"
               (Network.name subject i))
        | Some (cell, leaves) ->
          Hashtbl.replace cost i c;
          Hashtbl.replace best i { cell; leaves }
      end)
    (Network.topo_order subject);
  (* Reconstruct the chosen cover from the outputs down and build the mapped
     netlist. *)
  let net = Network.create () in
  let signal = Hashtbl.create 256 in
  (* Each netlist node implements one subject node and carries the
     activity that node was costed with, newest first. *)
  let carried = ref [] in
  List.iter
    (fun i ->
      let j = Network.add_input ~name:(Network.name subject i) net in
      Hashtbl.replace signal i j;
      carried := (j, activity_of i) :: !carried)
    (Network.inputs subject);
  let choice = Hashtbl.create 64 in
  let rec instantiate i =
    match Hashtbl.find_opt signal i with
    | Some j -> j
    | None ->
      let ch = Hashtbl.find best i in
      let fanins = Array.to_list (Array.map instantiate ch.leaves) in
      let j =
        Network.add_node
          ~name:(ch.cell.Techlib.cell_name ^ "_" ^ Network.name subject i)
          ~delay:ch.cell.Techlib.delay ~cap:ch.cell.Techlib.out_cap
          ~leak:ch.cell.Techlib.leak net ch.cell.Techlib.func fanins
      in
      Hashtbl.replace signal i j;
      Hashtbl.replace choice i ch;
      carried := (j, activity_of i) :: !carried;
      j
  in
  List.iter
    (fun (nm, i) -> Network.set_output net nm (instantiate i))
    (Network.outputs subject);
  (* Net capacitance = driver output cap + fanout pin caps.  Every
     instance is its own netlist node, so the inverse of [signal] over
     [choice] names the cell behind each fanout. *)
  let cell_at = Hashtbl.create (Hashtbl.length choice) in
  Hashtbl.iter
    (fun si ch -> Hashtbl.replace cell_at (Hashtbl.find signal si) ch)
    choice;
  List.iter
    (fun j ->
      let pins =
        List.fold_left
          (fun acc k ->
            let pin =
              match Hashtbl.find_opt cell_at k with
              | Some ch -> ch.cell.Techlib.pin_cap
              | None -> 1.0
            in
            acc +. pin)
          0.0 (Network.fanouts net j)
      in
      Network.set_cap net j (Network.cap net j +. pins))
    (Network.node_ids net);
  let activity =
    match objective with
    | Area | Delay -> None
    | Power _ ->
      (* Sized to the netlist and filled in node-id order, as
         [Activity.zero_delay]'s table on it would be: the two iterate
         alike, so sums over them agree bit for bit too. *)
      let act = Hashtbl.create (List.length !carried) in
      List.iter (fun (j, a) -> Hashtbl.replace act j a) (List.rev !carried);
      Some act
  in
  { subject; choice; net; signal; activity }

let netlist m = m.net

let netlist_activity m ~input_probs =
  match m.activity with
  | Some act ->
    Probability.check_probs m.net input_probs;
    Hashtbl.copy act
  | None -> Activity.zero_delay m.net ~input_probs

(* Cell patterns are matched structurally, so the cover computes the same
   functions by construction; [?verify] re-proves subject ~ netlist. *)
let map ?verify ?cells subject objective =
  let m = map_unchecked ?cells subject objective in
  let mode = Verify.resolve verify in
  if mode <> `Off then Verify.equivalent ~mode ~pass:"Mapper.map" subject m.net;
  m

let instances m =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ ch ->
      let n = ch.cell.Techlib.cell_name in
      let c = Option.value (Hashtbl.find_opt tbl n) ~default:0 in
      Hashtbl.replace tbl n (c + 1))
    m.choice;
  List.sort compare (Hashtbl.fold (fun n c acc -> (n, c) :: acc) tbl [])

let total_area m =
  Hashtbl.fold (fun _ ch acc -> acc +. ch.cell.Techlib.area) m.choice 0.0

let choices m =
  Hashtbl.fold
    (fun si ch acc -> (Hashtbl.find m.signal si, ch.cell) :: acc)
    m.choice []
  |> List.sort (fun (a, _) (b, _) -> compare (a : Network.id) b)

let critical_delay m = Network.critical_delay m.net

let switched_capacitance m ~input_probs =
  Activity.switched_capacitance m.net (netlist_activity m ~input_probs)
