type t = {
  ids : int array; (* ascending — the Compiled / Actsim index convention *)
  index : (Network.id, int) Hashtbl.t;
  counts : int array;
  caps : float array; (* snapshotted: annotations outlive network edits *)
  ncycles : int;
  in_probs : float array; (* measured ones fraction per input position *)
  in_toggles : int array; (* measured toggles per input position *)
}

let of_actsim sim =
  let net = Actsim.network sim in
  let ids = Actsim.ids sim in
  let index = Hashtbl.create (2 * Array.length ids) in
  Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
  let ncycles = Actsim.cycles sim in
  {
    ids;
    index;
    counts = Actsim.counts sim;
    caps = Array.map (Network.cap net) ids;
    ncycles;
    in_probs =
      Array.of_list
        (List.map
           (fun id -> float_of_int (Actsim.ones sim id) /. float_of_int ncycles)
           (Network.inputs net));
    in_toggles =
      Array.of_list
        (List.map (fun id -> Actsim.toggles sim id) (Network.inputs net));
  }

let measure net ~trace = of_actsim (Actsim.create net ~trace)

let cycles a = a.ncycles
let size a = Array.length a.ids
let ids a = Array.copy a.ids

let index_of a id =
  match Hashtbl.find_opt a.index id with
  | Some x -> x
  | None -> invalid_arg "Annotation: node id not annotated"

let toggles a id = a.counts.(index_of a id)

let denom a = float_of_int (max 1 (a.ncycles - 1))
let rate a id = float_of_int (toggles a id) /. denom a

let activity a =
  let tbl = Hashtbl.create (2 * Array.length a.ids) in
  let d = denom a in
  Array.iteri
    (fun i id -> Hashtbl.replace tbl id (float_of_int a.counts.(i) /. d))
    a.ids;
  tbl

let input_probs a = Array.copy a.in_probs

let switched_capacitance a =
  let acc = ref 0.0 in
  Array.iteri
    (fun i c -> acc := !acc +. (a.caps.(i) *. float_of_int c))
    a.counts;
  !acc /. denom a

let ranked a =
  let pairs = Array.to_list (Array.mapi (fun i id -> (id, a.counts.(i))) a.ids) in
  List.sort
    (fun (i1, c1) (i2, c2) ->
      if c1 <> c2 then compare c2 c1 else compare i1 i2)
    pairs

let bdd_input_order a =
  let order = Array.init (Array.length a.in_toggles) (fun k -> k) in
  Array.sort
    (fun k1 k2 ->
      let c1 = a.in_toggles.(k1) and c2 = a.in_toggles.(k2) in
      if c1 <> c2 then compare c2 c1 else compare k1 k2)
    order;
  order
