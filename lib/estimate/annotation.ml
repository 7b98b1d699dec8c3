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

(* Same SplitMix64-style finisher as Network.structural_hash (constants
   truncated to OCaml's 63-bit native int), local so the estimate layer
   does not grow a dependency for three lines of mixing. *)
let mix z =
  let z = (z * 0x1E3779B97F4A7C15) + 0x165667B19E3779F9 in
  let z = (z lxor (z lsr 29)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 31)) * 0x27D4EB2F165667C5 in
  (z lxor (z lsr 30)) land max_int

let combine h x = mix ((h * 0x100000001B3) lxor x)

let trace_fingerprint trace =
  let width = match trace with [] -> 0 | v :: _ -> Array.length v in
  let h = ref (combine (mix width) (List.length trace)) in
  (* Pack the bit stream 62 per word so the hash touches every bit while
     mixing once per word, not once per bit. *)
  let word = ref 0 and fill = ref 0 in
  List.iter
    (fun vec ->
      Array.iter
        (fun b ->
          if b then word := !word lor (1 lsl !fill);
          incr fill;
          if !fill = 62 then begin
            h := combine !h !word;
            word := 0;
            fill := 0
          end)
        vec)
    trace;
  if !fill > 0 then h := combine !h !word;
  !h
