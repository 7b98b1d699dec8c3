type t = {
  fsm_name : string;
  num_inputs : int;
  num_outputs : int;
  next_tbl : int array array;
  out_tbl : int array array;
}

let create ?(name = "fsm") ~num_states ~num_inputs ~num_outputs ~next
    ~output () =
  if num_states <= 0 then invalid_arg "Stg.create: no states";
  if num_inputs < 0 || num_inputs > 12 then
    invalid_arg "Stg.create: input bits must be in [0, 12]";
  if num_outputs < 0 then invalid_arg "Stg.create: negative output bits";
  let codes = 1 lsl num_inputs in
  let next_tbl =
    Array.init num_states (fun s ->
        Array.init codes (fun i ->
            let n = next s i in
            if n < 0 || n >= num_states then
              invalid_arg "Stg.create: next state out of range";
            n))
  in
  let out_tbl =
    Array.init num_states (fun s ->
        Array.init codes (fun i ->
            let o = output s i in
            if o < 0 || o >= 1 lsl num_outputs then
              invalid_arg "Stg.create: output out of range";
            o))
  in
  { fsm_name = name; num_inputs; num_outputs; next_tbl; out_tbl }

let name t = t.fsm_name
let num_states t = Array.length t.next_tbl
let num_inputs t = t.num_inputs
let num_input_codes t = 1 lsl t.num_inputs
let num_outputs t = t.num_outputs
let next t s i = t.next_tbl.(s).(i)
let output t s i = t.out_tbl.(s).(i)

let has_self_loop t s i = next t s i = s

let reachable t ~from =
  let seen = Hashtbl.create 16 in
  let rec go s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      for i = 0 to num_input_codes t - 1 do
        go (next t s i)
      done
    end
  in
  go from;
  List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) seen [])

let edge_list t =
  List.concat
    (List.init (num_states t) (fun s ->
         List.init (num_input_codes t) (fun i ->
             (s, i, next t s i, output t s i))))

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf "fsm %s: %d states, %d input bits, %d output bits@,"
    t.fsm_name (num_states t) t.num_inputs t.num_outputs;
  List.iter
    (fun (s, i, n, o) ->
      Format.fprintf ppf "  s%d --%d/%d--> s%d@," s i o n)
    (edge_list t);
  Format.pp_close_box ppf ()
