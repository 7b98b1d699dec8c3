type mode = [ `Sat | `Off ]

exception Failed of string

let default () : mode =
  match Sys.getenv_opt "LOWPOWER_VERIFY" with
  | None | Some ("" | "off") -> `Off
  | Some "sat" -> `Sat
  | Some v ->
    invalid_arg
      (Printf.sprintf "LOWPOWER_VERIFY=%S: expected sat, off or empty" v)

let resolve = function Some m -> m | None -> default ()

let vec_to_string vec =
  String.init (Array.length vec) (fun i -> if vec.(i) then '1' else '0')

let fail pass what vec =
  raise
    (Failed
       (Printf.sprintf "%s: %s (counterexample inputs %s)" pass what
          (vec_to_string vec)))

let equivalent ?mode ~pass before after =
  match resolve mode with
  | `Off -> ()
  | `Sat -> (
    match Cec.check before after with
    | Cec.Equivalent -> ()
    | Cec.Counterexample vec ->
      fail pass "pass changed circuit behaviour" vec)

let never_true ?mode ~pass net out =
  match resolve mode with
  | `Off -> ()
  | `Sat -> (
    match Cec.satisfiable net out with
    | None -> ()
    | Some vec -> fail pass ("obligation output " ^ out ^ " is satisfiable") vec)
