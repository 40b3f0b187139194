(* Output oracle: the independent Volcano interpreter
   ([Aeq_baseline.Volcano]) answers every distinct text the run sent,
   outside the timed region. Results compare as digests of the sorted
   bag of rendered rows, the same cell rendering the wire sends; a run
   keeps only the digest of each result, so the rows it has seen do
   not pile up in the process being measured. *)

type answer = (Digest.t, string) result

let digest lines = Digest.string (String.concat "\n" (List.sort compare lines))

let render catalog dtypes rows =
  digest
    (List.map
       (fun r -> String.concat "\t" (Aeq_exec.Driver.row_to_strings catalog dtypes r))
       rows)

let of_engine catalog (r : Aeq_exec.Driver.result) = render catalog r.dtypes r.rows
let of_wire rows = digest (List.map (String.concat "\t") rows)

let reference catalog text : answer =
  match Aeq_plan.Planner.plan_sql catalog text with
  | plan -> (
    match Aeq_baseline.Volcano.execute catalog plan with
    | rows -> Ok (render catalog plan.Aeq_plan.Physical.pl_out.out_dtypes rows)
    | exception e -> Error (Printexc.to_string e))
  | exception e -> Error (Printexc.to_string e)

(* Answer every distinct text on two domains (the engine is idle). *)
let answers catalog texts =
  let distinct = Hashtbl.create 256 in
  List.iter (fun t -> Hashtbl.replace distinct t ()) texts;
  let todo = Array.of_seq (Hashtbl.to_seq_keys distinct) in
  let out = Array.make (Array.length todo) (Error "unanswered") in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length todo then begin
      out.(i) <- reference catalog todo.(i);
      work ()
    end
  in
  let helper = Domain.spawn work in
  work ();
  Domain.join helper;
  let tbl = Hashtbl.create (Array.length todo) in
  Array.iteri (fun i t -> Hashtbl.replace tbl t out.(i)) todo;
  tbl

(* Number of (text, digest) observations that disagree with the
   reference. *)
let mismatches tbl observed =
  List.fold_left
    (fun bad (text, rows) ->
      match Hashtbl.find_opt tbl text with
      | Some (Ok expected) when expected = rows -> bad
      | _ -> bad + 1)
    0 observed
