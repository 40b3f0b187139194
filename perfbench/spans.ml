(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into each
   layer's public function; nothing inside the library is
   instrumented. Recording is single-threaded (the calling thread owns
   the parent stack) and does nothing while [enabled] is false, which
   is how the untraced twin of each traced request runs. *)

type span = {
  id : int;
  name : string;
  req : int;  (** request id shared by every span of one request *)
  parent : int;  (** -1 for a root *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : (int * int) list ref = ref []  (* (span id, request id) *)

let now = Unix.gettimeofday

let with_span ?req name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, inherited = match !stack with (p, r) :: _ -> (p, r) | [] -> (-1, -1) in
    let req = match req with Some r -> r | None -> inherited in
    stack := (id, req) :: !stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        stack := List.tl !stack;
        recorded := { id; name; req; parent; t0; t1 } :: !recorded)
      f
  end

let all () = List.rev !recorded
let duration s = s.t1 -. s.t0

(* self time: the span's duration minus the part its children cover
   (children of one parent never overlap: recording is sequential) *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

let dump path spans =
  let oc = open_out path in
  output_string oc "id\tname\treq\tparent\tstart_s\tend_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%.9f\t%.9f\n" s.id s.name s.req s.parent s.t0 s.t1)
    spans;
  close_out oc
