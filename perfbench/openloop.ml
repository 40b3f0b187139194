(* Open-loop wire load generator built on [Aeq_net.Client] alone.

   Arrivals are precomputed; [connections] threads, one session each,
   take the next arrival from a shared cursor, sleep until it is due
   and send it whether or not earlier requests have finished. Latency
   runs from the scheduled instant (so a stall is charged to every
   request it delays), and each request's send lateness is kept. Raw
   per-request times are kept, so percentiles are exact. *)

module Client = Aeq_net.Client

type request = { due : float;  (** seconds after the phase start *) tmpl : int; text : string }

type outcome =
  | Not_sent
  | Rows of Digest.t  (** [Oracle.of_wire] of the rows, taken after the reply is timed *)
  | Failed of string

type result = {
  t_start : float;  (** absolute phase start *)
  sent : float array;  (** absolute send instants; nan when not sent *)
  finished : float array;
  outcomes : outcome array;
}

(* n arrivals of a Poisson process conditioned on n events in
   [0, span): sorted uniform instants *)
let schedule rng ~rate ~span =
  let n = Stdlib.max 1 (int_of_float (Float.round (rate *. span))) in
  let a = Array.init n (fun _ -> Gen.Rng.float rng *. span) in
  Array.sort compare a;
  a

let connect port =
  match Client.connect ~port () with
  | Ok c -> c
  | Error e -> failwith ("connect: " ^ Client.error_to_string e)

(* [stop_after]: no request is started later than this many seconds
   after the phase start (bounds an overloaded phase) *)
let run ~port ~connections ?(stop_after = infinity) (reqs : request array) =
  let n = Array.length reqs in
  let sent = Array.make n Float.nan and finished = Array.make n Float.nan in
  let outcomes = Array.make n Not_sent in
  let clients = Array.init connections (fun _ -> connect port) in
  let cursor = Atomic.make 0 in
  let t_start = Unix.gettimeofday () +. 0.02 in
  let worker c =
    let c = ref c in
    let rec loop () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        let due = t_start +. reqs.(i).due in
        let wait = due -. Unix.gettimeofday () in
        if wait > 0.0 then Unix.sleepf wait;
        let t = Unix.gettimeofday () in
        if t -. t_start <= stop_after then begin
          sent.(i) <- t;
          let reply = Client.execute !c reqs.(i).text in
          finished.(i) <- Unix.gettimeofday ();
          (match reply with
          | Ok r -> outcomes.(i) <- Rows (Oracle.of_wire r.Client.rows)
          | Error e ->
            outcomes.(i) <- Failed (Client.error_to_string e);
            (match e with
            | Client.Transport _ ->
              Client.close !c;
              c := connect port
            | Client.Wire _ -> ()));
          loop ()
        end
      end
    in
    loop ();
    Client.close !c
  in
  let threads = Array.map (Thread.create worker) clients in
  Array.iter Thread.join threads;
  { t_start; sent; finished; outcomes }
