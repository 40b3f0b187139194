(* Host-speed calibration for the in-process workload.

   On a shared 2-vCPU host the same build runs tpch-adhoc at speeds
   that drift by tens of percent over minutes, and the drift is not
   steal time: the CPU the process gets is itself slower. A fixed
   kernel that calls nothing of the library runs between the passes of
   the closed loop, timed by each thread's own CPU clock (so another
   domain of the process competing for the CPU does not slow it), and
   the pass's timings are reported scaled to a host on which the
   kernel takes [reference] seconds. A change to the engine moves the
   scaled figures; a change of the host's speed mostly does not. *)

external thread_cpu_seconds : unit -> float = "perfbench_thread_cpu_seconds"

let reference = 0.020

(* integer and float arithmetic behind a small dispatch, no allocation:
   ~20 ms of one 2-vCPU host's CPU *)
let work () =
  let acc = ref 0 and fl = ref 0.0 in
  for i = 1 to 8_000_000 do
    match i land 3 with
    | 0 -> acc := !acc + (i * 7)
    | 1 -> fl := !fl +. (float_of_int i *. 0.5)
    | 2 -> acc := !acc lxor (i lsr 3)
    | _ -> fl := !fl *. 0.999
  done;
  !acc + int_of_float !fl

let timed () =
  let c0 = thread_cpu_seconds () in
  ignore (Sys.opaque_identity (work ()));
  thread_cpu_seconds () -. c0

(* the kernel on the calling domain and one more; mean CPU seconds *)
let seconds () =
  let d = Domain.spawn timed in
  let mine = timed () in
  (mine +. Domain.join d) /. 2.0
