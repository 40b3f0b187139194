(* The repository benchmark: two workloads, end-to-end metrics with
   tracing off, and a traced run that builds a per-layer ledger from
   spans the benchmark records around its own calls into each layer.

   bench.exe --workload meta-wire|tpch-adhoc --seed N
             --seconds S --trace 0|1 [--spans-out FILE]

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the line before it
   records provenance (seed, text hash, host, scale factor, threads,
   sample counts). *)

module Engine = Aeq.Engine
module Driver = Aeq_exec.Driver
module Scheduler = Aeq_exec.Scheduler
module Query_error = Aeq_exec.Query_error
module CM = Aeq_backend.Cost_model
module P = Aeq_plan.Physical
module Catalog = Aeq_storage.Catalog
module Server = Aeq_net.Server
module Client = Aeq_net.Client
module Protocol = Aeq_net.Protocol
module Func = Aeq_ir.Func

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* linearly interpolated quantile *)
let quantile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5
let sum l = List.fold_left ( +. ) 0.0 l
let sumi l = List.fold_left ( + ) 0 l

let geomean l =
  match l with
  | [] -> Float.nan
  | _ -> exp (sum (List.map log l) /. float_of_int (List.length l))

let ms x = x *. 1e3
let us x = x *. 1e6

(* the median of each template's (template, value) samples *)
let template_medians n_templates (samples : (int * float) list) =
  let per = Array.make n_templates [] in
  List.iter (fun (t, v) -> per.(t) <- v :: per.(t)) samples;
  List.filter_map (function [] -> None | l -> Some (median l)) (Array.to_list per)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------------------------------------------------ *)
(* workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = Meta_wire | Tpch_adhoc

let workloads = [ ("meta-wire", Meta_wire); ("tpch-adhoc", Tpch_adhoc) ]

let workload_of_string s =
  match List.assoc_opt s workloads with
  | Some w -> w
  | None -> raise (Arg.Bad ("unknown workload " ^ s))

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let scale_factor = function Meta_wire -> 0.01 | Tpch_adhoc -> 0.05

(* A run measures in [segments w] processes of its own, one after the
   other: on a 2-core host one process of the same build reads up to
   15% faster or slower than the next, consistently over its life, so
   a run pools several. Every set-up is a [setup_s] sample. *)
let segments = function Meta_wire -> 4 | Tpch_adhoc -> 8
let setups_per_segment = function Meta_wire -> 3 | Tpch_adhoc -> 2

let generator w ~seed =
  match w with
  | Meta_wire -> Gen.meta ~seed
  | Tpch_adhoc -> Gen.tpch ~seed

(* Whether a workload's timings are scaled to the reference host
   ([Calib]). meta-wire's are not: the server's 2 ms poll slice, not the
   CPU's speed, governs its latencies, and they did not drift with the
   host. *)
let calibrated = function Meta_wire -> false | Tpch_adhoc -> true

(* warm-up templates: the first executions of a process run ~2x slower *)
let warmup_templates = function
  | Meta_wire -> []
  | Tpch_adhoc -> List.init 22 Fun.id

(* the light and saturating offered rates of meta-wire, 2 connections *)
let light_qps = 100.0
let saturating_qps = 2000.0
let connections = 2

type env = { engine : Engine.t; mutable server : Server.t option }

let start_server engine = Server.start ~config:{ Server.default_config with port = 0 } engine

let setup w =
  let t0 = now () in
  let engine = Engine.create () in
  Engine.load_tpch engine ~scale_factor:(scale_factor w);
  let server = if w = Meta_wire then Some (start_server engine) else None in
  ({ engine; server }, now () -. t0)

let teardown env =
  Option.iter Server.stop env.server;
  Engine.close env.engine

let setup_times = ref []
let current = ref None

(* tear down the previous engine, if any, and set up a fresh one; the
   set-up is timed, and on a calibrated workload scaled by the kernels
   run just before and after it *)
let fresh w =
  Option.iter
    (fun env ->
      teardown env;
      Gc.full_major ())
    !current;
  let calib () = if calibrated w then Calib.seconds () else Calib.reference in
  let before = calib () in
  let env, dt = setup w in
  let scale = Calib.reference /. (0.5 *. (before +. calib ())) in
  setup_times := (dt, scale) :: !setup_times;
  current := Some env;
  env

let port env =
  match env.server with
  | Some s -> Server.port s
  | None ->
    let s = start_server env.engine in
    env.server <- Some s;
    Server.port s

(* What a run accumulates for the oracle and the failure count. *)
type tally = {
  mutable attempted : int;
  mutable errors : int;
  mutable observed : (string * Digest.t) list;  (** text, digest of its rendered rows *)
}

let tally = { attempted = 0; errors = 0; observed = [] }

let observe text rows = tally.observed <- (text, rows) :: tally.observed

(* ------------------------------------------------------------------ *)
(* in-process closed loop                                              *)
(* ------------------------------------------------------------------ *)

type exec = { tmpl : int; latency : float }

let query env text =
  let catalog = Engine.catalog env.engine in
  tally.attempted <- tally.attempted + 1;
  let t0 = now () in
  match Engine.query env.engine ~mode:Driver.Adaptive text with
  | r ->
    let dt = now () -. t0 in
    observe text (Oracle.of_engine catalog r);
    Some (r, dt)
  | exception Query_error.Error _ ->
    tally.errors <- tally.errors + 1;
    None

(* One client sends the next query as soon as the previous returns.
   It runs whole passes over the templates, so every template weighs
   the same in every run; a further pass starts only if the mean pass
   so far still fits in [seconds]. [between] runs after each pass,
   outside its timing. Returns (executions, wall seconds, what
   [between] returned) per pass. *)
let closed_loop env gen ~seconds ~between =
  let n = Gen.n_templates gen in
  let t0 = now () in
  let pass () =
    let p0 = now () in
    let execs =
      List.filter_map
        (fun tmpl ->
          Option.map (fun (_, latency) -> { tmpl; latency }) (query env (Gen.next gen tmpl)))
        (List.init n Fun.id)
    in
    let wall = now () -. p0 in
    (execs, wall, between ())
  in
  let rec go k acc =
    let elapsed = now () -. t0 in
    if k > 0 && elapsed +. (elapsed /. float_of_int k) > seconds then List.rev acc
    else go (k + 1) (pass () :: acc)
  in
  go 0 []

let warmup env gen w =
  List.iter (fun tmpl -> ignore (query env (Gen.next gen tmpl))) (warmup_templates w)

(* ------------------------------------------------------------------ *)
(* open loop over the wire                                             *)
(* ------------------------------------------------------------------ *)

let arrivals gen rng ~rate ~span =
  Array.map
    (fun due ->
      let tmpl = Gen.Rng.int rng (Gen.n_templates gen) in
      { Openloop.due; tmpl; text = Gen.next gen tmpl })
    (Openloop.schedule rng ~rate ~span)

type wire_phase = {
  latencies : (int * float) list;  (** template, seconds from due to reply *)
  lateness : float list;
  completed : int;
  wall : float;  (** phase start to last reply *)
}

let open_loop env reqs ?stop_after () =
  let r = Openloop.run ~port:(port env) ~connections ?stop_after reqs in
  let lat = ref [] and late = ref [] and completed = ref 0 and last = ref r.t_start in
  Array.iteri
    (fun i (req : Openloop.request) ->
      let due = r.t_start +. req.due in
      match r.outcomes.(i) with
      | Openloop.Not_sent -> ()
      | Openloop.Failed _ ->
        tally.attempted <- tally.attempted + 1;
        tally.errors <- tally.errors + 1
      | Openloop.Rows digest ->
        tally.attempted <- tally.attempted + 1;
        observe req.text digest;
        incr completed;
        lat := (req.tmpl, r.finished.(i) -. due) :: !lat;
        late := (r.sent.(i) -. due) :: !late;
        if r.finished.(i) > !last then last := r.finished.(i))
    reqs;
  { latencies = !lat; lateness = !late; completed = !completed; wall = !last -. r.t_start }

(* ------------------------------------------------------------------ *)
(* end-to-end run (tracing off)                                         *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* One segment, in its own process: [span] seconds of the workload on
   a fresh engine, reported as raw samples, one per line, for the
   parent to pool:
     lat <template> <seconds> <scale>   a latency sample
     sat <completed> <wall> <scale>     completions under saturating
                                        load: meta-wire's saturating
                                        phase, or one pass of the
                                        in-process closed loop
     calib <seconds>                    a calibration kernel's time
   [scale] turns the measured seconds into seconds on the reference
   host ([Calib]); it is 1 where the workload is not [calibrated]. *)
let segment w ~seed ~span gen =
  let env = fresh w in
  let out = Buffer.create 65536 in
  let line fmt = Printf.bprintf out fmt in
  let calib () =
    let k = Calib.seconds () in
    line "calib %.9f\n" k;
    k
  in
  (match w with
  | Meta_wire ->
    let rng = Gen.Rng.make (seed + 7919) in
    ignore (open_loop env (arrivals gen rng ~rate:light_qps ~span:0.5) ());
    let light = open_loop env (arrivals gen rng ~rate:light_qps ~span:(0.5 *. span)) () in
    let sat_span = 0.4 *. span in
    let sat =
      open_loop env (arrivals gen rng ~rate:saturating_qps ~span:sat_span) ~stop_after:sat_span ()
    in
    List.iter (fun (t, v) -> line "lat %d %.9f 1\n" t v) light.latencies;
    line "sat %d %.9f 1\n" sat.completed sat.wall
  | Tpch_adhoc ->
    warmup env gen w;
    (* each pass is scaled by the kernels run just before and after it *)
    let before = calib () in
    ignore
      (List.fold_left
         (fun before (execs, wall, after) ->
           let scale = Calib.reference /. (0.5 *. (before +. after)) in
           List.iter (fun e -> line "lat %d %.9f %.9f\n" e.tmpl e.latency scale) execs;
           line "sat %d %.9f %.9f\n" (List.length execs) wall scale;
           after)
         before
         (closed_loop env gen ~seconds:span ~between:calib)));
  Buffer.contents out

(* samples as (template or count, seconds, scale) *)
type pooled = { lats : (int * float * float) list; sats : (int * float * float) list }

(* p50_ms, geomean_ms and throughput_qps of the pooled samples, their
   seconds scaled to the reference host or as measured *)
let figures w n_templates p ~scaled =
  let secs (x, v, k) = (x, if scaled then v *. k else v) in
  let lats = List.map secs p.lats and sats = List.map secs p.sats in
  let medians = template_medians n_templates lats in
  let p50 =
    match w with
    | Meta_wire -> median (List.map snd lats)
    (* the typical template: median over templates of their medians *)
    | Tpch_adhoc -> median medians
  in
  ( ms p50,
    (* the Fig. 13 statistic *)
    ms (geomean medians),
    (* meta-wire: the saturating phase (the light phase completes what
       it is offered); in-process: a single closed-loop client keeps the
       engine saturated *)
    float_of_int (sumi (List.map fst sats)) /. sum (List.map snd sats) )

let end_to_end w n_templates p ~calib =
  let p50, geo, qps = figures w n_templates p ~scaled:true in
  let raw_p50, raw_geo, raw_qps = figures w n_templates p ~scaled:false in
  let n = List.length p.lats and completed = sumi (List.map (fun (c, _, _) -> c) p.sats) in
  ( [ m "p50_ms" "ms" p50; m "geomean_ms" "ms" geo; m "throughput_qps" "1/s" qps ],
    [
      ("p50_ms", n); ("geomean_ms", n); ("throughput_qps", completed); ("calib", List.length calib);
    ],
    [
      ("p99_ms", ms (quantile (List.map (fun (_, v, _) -> v) p.lats) 0.99));
      ("measured_p50_ms", raw_p50);
      ("measured_geomean_ms", raw_geo);
      ("measured_throughput_qps", raw_qps);
      ("calib_ms", ms (median calib));
    ] )

(* ------------------------------------------------------------------ *)
(* traced run: the per-layer ledger                                     *)
(* ------------------------------------------------------------------ *)

let timed name f =
  let t0 = now () in
  let r = Spans.with_span name f in
  (r, now () -. t0)

let input_tuples (plan : P.t) =
  sumi
    (List.map
       (fun (p : P.pipeline) ->
         match p.P.p_source with
         | P.Src_scan { tref } -> (fst plan.P.pl_trefs.(tref)).Aeq_storage.Table.n_rows
         | P.Src_agg_scan _ -> 0)
       plan.P.pl_pipelines)

(* the engine's cache-miss path, one layer call at a time *)
let replica env text ~req =
  let catalog = Engine.catalog env.engine in
  Spans.with_span ~req "request" (fun () ->
      let ast = Spans.with_span "sql.parse" (fun () -> Aeq_sql.Parser.parse text) in
      let plan = Spans.with_span "plan.plan" (fun () -> Aeq_plan.Planner.plan catalog ast) in
      let prepared =
        Spans.with_span "exec.prepare" (fun () ->
            Driver.prepare ~cost_model:(Engine.cost_model env.engine) catalog plan
              ~n_threads:(Engine.n_threads env.engine))
      in
      let r, exec_wall =
        timed "exec.execute" (fun () ->
            Driver.execute_prepared prepared ~mode:Driver.Adaptive ~pool:(Engine.pool env.engine))
      in
      (plan, r, exec_wall))

type counts = { ir_instrs : int; bytecode_ops : int; reg_bytes : int }

type probe = {
  counts : counts;
  kinstr : float;
  codegen_s : float;
  translate_s : float;
  o2_s : float;
  instrs_after : int;
  unopt_real_s : float;
  opt_real_s : float;
  unopt_padded_s : float;
  exec_s : float * float * float;  (** bytecode, unopt, opt pipeline seconds *)
  tuples : int;
  regret : float;
}

let symbols env =
  let catalog = Engine.catalog env.engine in
  Aeq_rt.Symbols.resolver
    (Aeq_rt.Context.create ~arena:(Catalog.arena catalog) ~dict:(Catalog.dict catalog)
       ~n_threads:(Engine.n_threads env.engine) ())

let counts_of workers progs =
  {
    ir_instrs = sumi (List.map Func.n_instrs workers);
    bytecode_ops = sumi (List.map (fun p -> Array.length p.Aeq_vm.Bytecode.code) progs);
    reg_bytes = sumi (List.map (fun p -> p.Aeq_vm.Bytecode.n_reg_bytes) progs);
  }

(* the same counts, derived anew from the text: parse, plan, codegen,
   translate *)
let front_counts env text =
  let plan = Aeq_plan.Planner.plan (Engine.catalog env.engine) (Aeq_sql.Parser.parse text) in
  let workers = Aeq_codegen.Codegen.all_workers plan (P.layout plan) in
  let symbols = symbols env in
  counts_of workers (List.map (Aeq_vm.Translate.translate ~symbols) workers)

(* every layer of the front end and back end on one plan, each call in
   its own span; static executions give per-mode execution rates *)
let probe env plan ~adaptive_s ~req =
  Spans.with_span ~req "probe" (fun () ->
      let catalog = Engine.catalog env.engine in
      let arena = Catalog.arena catalog and pool = Engine.pool env.engine in
      let n_threads = Engine.n_threads env.engine in
      let model = Engine.cost_model env.engine in
      let symbols = symbols env in
      let workers, codegen_s =
        timed "codegen" (fun () -> Aeq_codegen.Codegen.all_workers plan (P.layout plan))
      in
      let each name f = List.split (List.map (fun w -> timed name (fun () -> f w)) workers) in
      let progs, tr = each "vm.translate" (Aeq_vm.Translate.translate ~symbols) in
      let after, o2 =
        each "passes.o2" (fun f ->
            let c = Func.copy f in
            Aeq_passes.Pass_manager.optimize Aeq_passes.Pass_manager.O2 c;
            Func.n_instrs c)
      in
      let compile mode f =
        (Aeq_backend.Compiler.compile ~cost_model:CM.off ~symbols ~mem:arena ~mode f)
          .Aeq_backend.Compiler.compile_seconds
      in
      let unopt_real, _ = each "backend.compile.unopt" (compile CM.Unopt) in
      let opt_real, _ = each "backend.compile.opt" (compile CM.Opt) in
      let run name p mode =
        timed name (fun () -> Driver.execute_prepared p ~mode ~pool)
      in
      let p_model = Driver.prepare ~cost_model:model catalog plan ~n_threads in
      let bc, bc_wall = run "exec.static.bytecode" p_model Driver.Bytecode in
      let un, un_wall = run "exec.static.unopt" p_model Driver.Unopt in
      let p_real = Driver.prepare ~cost_model:CM.off catalog plan ~n_threads in
      let op, op_wall = run "exec.static.opt" p_real Driver.Opt in
      let instrs = List.map Func.n_instrs workers in
      (* static Opt priced with the modelled compile it would pay *)
      let op_modelled =
        op_wall -. op.Driver.stats.compile_seconds
        +. sum (List.map (CM.compile_time model CM.Opt) instrs)
      in
      let best = Float.min bc_wall (Float.min un_wall op_modelled) in
      ( {
          counts = counts_of workers progs;
          kinstr = float_of_int (sumi instrs) /. 1e3;
          codegen_s;
          translate_s = sum tr;
          o2_s = sum o2;
          instrs_after = sumi after;
          unopt_real_s = sum unopt_real;
          opt_real_s = sum opt_real;
          unopt_padded_s = un.Driver.stats.compile_seconds;
          exec_s = (bc.stats.exec_seconds, un.stats.exec_seconds, op.stats.exec_seconds);
          tuples = input_tuples plan;
          regret = adaptive_s /. best;
        },
        [ bc; un; op ] ))

(* [rounds] passes over the templates, in ledger order *)
let ledger_rounds = function Meta_wire -> 10 | Tpch_adhoc -> 1
let wire_rounds = function Meta_wire -> 2 | Tpch_adhoc -> 1
let wire_reps = function Meta_wire -> 5 | Tpch_adhoc -> 2

type ledger_row = {
  l_tmpl : int;
  l_text : string;
  traced_s : float;
  untraced_s : float;
  result : Driver.result;
  pr : probe;
}

let ledger env gen w =
  let catalog = Engine.catalog env.engine in
  let n_t = Gen.n_templates gen in
  let req = ref 0 in
  List.concat_map
    (fun _ ->
      List.map
        (fun tmpl ->
          (* untraced twin: same template, its own literals *)
          let twin = Gen.next gen tmpl and text = Gen.next gen tmpl in
          Spans.enabled := false;
          tally.attempted <- tally.attempted + 1;
          let (_, r_twin, _), untraced_s = timed "request" (fun () -> replica env twin ~req:(-1)) in
          observe twin (Oracle.of_engine catalog r_twin);
          Spans.enabled := true;
          incr req;
          tally.attempted <- tally.attempted + 1;
          let t0 = now () in
          let plan, r, exec_wall = replica env text ~req:!req in
          let traced_s = now () -. t0 in
          observe text (Oracle.of_engine catalog r);
          let pr, statics = probe env plan ~adaptive_s:exec_wall ~req:!req in
          List.iter
            (fun s ->
              tally.attempted <- tally.attempted + 1;
              observe text (Oracle.of_engine catalog s))
            statics;
          { l_tmpl = tmpl; l_text = text; traced_s; untraced_s; result = r; pr })
        (List.init n_t Fun.id))
    (List.init (ledger_rounds w) Fun.id)

type wire_row = {
  rtt : float list;
  inproc : float list;
  waits : float list;
  handoffs : float list;
  codec : float;
  bytes : int;
  bytes_again : int;
}

let frame_payload f = String.sub f 4 (String.length f - 4)

let response_frame (rows : string list list) names dtypes =
  Protocol.encode_response
    (Protocol.Result
       { names; dtypes; total_rows = List.length rows; rows; more = false; exec_seconds = 0.0 })

(* wire round trip vs in-process submit+await of the same (cached)
   text, alternating, plus the codec cost of its frames *)
let wire_stage env gen w =
  let catalog = Engine.catalog env.engine in
  let client = Openloop.connect (port env) in
  let n_t = Gen.n_templates gen in
  let rows =
    List.concat_map
      (fun _ ->
        List.map
          (fun tmpl ->
            let text = Gen.next gen tmpl in
            ignore (query env text);
            let rtt = ref [] and inproc = ref [] and waits = ref [] and handoffs = ref [] in
            let wire_rows = ref None and engine_rows = ref None in
            for _ = 1 to wire_reps w do
              tally.attempted <- tally.attempted + 2;
              (match timed "net.wire" (fun () -> Client.execute client text) with
              | Ok r, dt ->
                rtt := dt :: !rtt;
                wire_rows := Some r;
                observe text (Oracle.of_wire r.Client.rows)
              | Error _, _ -> tally.errors <- tally.errors + 1);
              let t0 = now () in
              let tk = Spans.with_span "core.submit" (fun () -> Engine.submit env.engine text) in
              let out = Spans.with_span "exec.await" (fun () -> Scheduler.await tk) in
              let dt = now () -. t0 in
              match out with
              | Ok r ->
                inproc := dt :: !inproc;
                let wait = Scheduler.wait_seconds tk in
                waits := wait :: !waits;
                handoffs := (dt -. wait -. r.Driver.stats.total_seconds) :: !handoffs;
                engine_rows := Some r;
                observe text (Oracle.of_engine catalog r)
              | Error _ -> tally.errors <- tally.errors + 1
            done;
            let codec, bytes, bytes_again =
              match (!wire_rows, !engine_rows) with
              | Some wr, Some er ->
                let req_frame = Protocol.encode_request (Protocol.Execute text) in
                let resp = response_frame wr.Client.rows wr.Client.names wr.Client.dtypes in
                let again =
                  response_frame
                    (List.map (String.split_on_char '\t') (Engine.render_rows env.engine er))
                    er.Driver.names
                    (List.map Aeq_storage.Dtype.to_string er.Driver.dtypes)
                in
                let one () =
                  let t0 = now () in
                  let rq = Protocol.encode_request (Protocol.Execute text) in
                  ignore (Protocol.decode_request (frame_payload rq));
                  let rs = response_frame wr.Client.rows wr.Client.names wr.Client.dtypes in
                  ignore (Protocol.decode_response (frame_payload rs));
                  now () -. t0
                in
                let codec =
                  Spans.with_span "net.codec" (fun () -> median (List.init 21 (fun _ -> one ())))
                in
                let len f = String.length req_frame + String.length f in
                (codec, len resp, len again)
              | _ -> (Float.nan, 0, -1)
            in
            {
              rtt = !rtt;
              inproc = !inproc;
              waits = !waits;
              handoffs = !handoffs;
              codec;
              bytes;
              bytes_again;
            })
          (List.init n_t Fun.id))
      (List.init (wire_rounds w) Fun.id)
  in
  Client.close client;
  rows

type stream = {
  hit_ratio : float;
  arena_peak_mb : float;
  minor_per_q : float;
  major_per_q : float;
  alloc_mb_per_q : float;
  lateness : float list;
}

(* the workload's own request stream, untraced, watched from outside:
   plan-cache counters, GC counters and a sampler of the arena's
   resident bytes *)
let stream_stage w ~seed ~seconds env gen =
  let arena = Catalog.arena (Engine.catalog env.engine) in
  let stop = Atomic.make false and peak = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let r = Aeq_mem.Arena.resident_bytes arena in
          if r > Atomic.get peak then Atomic.set peak r;
          Unix.sleepf 0.0005
        done)
  in
  let c0 = Engine.cache_stats env.engine and g0 = Gc.quick_stat () in
  let queries, lateness =
    match w with
    | Meta_wire ->
      let rng = Gen.Rng.make (seed + 104729) in
      let ph = open_loop env (arrivals gen rng ~rate:light_qps ~span:seconds) () in
      (ph.completed, ph.lateness)
    | Tpch_adhoc ->
      let passes = closed_loop env gen ~seconds ~between:ignore in
      let execs = List.concat_map (fun (e, _, ()) -> e) passes in
      (* a closed loop sends each request the instant it is due *)
      (List.length execs, [ 0.0 ])
  in
  let g1 = Gc.quick_stat () and c1 = Engine.cache_stats env.engine in
  Atomic.set stop true;
  Domain.join sampler;
  let q = float_of_int (Stdlib.max 1 queries) in
  let hits = c1.Engine.hits - c0.Engine.hits and misses = c1.Engine.misses - c0.Engine.misses in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  {
    hit_ratio = float_of_int hits /. float_of_int (Stdlib.max 1 (hits + misses));
    arena_peak_mb = float_of_int (Atomic.get peak) /. 1048576.0;
    minor_per_q = float_of_int (g1.minor_collections - g0.minor_collections) /. q;
    major_per_q = float_of_int (g1.major_collections - g0.major_collections) /. q;
    alloc_mb_per_q = (words g1 -. words g0) *. 8.0 /. 1048576.0 /. q;
    lateness;
  }

exception Check_failed of string

(* Each stage draws from its own generator: the time-bounded stream
   consumes a varying number of texts, and the ledger and wire stages
   must see the same texts in every run of a seed. *)
let per_layer w ~seed ~seconds env (gen, ledger_gen, wire_gen) =
  let s0 = Engine.scheduler_stats env.engine in
  let st = stream_stage w ~seed ~seconds:(0.25 *. seconds) env gen in
  let rows = ledger env ledger_gen w in
  let wire = wire_stage env wire_gen w in
  let s1 = Engine.scheduler_stats env.engine in
  Spans.enabled := false;
  (* miss-path figures must be real measurements, never a cache hit's 0 *)
  List.iter
    (fun r ->
      let p = r.pr in
      List.iter
        (fun (what, v) ->
          if not (v > 0.0) then
            raise
              (Check_failed
                 (Printf.sprintf "%s reads %g on a miss (%s)" what v gen.Gen.names.(r.l_tmpl))))
        [
          ("codegen", p.codegen_s);
          ("translate", p.translate_s);
          ("compile unopt", p.unopt_real_s);
          ("compile opt", p.opt_real_s);
          ("padded compile", p.unopt_padded_s);
        ])
    rows;
  (* count metrics over the first round; derived again from each text,
     they must repeat exactly. Two traced runs of one seed (same
     texts_md5) print the same counts. *)
  let first = List.filteri (fun i _ -> i < Gen.n_templates gen) rows in
  let counts = List.map (fun r -> r.pr.counts) first in
  let recount = List.map (fun r -> front_counts env r.l_text) first in
  if counts <> recount then
    raise (Check_failed "codegen/translate counts differ when derived again from the text");
  let first_wire = List.filteri (fun i _ -> i < Gen.n_templates gen) wire in
  List.iter
    (fun x ->
      if x.bytes <> x.bytes_again then
        raise (Check_failed "response bytes differ between the wire's rows and the engine's"))
    first_wire;
  (* ledger: self times of the request spans *)
  let selfs = Spans.self_times (Spans.all ()) in
  let self_of name =
    List.filter_map
      (fun ((s : Spans.span), t) -> if s.name = name && s.req > 0 then Some t else None)
      selfs
  in
  let roots = List.filter (fun ((s : Spans.span), _) -> s.name = "request" && s.parent < 0) selfs in
  let unattributed =
    sum (List.map snd roots) /. sum (List.map (fun (s, _) -> Spans.duration s) roots)
  in
  let probes = List.map (fun r -> r.pr) rows in
  let pm f = median (List.map f probes) in
  let bc (b, _, _) = b and un (_, u, _) = u and op (_, _, o) = o in
  let ns mode = pm (fun p -> mode p.exec_s *. 1e9 /. float_of_int (Stdlib.max 1 p.tuples)) in
  let speedup mode = geomean (List.map (fun p -> bc p.exec_s /. mode p.exec_s) probes) in
  let modes = List.concat_map (fun r -> r.result.Driver.final_cm_modes) rows in
  let share md =
    float_of_int (List.length (List.filter (( = ) md) modes))
    /. float_of_int (Stdlib.max 1 (List.length modes))
  in
  let all f = List.concat_map f wire in
  let c_sum f = float_of_int (sumi (List.map f counts)) in
  [
    m "net.overhead_ms" "ms"
      (ms
         (median
            (List.filter_map
               (fun x ->
                 if x.rtt = [] || x.inproc = [] then None
                 else Some (median x.rtt -. median x.inproc))
               wire)));
    m "net.protocol.codec_us" "us" (us (median (List.map (fun x -> x.codec) wire)));
    m "net.response_bytes" "bytes" (float_of_int (sumi (List.map (fun x -> x.bytes) first_wire)));
    m "net.send_lateness_ms.p50" "ms" (ms (median st.lateness));
    m "net.send_lateness_ms.p99" "ms" (ms (quantile st.lateness 0.99));
    m "exec.scheduler.queue_wait_ms.p50" "ms" (ms (median (all (fun x -> x.waits))));
    m "exec.scheduler.queue_wait_ms.p99" "ms" (ms (quantile (all (fun x -> x.waits)) 0.99));
    m "exec.scheduler.handoff_ms" "ms" (ms (median (all (fun x -> x.handoffs))));
    m "exec.scheduler.retried" "count" (float_of_int (s1.Scheduler.retried - s0.Scheduler.retried));
    m "exec.scheduler.degraded" "count"
      (float_of_int (s1.Scheduler.degraded - s0.Scheduler.degraded));
    m "core.plan_cache.hit_ratio" "ratio" st.hit_ratio;
    m "sql.parse_us" "us" (us (median (self_of "sql.parse")));
    m "plan.plan_us" "us" (us (median (self_of "plan.plan")));
    m "exec.prepare_ms" "ms" (ms (median (self_of "exec.prepare")));
    m "exec.execute_ms" "ms" (ms (median (self_of "exec.execute")));
    m "codegen.us_per_kinstr" "us/kinstr" (pm (fun p -> us p.codegen_s /. p.kinstr));
    m "codegen.ir_instrs" "count" (c_sum (fun c -> c.ir_instrs));
    m "vm.translate_us_per_kinstr" "us/kinstr" (pm (fun p -> us p.translate_s /. p.kinstr));
    m "vm.bytecode_ops" "count" (c_sum (fun c -> c.bytecode_ops));
    m "vm.reg_bytes" "bytes" (c_sum (fun c -> c.reg_bytes));
    m "passes.o2_ms" "ms" (pm (fun p -> ms p.o2_s));
    m "passes.instr_reduction" "ratio"
      (1.0
      -. float_of_int (sumi (List.map (fun r -> r.pr.instrs_after) first))
         /. c_sum (fun c -> c.ir_instrs));
    m "backend.compile_real_ms.unopt" "ms" (pm (fun p -> ms p.unopt_real_s));
    m "backend.compile_real_ms.opt" "ms" (pm (fun p -> ms p.opt_real_s));
    m "backend.compile_padded_ms" "ms" (pm (fun p -> ms p.unopt_padded_s));
    m "backend.padding_frac" "ratio" (pm (fun p -> 1.0 -. (p.unopt_real_s /. p.unopt_padded_s)));
    m "exec.ns_per_tuple.bytecode" "ns" (ns bc);
    m "exec.ns_per_tuple.unopt" "ns" (ns un);
    m "exec.ns_per_tuple.opt" "ns" (ns op);
    m "exec.speedup.unopt" "x" (speedup un);
    m "exec.speedup.opt" "x" (speedup op);
    m "exec.adaptive.mode_share.bytecode" "ratio" (share CM.Bytecode);
    m "exec.adaptive.mode_share.unopt" "ratio" (share CM.Unopt);
    m "exec.adaptive.mode_share.opt" "ratio" (share CM.Opt);
    m "exec.adaptive.compile_failures" "count"
      (float_of_int (sumi (List.map (fun r -> r.result.Driver.stats.compile_failures) rows)));
    m "exec.adaptive.regret" "x" (geomean (List.map (fun p -> p.regret) probes));
    m "mem.arena_resident_mb" "MB" st.arena_peak_mb;
    m "runtime.minor_gcs_per_query" "count" st.minor_per_q;
    m "runtime.major_gcs_per_query" "count" st.major_per_q;
    m "runtime.alloc_mb_per_query" "MB" st.alloc_mb_per_q;
    m "ledger.unattributed_frac" "ratio" unattributed;
    m "ledger.trace_overhead_ms" "ms"
      (ms (median (List.map (fun r -> r.traced_s -. r.untraced_s) rows)));
  ]

(* ------------------------------------------------------------------ *)
(* output                                                              *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_metrics ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (json_number x.value) (json_string x.unit))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* check everything the process executed; (attempted, errors, wrong) *)
let check_outputs env =
  let answers = Oracle.answers (Engine.catalog env.engine) (List.map fst tally.observed) in
  (tally.attempted, tally.errors, Oracle.mismatches answers tally.observed)

let provenance ~w ~seed ~seconds ~trace ~texts ~distinct ~n_threads ~padding ~setups ~samples
    ~info ~wrong ~errors ~check =
  let obj f l = String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ f v) l) in
  Printf.printf
    "{\"provenance\": {\"workload\": %s, \"seed\": %d, \"seconds\": %g, \"trace\": %d, \
     \"texts_md5\": %s, \"distinct_texts\": %d, \"nproc\": %d, \"ocaml\": %s, \"sf\": %g, \
     \"n_threads\": %d, \"cost_model_padding\": %b, \"segments\": %d, \"setup_samples\": %d, \
     \"samples\": {%s}, \"info\": {%s}, \"wrong_results\": %d, \"errors\": %d, \"check\": %s}}\n"
    (json_string (workload_name w)) seed seconds trace (json_string texts) distinct
    (Domain.recommended_domain_count ()) (json_string Sys.ocaml_version) (scale_factor w)
    n_threads padding (if trace = 1 then 1 else segments w) setups (obj string_of_int samples)
    (obj json_number info) wrong errors
    (match check with Some msg -> json_string msg | None -> "null")

(* child: one segment, raw sample lines on stdout *)
let run_segment w ~seed ~seconds ~index =
  let seed = (seed * 64) + index in
  let gen = generator w ~seed in
  for _ = 2 to setups_per_segment w do
    ignore (fresh w)
  done;
  let body = segment w ~seed ~span:(seconds /. float_of_int (segments w)) gen in
  (* the engine's peak, read before the oracle runs in this process *)
  let rss = peak_rss_mb () in
  let env = Option.get !current in
  let attempted, errors, wrong = check_outputs env in
  print_string body;
  List.iter (fun (dt, scale) -> Printf.printf "setup %.9f %.9f\n" dt scale) !setup_times;
  Printf.printf "rss %.6f\ntally %d %d %d\ntexts %s %d\nthreads %d\npadding %b\n%!"
    rss attempted errors wrong (Gen.texts_hash gen) (Gen.distinct gen)
    (Engine.n_threads env.engine) (Engine.cost_model env.engine).CM.simulate;
  teardown env

let child_lines args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.append [| exe |] args) in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> acc in
  let lines = List.rev (read []) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> failwith "a measurement segment failed"

(* parent: run the segments one after another, pool, report *)
let run_segments w ~seed ~seconds =
  let lines =
    List.concat_map
      (fun i ->
        child_lines
          [|
            "--workload"; workload_name w; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%.17g" seconds; "--segment"; string_of_int i;
          |])
      (List.init (segments w) Fun.id)
  in
  let field l k =
    List.filter_map
      (fun x -> match String.split_on_char ' ' x with k' :: r when k' = k -> Some r | _ -> None)
      l
  in
  let triples k =
    List.map
      (function
        | [ a; b; c ] -> (int_of_string a, float_of_string b, float_of_string c) | _ -> failwith k)
      (field lines k)
  in
  let floats k = List.map (function [ a ] -> float_of_string a | _ -> failwith k) (field lines k) in
  let setups =
    List.map
      (function [ a; b ] -> (float_of_string a, float_of_string b) | _ -> failwith "setup")
      (field lines "setup")
  in
  let pooled = { lats = triples "lat"; sats = triples "sat" } in
  let tallies = List.map (List.map int_of_string) (field lines "tally") in
  let col i = sumi (List.map (fun t -> List.nth t i) tallies) in
  let attempted = col 0 and errors = col 1 and wrong = col 2 in
  let texts = field lines "texts" in
  let n_threads = match field lines "threads" with [ n ] :: _ -> int_of_string n | _ -> 0 in
  let padding = List.for_all (( = ) [ "true" ]) (field lines "padding") in
  let gen = generator w ~seed in
  let metrics, samples, info = end_to_end w (Gen.n_templates gen) pooled ~calib:(floats "calib") in
  let info = ("measured_setup_s", median (List.map fst setups)) :: info in
  let failed = errors + wrong in
  let metrics =
    (m "setup_s" "s" (median (List.map (fun (dt, scale) -> dt *. scale) setups)) :: metrics)
    @ [
        m "ok_frac" "ratio" (1.0 -. (float_of_int failed /. float_of_int (Stdlib.max 1 attempted)));
        m "peak_rss_mb" "MB" (median (floats "rss"));
      ]
  in
  provenance ~w ~seed ~seconds ~trace:0
    ~texts:(Digest.to_hex (Digest.string (String.concat "" (List.map List.hd texts))))
    ~distinct:(sumi (List.map (fun t -> int_of_string (List.nth t 1)) texts))
    ~n_threads ~padding ~setups:(List.length setups) ~samples ~info ~wrong ~errors ~check:None;
  print_metrics ~correct:(failed = 0) ~attempted:(Stdlib.max 1 attempted) ~failed metrics

(* the traced run, in one process *)
let run_traced w ~seed ~seconds ~spans_out =
  let gens = List.map (fun k -> generator w ~seed:(seed + (k * 1_000_003))) [ 0; 1; 2 ] in
  let env = fresh w in
  let result =
    match
      let gen = List.hd gens in
      warmup env gen w;
      per_layer w ~seed ~seconds env (gen, List.nth gens 1, List.nth gens 2)
    with
    | metrics -> Ok metrics
    | exception Check_failed msg -> Error msg
  in
  Spans.enabled := false;
  let attempted, errors, wrong = check_outputs env in
  teardown env;
  if spans_out <> "" then Spans.dump spans_out (Spans.all ());
  let check = match result with Ok _ -> None | Error msg -> Some msg in
  provenance ~w ~seed ~seconds ~trace:1
    (* the ledger's and wire stage's texts, which the count metrics
       derive from: the time-bounded stream's depend on timing *)
    ~texts:
      (Digest.to_hex (Digest.string (String.concat "" (List.map Gen.texts_hash (List.tl gens)))))
    ~distinct:(sumi (List.map Gen.distinct (List.tl gens)))
    ~n_threads:(Engine.n_threads env.engine)
    ~padding:(Engine.cost_model env.engine).CM.simulate ~setups:1 ~samples:[] ~info:[] ~wrong
    ~errors ~check;
  let failed = errors + wrong in
  print_metrics ~correct:(failed = 0 && check = None) ~attempted:(Stdlib.max 1 attempted) ~failed
    (match result with Ok metrics -> metrics | Error _ -> []);
  if check <> None then exit 1

let () =
  let workload = ref None and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  let spans_out = ref "" and index = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some (workload_of_string s)), "NAME");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N");
      ("--seconds", Arg.Float (fun s -> seconds := s), "S measured seconds");
      ("--trace", Arg.Int (fun t -> trace := t), "0|1");
      ("--spans-out", Arg.Set_string spans_out, "FILE span dump of the traced run");
      ("--segment", Arg.Set_int index, "I run one measurement segment (internal)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let w, seed =
    match (!workload, !seed) with
    | Some w, Some s -> (w, s)
    | _ ->
      prerr_endline "--workload and --seed are required";
      exit 2
  in
  try
    if !index >= 0 then run_segment w ~seed ~seconds:!seconds ~index:!index
    else if !trace = 1 then run_traced w ~seed ~seconds:!seconds ~spans_out:!spans_out
    else run_segments w ~seed ~seconds:!seconds
  with Gen.Template_changed msg | Failure msg ->
    prerr_endline ("bench: " ^ msg);
    exit 1
