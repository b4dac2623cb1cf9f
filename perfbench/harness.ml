(* Shared plumbing of the benchmark: the run context, operation
   and check accounting, layer timers (optionally mirrored as Obs spans),
   the per-layer metric registry, repeated timed rounds and the result
   line. *)

let now = Unix.gettimeofday

type ctx = { seed : int; mutable attempted : int; mutable failed : int }

let ctx ~seed = { seed; attempted = 0; failed = 0 }

(* A workload after set-up: the fingerprint of its generated inputs,
   its timed rounds (run for at least [seconds]; returns each round's
   wall seconds) and the extra measurements of traced runs. *)
type prepared = {
  digest : string;
  run : seconds:float -> float list;
  extras : unit -> unit;
}

(* At most this many failure messages reach stderr; the rest are only
   counted. *)
let failures_shown = ref 0

(* One checked operation: [ok] false or [f] raising is one failed
   operation. *)
let check c ok msg =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if !failures_shown < 20 then begin
      incr failures_shown;
      prerr_endline ("perfbench: FAILED " ^ msg)
    end
  end

let attempt c msg f =
  match f () with
  | v ->
    check c true msg;
    Some v
  | exception e ->
    check c false (msg ^ ": " ^ Printexc.to_string e);
    None

(* Bit-for-bit comparison of two float arrays (NaN payloads and signed
   zeros included). *)
let bit_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && (try
        Array.iteri
          (fun i x ->
             if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
               raise Exit)
          a;
        true
      with Exit -> false)

(* ---------------- host speed ---------------- *)

(* The host's speed drifts by tens of percent in phases of seconds to
   minutes, in CPU time as much as in wall time (README.md, "Host-speed
   scaling").  A fixed snippet that calls nothing under test, a
   multiply-add chain and a chain of dependent loads from a 256 KiB
   table outside the OCaml heap, is timed around each set-up and at
   least every [calibration_period] seconds of a timed round.  A
   measurement's seconds times [calibration_ref] over the snippet's
   fastest time while it was taken are the seconds scaled to a host on
   which the snippet takes [calibration_ref] seconds. *)
let calibration_ref = 2.3e-4
let calibration_period = 0.05
let table_len = 1 lsl 15

let table =
  let rng = Random.State.make [| 0x5EED |] in
  let perm = Array.init table_len Fun.id in
  for i = table_len - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  (* One cycle through every slot. *)
  let a = Bigarray.(Array1.create int c_layout table_len) in
  Array.iteri (fun i p -> a.{p} <- perm.((i + 1) mod table_len)) perm;
  a

let fastest_snippet = ref infinity
let paused = ref 0.0
let last_calibration = ref neg_infinity

let calibrate () =
  let t0 = now () in
  let p = ref 0 and x = ref 1 in
  (* Untimed pass: the table is cold after the work under test. *)
  for _ = 1 to table_len do p := table.{!p} done;
  let t1 = now () in
  for _ = 1 to 100_000 do x := (!x * 0x5851F42D4C957F2D) + 0x14057B7EF767814F done;
  for _ = 1 to 20_000 do p := table.{!p} done;
  ignore (Sys.opaque_identity (!x + !p));
  let t2 = now () in
  fastest_snippet := Float.min !fastest_snippet (t2 -. t1);
  paused := !paused +. (t2 -. t0);
  last_calibration := t2

(* Wall clock less the time spent calibrating. *)
let clock () = now () -. !paused

let scaled seconds = seconds *. calibration_ref /. !fastest_snippet

(* ---------------- layer timers ---------------- *)

(* Wall seconds per layer name: total (inclusive) and self (minus the
   time of nested layer timers).  Always on — two clock reads per call,
   negligible against the calls timed.  Each timer is also an [Obs.Span]
   in category "perfbench", recorded only while spans are enabled. *)
let total : (string, float) Hashtbl.t = Hashtbl.create 64
let self : (string, float) Hashtbl.t = Hashtbl.create 64
let calls : (string, int) Hashtbl.t = Hashtbl.create 64
let stack : float ref list ref = ref []

(* Inside a timed round, every layer timer's start and end is a bound of
   a segment; their clock times, newest first. *)
let marking = ref false
let marks : float list ref = ref []

let boundary () =
  if !marking && now () -. !last_calibration >= calibration_period then
    calibrate ();
  let t = clock () in
  if !marking then marks := t :: !marks;
  t

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let layer name f =
  let child = ref 0.0 in
  stack := child :: !stack;
  let t0 = boundary () in
  let finish () =
    let d = boundary () -. t0 in
    stack := List.tl !stack;
    (match !stack with c :: _ -> c := !c +. d | [] -> ());
    bump total name d;
    bump self name (d -. !child);
    Hashtbl.replace calls name
      (1 + Option.value ~default:0 (Hashtbl.find_opt calls name))
  in
  match Obs.Span.with_span ~cat:"perfbench" name f with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let layer_total name = Option.value ~default:0.0 (Hashtbl.find_opt total name)

let reset_layers () =
  Hashtbl.reset total;
  Hashtbl.reset self;
  Hashtbl.reset calls

(* ---------------- metrics ---------------- *)

(* Per-layer metrics, in the order BENCHMARK.json lists them.  Every
   traced run prints all of them; a layer a workload never calls reads
   0 there (README.md, "Per-layer metrics"). *)
let critpath_categories =
  [ "compute"; "h2d"; "d2h"; "p2p"; "link_wait"; "barrier"; "issue"; "pattern";
    "other" ]

let serve_rates = [ 4_000; 8_000; 16_000; 32_000 ]

let knob_variants = [ "plain"; "overlap"; "memcap"; "faults"; "autotune" ]

let per_layer : (string * string) list =
  [
    ("toolchain.frontend_s", "s"); ("toolchain.pass1_s", "s");
    ("toolchain.pass2_s", "s"); ("cuparse.parse_s", "s");
    ("model.roundtrip_s", "s"); ("model.bytes", "B");
    ("access.analyze_s", "s"); ("codegen.build_s", "s");
    ("verify.verify_s", "s"); ("compile.programs", "count");
    ("compile.kernels", "count"); ("compile.p50_ms", "ms");
    ("compile.p95_ms", "ms"); ("verify.safe", "count");
    ("verify.reducible", "count"); ("verify.unknown", "count");
    ("engine.run_s.alpha", "s"); ("engine.run_s.beta", "s");
    ("engine.run_s.gamma", "s"); ("engine.host_us_per_launch", "us");
    ("single_gpu.run_s", "s"); ("launch_cache.hits", "count");
    ("launch_cache.misses", "count"); ("gpusim.launches", "count");
    ("gpusim.transfers", "count"); ("gpusim.h2d_bytes", "B");
    ("gpusim.d2h_bytes", "B"); ("gpusim.p2p_bytes", "B");
    ("gpusim.kernel_sim_s", "sim_s"); ("gpusim.transfer_sim_s", "sim_s");
    ("gpusim.pattern_sim_s", "sim_s");
  ]
  @ List.map (fun c -> ("critpath." ^ c ^ "_share", "ratio")) critpath_categories
  @ [
    ("paper.sim_speedup_geomean", "x"); ("paper.fig6_gap_pct", "%");
    ("paper.fig8_gap_pp", "pp");
  ]
  @ List.map (fun v -> ("engine.run_s." ^ v, "s")) knob_variants
  @ [
    ("single_gpu.compiled_s", "s"); ("kcompile.compiles", "count");
    ("kcompile.cache_hits", "count"); ("kcompile.interpreted", "count");
    ("kcompile.seq_launches", "count"); ("kcompile.par_launches", "count");
    ("gate.merges", "count"); ("gate.merged_elems", "count");
    ("mem.chunks", "count"); ("mem.chunked_launches", "count");
    ("mem.oom_refinements", "count"); ("gpusim.spills", "count");
    ("gpusim.spill_bytes", "B"); ("faults.retries", "count");
    ("faults.replays", "count"); ("autotune.launches", "count");
    ("autotune.halo_blocks", "count"); ("knobs.sim_time_geomean_s", "sim_s");
  ]
  @ List.map
    (fun r -> (Printf.sprintf "scheduler.run_s.%djps" r, "s"))
    serve_rates
  @ [
    ("serve.completed", "count"); ("serve.rejected", "count");
    ("serve.timed_out", "count"); ("serve.quarantined", "count");
    ("serve.preemptions", "count"); ("serve.peak_queue", "count");
    ("serve.utilization", "ratio"); ("serve.queue_wait_share", "ratio");
    ("serve.run_share", "ratio"); ("serve.requeue_wait_share", "ratio");
    ("serve.turnaround_p50_s", "sim_s"); ("serve.turnaround_p95_s", "sim_s");
    ("serve.capacity_jps", "jobs/s");
    ("trace.overhead_pct", "%"); ("trace.spans_dropped", "count");
  ]

let values : (string, float) Hashtbl.t = Hashtbl.create 128

let set name v =
  if not (List.mem_assoc name per_layer) then
    invalid_arg ("Harness.set: unregistered metric " ^ name);
  Hashtbl.replace values name v

let seti name v = set name (float_of_int v)

(* Set every per-layer metric named in a round's outcome; other keys are
   notes for stderr. *)
let publish outcome =
  List.iter (fun (k, v) -> if List.mem_assoc k per_layer then set k v) outcome

let get name = Option.value ~default:0.0 (Hashtbl.find_opt values name)

(* ---------------- statistics ---------------- *)

(* Linear interpolation between closest ranks (the rule bench/main.ml
   and Serve.Slo use). *)
let percentile (xs : float list) p =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)

let median xs = percentile xs 50.0

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
       /. float_of_int (List.length xs))

(* ---------------- rounds ---------------- *)

(* Run [setup] at least five times and then again until three seconds
   have gone (at most 1000 times), so that the repeats span several
   speed phases; returns the last result with the median set-up
   seconds, scaled. *)
let repeated_setup setup =
  let n = ref 0 and times = ref [] and last = ref None and start = now () in
  fastest_snippet := infinity;
  while !n < 5 || (now () -. start < 3.0 && !n < 1000) do
    incr n;
    calibrate ();
    let t0 = clock () in
    let v = setup () in
    times := (clock () -. t0) :: !times;
    calibrate ();
    last := Some v
  done;
  (Option.get !last, scaled (median !times))

let min_rounds = 2

(* Each segment's fastest time over the rounds of the last
   [timed_rounds].  The segments of a round tile its time, and rounds
   repeat the same calls, so the i-th segment of every round times the
   same work; [None] when rounds made different calls, which only a
   failed operation causes. *)
let fastest : float array option ref = ref None

let record_segments round_index =
  let b = Array.of_list (List.rev !marks) in
  let segs = Array.init (Array.length b - 1) (fun i -> b.(i + 1) -. b.(i)) in
  fastest :=
    match !fastest with
    | _ when round_index = 0 -> Some segs
    | Some f when Array.length f = Array.length segs ->
      Some (Array.map2 Float.min f segs)
    | _ -> None

(* Timed rounds: at least [min_rounds], then more while the next round,
   taking as long as the last, still ends within [seconds].  Each round
   returns its exact (simulated / counted) outcome as a list of named
   numbers; every later round must reproduce the first bit for bit,
   which is one checked operation per round.  Returns the per-round
   clock seconds and the first outcome. *)
let timed_rounds c ~seconds round =
  let walls = ref [] and first = ref None in
  let start = now () in
  fastest_snippet := infinity;
  let rec go i =
    marks := [];
    marking := true;
    calibrate ();
    let t0 = boundary () in
    let outcome = round i in
    calibrate ();
    let t1 = boundary () in
    marking := false;
    walls := (t1 -. t0) :: !walls;
    record_segments i;
    (match !first with
     | None -> first := Some outcome
     | Some o ->
       check c
         (List.length o = List.length outcome
          && List.for_all2
            (fun (k, a) (k', b) ->
               k = k' && Int64.bits_of_float a = Int64.bits_of_float b)
            o outcome)
         (Printf.sprintf "round %d repeats round 0 exactly" i));
    if i + 1 < min_rounds || now () -. start +. (t1 -. t0) <= seconds then
      go (i + 1)
  in
  go 0;
  (List.rev !walls, Option.get !first)

(* Seconds of one round at the best speed of the last [timed_rounds],
   scaled: the sum of the segments' fastest times.  Speed phases last
   seconds, so a segment short against a phase meets a fast phase in at
   least one of several rounds; the scaling absorbs part of a phase that
   lasts the whole run. *)
let best_round () =
  match !fastest with
  | Some f -> scaled (Array.fold_left ( +. ) 0.0 f)
  | None -> nan

(* ---------------- output ---------------- *)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* A metric is non-finite only when the operations behind it failed,
   which the result already reports; JSON has no NaN, so it prints 0. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line c (metrics : (string * float * string) list) =
  let m =
    List.map
      (fun (name, v, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (json_number v) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (c.failed = 0 && c.attempted > 0)
    (max 1 c.attempted) c.failed (String.concat ", " m)
