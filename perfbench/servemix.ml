(* serve-mix: a seed-drawn multi-tenant job mix (4 tenants, 2 poison
   jobs) served on an 8-GPU fleet, replayed open loop in simulated time
   at fixed arrival rates, each replay with one scheduled device loss.
   Completed outputs are compared bit for bit with solo runs of the
   same workload key computed in set-up. *)

open Harness
module S = Serve.Scheduler

let jobs = 440
let fleet_n = 8

(* Mean arrival gap Mix.generate draws with (its default, 200µs). *)
let generated_rate = 5_000.0

(* Turnaround percentiles are reported at this rate. *)
let nominal_rate = 8_000

(* Capacity: the highest tested rate whose p95 turnaround stays within
   this limit (simulated seconds) with no job refused. *)
let p95_limit_s = 2e-3

type input = {
  built : Serve.Mix.built list;
  solo : (string, float array) Hashtbl.t;
}

let fleet () = Gpusim.Config.k80_box ~n_devices:fleet_n ()

(* Every job carries this deadline (simulated seconds): far beyond any
   turnaround seen, so none times out, but admission orders by
   deadline (the EDF key) and every engine runs under an abort time. *)
let deadline_s = 60.0

let setup (c : ctx) =
  let built =
    Serve.Mix.generate ~seed:c.seed ~tenants:4 ~poison:2 ~deadline:deadline_s ~jobs ()
  in
  let solo = Hashtbl.create 8 in
  List.iter
    (fun (b : Serve.Mix.built) ->
       if (not b.Serve.Mix.b_poison) && not (Hashtbl.mem solo b.Serve.Mix.b_key)
       then begin
         let exe, out = b.Serve.Mix.b_solo () in
         let m = Gpusim.Machine.create ~functional:true (fleet ()) in
         ignore (Mekong.Multi_gpu.run ~domains:1 ~machine:m exe);
         Hashtbl.replace solo b.Serve.Mix.b_key out
       end)
    built;
  { built; solo }

let digest inp =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun (b : Serve.Mix.built) ->
                let s = b.Serve.Mix.b_spec in
                Printf.sprintf "%s/%s/%d/%d/%h" s.Serve.Job.name s.Serve.Job.tenant
                  s.Serve.Job.priority s.Serve.Job.devices s.Serve.Job.arrival)
             inp.built)))

(* One replay at [rate] jobs per simulated second. *)
let replay c inp rate =
  let scale = generated_rate /. float_of_int rate in
  let specs =
    List.map
      (fun (b : Serve.Mix.built) ->
         Array.fill b.Serve.Mix.b_output 0 (Array.length b.Serve.Mix.b_output) nan;
         let s = b.Serve.Mix.b_spec in
         { s with Serve.Job.arrival = s.Serve.Job.arrival *. scale })
      inp.built
  in
  let span =
    List.fold_left (fun acc s -> Float.max acc s.Serve.Job.arrival) 0.0 specs
  in
  let cfg =
    S.config ~domains:1 ~max_queue:jobs ~losses:[ (0, 0.3 *. span) ] (fleet ())
  in
  let r =
    layer (Printf.sprintf "scheduler.run.%djps" rate) (fun () -> S.run cfg specs)
  in
  let turnarounds = ref [] and refused = ref 0 in
  List.iter2
    (fun (b : Serve.Mix.built) (j : Serve.Job.report) ->
       let name = Printf.sprintf "%s at %d jobs/s" j.Serve.Job.r_name rate in
       match j.Serve.Job.r_outcome with
       | Serve.Job.Completed { turnaround; _ } ->
         turnarounds := turnaround :: !turnarounds;
         check c
           ((not b.Serve.Mix.b_poison)
            && bit_equal b.Serve.Mix.b_output (Hashtbl.find inp.solo b.Serve.Mix.b_key))
           (name ^ " completes bit-identical to its solo run")
       | Serve.Job.Quarantined _ ->
         check c b.Serve.Mix.b_poison (name ^ " quarantined only if poison")
       | o ->
         incr refused;
         check c false (name ^ " ended " ^ Serve.Job.outcome_name o))
    inp.built r.S.r_jobs;
  (r, !turnarounds, !refused)

let count (r : S.report) outcome =
  List.length
    (List.filter
       (fun (j : Serve.Job.report) -> Serve.Job.outcome_name j.Serve.Job.r_outcome = outcome)
       r.S.r_jobs)

let round c inp _ =
  let results = List.map (fun rate -> (rate, replay c inp rate)) serve_rates in
  let r_nom, t_nom, _ = List.assoc nominal_rate results in
  let capacity =
    List.fold_left
      (fun acc (rate, (_, ts, refused)) ->
         if refused = 0 && ts <> [] && percentile ts 95.0 <= p95_limit_s then
           Float.max acc (float_of_int rate)
         else acc)
      0.0 results
  in
  let sum f = List.fold_left (fun acc (_, (r, _, _)) -> acc + f r) 0 results in
  let preemptions (r : S.report) =
    List.fold_left
      (fun acc (j : Serve.Job.report) ->
         match j.Serve.Job.r_outcome with
         | Serve.Job.Completed { preemptions; _ } -> acc + preemptions
         | _ -> acc)
      0 r.S.r_jobs
  in
  let f k v = (k, float_of_int v) in
  [
    ("serve.turnaround_p50_s", percentile t_nom 50.0);
    ("serve.turnaround_p95_s", percentile t_nom 95.0);
    ("serve.capacity_jps", capacity);
    f "serve.completed" (sum (fun r -> count r "completed"));
    f "serve.rejected" (sum (fun r -> count r "rejected"));
    f "serve.timed_out" (sum (fun r -> count r "timed_out"));
    f "serve.quarantined" (sum (fun r -> count r "quarantined"));
    f "serve.preemptions" (sum preemptions);
    f "serve.peak_queue" (List.fold_left (fun acc (_, (r, _, _)) -> max acc r.S.r_peak_queue) 0 results);
    ("serve.utilization", r_nom.S.r_utilization);
  ]
  @ List.concat_map
    (fun (rate, (_, ts, _)) ->
       [ (Printf.sprintf "p50_at_%d" rate, percentile ts 50.0);
         (Printf.sprintf "p95_at_%d" rate, percentile ts 95.0) ])
    results

let run (c : ctx) inp ~seconds =
  let walls, o = timed_rounds c ~seconds (round c inp) in
  let rounds = float_of_int (List.length walls) in
  List.iter
    (fun rate ->
       let name = Printf.sprintf "scheduler.run_s.%djps" rate in
       set name (layer_total (Printf.sprintf "scheduler.run.%djps" rate) /. rounds);
       Printf.eprintf "perfbench: %d jobs/s turnaround p50 %.6fs p95 %.6fs\n" rate
         (List.assoc (Printf.sprintf "p50_at_%d" rate) o)
         (List.assoc (Printf.sprintf "p95_at_%d" rate) o))
    serve_rates;
  publish o;
  walls

(* Traced runs only: where the nominal replay's jobs spent their time,
   from the scheduler's causal DAG. *)
let critpath c inp =
  let r, _, _ = replay c inp nominal_rate in
  let a = Obs.Causal.analyze (S.causal_dag r) in
  List.iter
    (fun (cat, secs) ->
       let name = "serve." ^ cat ^ "_share" in
       if List.mem_assoc name per_layer then set name (secs /. a.Obs.Causal.an_makespan))
    a.Obs.Causal.an_by_category

let prepare c =
  let inp = setup c in
  { digest = digest inp; run = run c inp; extras = (fun () -> critpath c inp) }
