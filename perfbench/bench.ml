(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: compile-corpus, paper-sweep, functional-knobs, serve-mix
   (README.md says what each runs and why).  The last stdout line is one
   JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics (round_s, setup_s, heap_peak_mb) untraced, every per-layer
   metric traced.  Human-readable notes and a per-run summary go to
   stderr and to perfbench/out/. *)

open Harness

let workloads =
  [ ("compile-corpus", Corpus.prepare); ("paper-sweep", Sweep.prepare);
    ("functional-knobs", Knobs.prepare); ("serve-mix", Servemix.prepare) ]

let out_dir = Filename.concat "perfbench" "out"

let write_file name text =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Out_channel.with_open_bin (Filename.concat out_dir name) (fun oc ->
      output_string oc text)

(* Chrome trace of the recorded spans (ours and the library's). *)
let chrome_trace () =
  Obs.Span.records ()
  |> List.map (fun (r : Obs.Span.record) ->
      Obs.Chrome_trace.Complete
        {
          name = r.Obs.Span.sp_name;
          cat = r.Obs.Span.sp_cat;
          pid = 1;
          tid = 1;
          ts = r.Obs.Span.sp_wall_start *. 1e6;
          dur = (r.Obs.Span.sp_wall_stop -. r.Obs.Span.sp_wall_start) *. 1e6;
          args = [];
        })
  |> Obs.Chrome_trace.to_string

(* Self time per benchmark layer timer, then the library's own span
   totals (which the span ring may have truncated; see the drop count). *)
let layer_summary () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %8s %12s %12s\n" "layer" "calls" "total_s" "self_s");
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) Harness.total []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "%-28s %8d %12.6f %12.6f\n" k
           (Hashtbl.find Harness.calls k) v (Hashtbl.find Harness.self k)));
  Buffer.add_string b
    (Printf.sprintf "\nlibrary spans in the ring (%d dropped):\n"
       (Obs.Span.dropped ()));
  List.iter
    (fun (s : Obs.Span.summary) ->
       if s.Obs.Span.su_cat <> "perfbench" then
         Buffer.add_string b
           (Printf.sprintf "%-12s %-28s %8d %12.6f\n" s.Obs.Span.su_cat
              s.Obs.Span.su_name s.Obs.Span.su_count s.Obs.Span.su_wall))
    (Obs.Span.summarize (Obs.Span.records ()));
  Buffer.contents b

let main ~workload ~seed ~seconds ~trace =
  Gpu_runtime.Dpool.set_default_domains 1;
  Obs.Span.set_clock Unix.gettimeofday;
  let c = ctx ~seed in
  (* Set-up ends with fingerprinting the generated inputs. *)
  let w, setup_s = repeated_setup (fun () -> (List.assoc workload workloads) c) in
  Printf.eprintf "perfbench: %s seed %d inputs %s, set-up %.3fs\n%!" workload
    seed w.digest setup_s;
  let metrics =
    if not trace then begin
      let walls = w.run ~seconds in
      let best = best_round () in
      Printf.eprintf "perfbench: %d rounds, wall %s, scaled best round %.3f\n%!"
        (List.length walls)
        (String.concat " " (List.map (Printf.sprintf "%.3f") walls))
        best;
      [
        ("round_s", best, "s");
        ("setup_s", setup_s, "s");
        ("heap_peak_mb", heap_peak_mb (), "MB");
      ]
    end
    else begin
      (* Two untraced rounds give the baseline for the tracing
         overhead; the traced rounds then fill the rest of the time. *)
      let base = w.run ~seconds:0.0 in
      reset_layers ();
      Hashtbl.reset Harness.values;
      Obs.Span.set_capacity 100_000;
      Obs.Span.set_enabled true;
      let walls = w.run ~seconds in
      w.extras ();
      Obs.Span.set_enabled false;
      set "trace.overhead_pct" (100.0 *. ((median walls /. median base) -. 1.0));
      seti "trace.spans_dropped" (Obs.Span.dropped ());
      write_file (Printf.sprintf "trace-%s.json" workload) (chrome_trace ());
      write_file (Printf.sprintf "layers-%s.txt" workload) (layer_summary ());
      List.map (fun (name, unit) -> (name, get name, unit)) per_layer
    end
  in
  write_file
    (Printf.sprintf "summary-%s-%d-%d.txt" workload seed (if trace then 1 else 0))
    (String.concat "\n"
       (Printf.sprintf "inputs %s" w.digest
        :: Printf.sprintf "attempted %d failed %d" c.attempted c.failed
        :: List.map
          (fun (n, v, u) -> Printf.sprintf "%s %s %s" n (json_number v) u)
          metrics)
     ^ "\n");
  print_endline (result_line c metrics)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let probe = ref false in
  let args =
    [
      ("--probe", Arg.Set probe, " run the known-defect probe (selfcheck.py)");
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Set_int seconds, "S seconds of timed work");
      ("--trace", Arg.Set_int trace, "0|1 per-layer tracing");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !seed with
  | Some seed when !probe ->
    Gpu_runtime.Dpool.set_default_domains 1;
    exit (if Knobs.probe seed = 0 then 0 else 1)
  | Some seed
    when List.mem_assoc !workload workloads && !seconds >= 1
         && (!trace = 0 || !trace = 1) ->
    main ~workload:!workload ~seed ~seconds:(float_of_int !seconds)
      ~trace:(!trace = 1)
  | _ ->
    prerr_endline usage;
    exit 2
