(* paper-sweep: the paper's Table 1 programs (3 apps x 3 sizes) on
   timing-only K80 machines.  Timed: the single-GPU references, then the
   alpha/beta/gamma runs of paper §9.2 at every swept GPU count — the
   data behind Figures 6 and 8.  Compilation happens in set-up. *)

open Harness
module W = Apps.Workloads
module M = Mekong.Multi_gpu

let gpu_counts = [ 1; 2; 4; 6; 8; 10; 12; 14; 16 ]

(* Paper Figure 6 peak speedups of the Large problems. *)
let paper_peaks = [ (W.Hotspot_b, 7.1); (W.Nbody_b, 12.4); (W.Matmul_b, 6.3) ]

(* Paper Figure 8 maximum runtime-system overhead, percent. *)
let paper_fig8_max = 6.8

let points = List.concat_map (fun b -> List.map (fun s -> (b, s)) W.sizes) W.benchmarks

type input = {
  progs : ((W.benchmark * W.size) * (Host_ir.t * M.exe)) list;
  repeat_point : W.benchmark * W.size * int;
      (** the seed-chosen point run twice (repeat check) *)
}

(* The programs do not depend on the seed (they are the paper's); the
   seed picks the point whose alpha run is repeated as a check. *)
let setup (c : ctx) =
  let progs =
    List.map
      (fun (b, s) ->
         let prog = W.program b s in
         match Mekong.Toolchain.compile prog with
         | Ok a -> ((b, s), (prog, a.Mekong.Toolchain.exe))
         | Error e -> failwith (Mekong.Toolchain.error_message e))
      points
  in
  let rng = Random.State.make [| c.seed; 0x5E |] in
  let b, s = List.nth points (Random.State.int rng (List.length points)) in
  let g = List.nth gpu_counts (Random.State.int rng (List.length gpu_counts)) in
  { progs; repeat_point = (b, s, g) }

let digest inp =
  let b, s, g = inp.repeat_point in
  Printf.sprintf "%s-%s@%d" (W.benchmark_name b) (W.size_name s) g

let k80 ?causal g =
  let m = Gpusim.Machine.create ~functional:false (Gpusim.Config.k80_box ~n_devices:g ()) in
  if causal = Some true then Gpusim.Machine.enable_causal m;
  m

let cfgs =
  [ ("alpha", Gpu_runtime.Rconfig.alpha); ("beta", Gpu_runtime.Rconfig.beta);
    ("gamma", Gpu_runtime.Rconfig.gamma) ]

type totals = {
  mutable launches : int;
  mutable transfers : int;
  mutable h2d : int;
  mutable d2h : int;
  mutable p2p : int;
  mutable kernel_s : float;
  mutable transfer_s : float;
  mutable pattern_s : float;
  mutable hits : int;
  mutable misses : int;
}

let engine_run ?causal cfg exe g =
  let m = k80 ?causal g in
  (M.run ~cfg ~domains:1 ~machine:m exe, m)

let round c inp _ =
  let t =
    { launches = 0; transfers = 0; h2d = 0; d2h = 0; p2p = 0; kernel_s = 0.0;
      transfer_s = 0.0; pattern_s = 0.0; hits = 0; misses = 0 }
  in
  let refs =
    List.map
      (fun (pt, (prog, _)) ->
         let r =
           layer "single_gpu.run" (fun () ->
               Single_gpu.run ~machine:(k80 1) prog)
         in
         check c (r.Single_gpu.time > 0.0) "reference run";
         (pt, r.Single_gpu.time))
      inp.progs
  in
  (* sim.(cfg, point, g) *)
  let sim = Hashtbl.create 256 in
  List.iter
    (fun (cname, cfg) ->
       List.iter
         (fun (pt, (_, exe)) ->
            List.iter
              (fun g ->
                 let r, m =
                   layer ("engine.run." ^ cname) (fun () -> engine_run cfg exe g)
                 in
                 check c (r.M.time > 0.0) "engine run";
                 Hashtbl.replace sim (cname, pt, g) r.M.time;
                 t.hits <- t.hits + r.M.cache.Mekong.Launch_cache.hits;
                 t.misses <- t.misses + r.M.cache.Mekong.Launch_cache.misses;
                 if cname = "alpha" then begin
                   let st = Gpusim.Machine.stats m in
                   t.launches <- t.launches + st.Gpusim.Machine.n_launches;
                   t.transfers <- t.transfers + st.Gpusim.Machine.n_transfers;
                   t.h2d <- t.h2d + st.Gpusim.Machine.h2d_bytes;
                   t.d2h <- t.d2h + st.Gpusim.Machine.d2h_bytes;
                   t.p2p <- t.p2p + st.Gpusim.Machine.p2p_bytes;
                   t.kernel_s <- t.kernel_s +. st.Gpusim.Machine.kernel_seconds;
                   t.transfer_s <- t.transfer_s +. st.Gpusim.Machine.transfer_seconds;
                   t.pattern_s <- t.pattern_s +. st.Gpusim.Machine.pattern_seconds
                 end)
              gpu_counts)
         inp.progs)
    cfgs;
  (* The repeat check: one point's alpha run again, identical time. *)
  let b, s, g = inp.repeat_point in
  let r, _ =
    engine_run Gpu_runtime.Rconfig.alpha (snd (List.assoc (b, s) inp.progs)) g
  in
  check c
    (r.M.time = Hashtbl.find sim ("alpha", (b, s), g))
    (Printf.sprintf "repeat of %s is identical" (digest inp));
  let alpha pt g = Hashtbl.find sim ("alpha", pt, g) in
  let speedups =
    List.concat_map
      (fun (pt, tref) -> List.map (fun g -> tref /. alpha pt g) gpu_counts)
      refs
  in
  let peak b =
    let tref = List.assoc (b, W.Large) refs in
    List.fold_left (fun acc g -> Float.max acc (tref /. alpha (b, W.Large) g)) 0.0 gpu_counts
  in
  let fig6_gap =
    100.0
    *. List.fold_left
      (fun acc (b, paper) -> acc +. (Float.abs (peak b -. paper) /. paper))
      0.0 paper_peaks
    /. float_of_int (List.length paper_peaks)
  in
  let fig8_max =
    List.fold_left
      (fun acc (pt, _) ->
         List.fold_left
           (fun acc g ->
              let beta = Hashtbl.find sim ("beta", pt, g)
              and gamma = Hashtbl.find sim ("gamma", pt, g) in
              Float.max acc (100.0 *. Float.max 0.0 ((beta -. gamma) /. alpha pt g)))
           acc gpu_counts)
      0.0 inp.progs
  in
  let i k v = (k, float_of_int v) in
  [
    ("paper.sim_speedup_geomean", geomean speedups);
    ("paper.fig6_gap_pct", fig6_gap);
    ("paper.fig8_gap_pp", Float.abs (fig8_max -. paper_fig8_max));
    ("fig8_max_pct", fig8_max); ("hotspot_large_peak", peak W.Hotspot_b);
    ("nbody_large_peak", peak W.Nbody_b); ("matmul_large_peak", peak W.Matmul_b);
    i "gpusim.launches" t.launches; i "gpusim.transfers" t.transfers;
    i "gpusim.h2d_bytes" t.h2d; i "gpusim.d2h_bytes" t.d2h;
    i "gpusim.p2p_bytes" t.p2p; ("gpusim.kernel_sim_s", t.kernel_s);
    ("gpusim.transfer_sim_s", t.transfer_s); ("gpusim.pattern_sim_s", t.pattern_s);
    i "launch_cache.hits" t.hits; i "launch_cache.misses" t.misses;
  ]

let run (c : ctx) inp ~seconds =
  let walls, outcome = timed_rounds c ~seconds (round c inp) in
  let o k = List.assoc k outcome in
  let rounds = float_of_int (List.length walls) in
  let per_round name = layer_total name /. rounds in
  List.iter
    (fun (cname, _) ->
       set ("engine.run_s." ^ cname) (per_round ("engine.run." ^ cname)))
    cfgs;
  set "engine.host_us_per_launch"
    (1e6 *. per_round "engine.run.alpha" /. o "gpusim.launches");
  set "single_gpu.run_s" (per_round "single_gpu.run");
  publish outcome;
  Printf.eprintf
    "perfbench: fig6 Large peaks hotspot %.2fx nbody %.2fx matmul %.2fx; fig8 max %.3f%%\n%!"
    (o "hotspot_large_peak") (o "nbody_large_peak") (o "matmul_large_peak")
    (o "fig8_max_pct");
  walls

(* Traced runs only: critical-path attribution of one representative
   run (Hotspot Medium, alpha, 8 GPUs), as shares of its makespan. *)
let critpath c inp =
  let exe = snd (List.assoc (W.Hotspot_b, W.Medium) inp.progs) in
  let _, m = engine_run ~causal:true Gpu_runtime.Rconfig.alpha exe 8 in
  match Gpusim.Machine.causal_dag m with
  | None -> check c false "causal DAG recorded"
  | Some dag ->
    let a = Obs.Causal.analyze dag in
    (* Categories outside the fixed metric list add up in "other". *)
    List.iter
      (fun (cat, secs) ->
         let name = "critpath." ^ cat ^ "_share" in
         let name = if List.mem_assoc name per_layer then name else "critpath.other_share" in
         set name (get name +. (secs /. a.Obs.Causal.an_makespan)))
      a.Obs.Causal.an_by_category

let prepare c =
  let inp = setup c in
  { digest = digest inp; run = run c inp; extras = (fun () -> critpath c inp) }
