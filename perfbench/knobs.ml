(* functional-knobs: real-data runs of five apps on 1, 2 and 4 devices
   under every engine path — plain, overlap, a memory cap below the
   run's own high-water mark, injected faults, and autotuning — each
   output compared bit for bit with the app's CPU reference. *)

open Harness
module M = Mekong.Multi_gpu

let device_counts = [ 1; 2; 4 ]

(* Memory cap as a fraction of the plain run's per-device high-water
   mark: low enough to force spills and chunking, high enough that
   every app stays feasible (N-Body's all-gather needs 3/4 on two and
   four devices). *)
let cap_num, cap_den = (3, 4)

(* Paths the engine refuses by design or gets wrong today (README.md,
   "Known engine limits"), kept out of the timed cases:
   - it will not chunk dot's one-element accumulator across devices
     under a memory cap (typed "cannot be chunked" diagnostic), so dot's
     capped run uses one device;
   - reducible (atomic) kernels double-count after a transient-fault
     retry or a device loss, so histogram and dot run no fault case.
     The self-check's probe (selfcheck.py) reproduces this defect. *)
let runs_case app variant g =
  match (app, variant) with
  | "dot", "memcap" -> g = 1
  | ("dot" | "histogram"), "faults" -> false
  | _ -> true

type app = {
  name : string;
  prog : Host_ir.t;
  out : float array;  (** the array the program writes its result to *)
  expected : float array;  (** CPU reference output *)
  exe : M.exe;
}

(* Inputs are drawn from the seed; sizes are fixed so that every seed
   does the same work.  dot and histogram use small integers, which
   every accumulation order sums to the same bits. *)
let build rng =
  let uniform lo hi = lo +. Random.State.float rng (hi -. lo) in
  let small_int k = float_of_int (Random.State.int rng k) in
  let arr n f = Array.init n (fun _ -> f ()) in
  let app name prog out reference = (name, prog, out, reference) in
  [
    (let n = 64 in
     let a = arr (n * n) (fun () -> uniform (-1.0) 1.0)
     and b = arr (n * n) (fun () -> uniform (-1.0) 1.0) in
     let out = Array.make (n * n) nan in
     app "matmul" (Apps.Matmul.program ~n ~a ~b ~result:out) out (fun () ->
         Apps.Matmul.reference ~n a b));
    (let n = 128 and iterations = 6 in
     let init = arr (n * n) (fun () -> uniform 300.0 350.0) in
     let out = Array.make (n * n) nan in
     app "hotspot" (Apps.Hotspot.program ~n ~iterations ~init ~result:out) out
       (fun () -> Apps.Hotspot.reference ~n ~iterations init));
    (let n = 768 and iterations = 2 and dt = Apps.Workloads.nbody_dt in
     let pos =
       Array.init (n * 4) (fun i ->
           if i mod 4 = 3 then uniform 0.5 2.0 else uniform (-10.0) 10.0)
     and vel = Array.init (n * 4) (fun i -> if i mod 4 = 3 then 0.0 else uniform (-1.0) 1.0) in
     let out = Array.make (n * 4) nan in
     app "nbody"
       (Apps.Nbody.program ~n ~iterations ~dt ~pos ~vel ~pos_result:out)
       out
       (fun () -> fst (Apps.Nbody.reference ~n ~iterations ~dt pos vel)));
    (let n = 65_536 and nbins = 256 in
     let data = arr n (fun () -> small_int nbins) in
     let out = Array.make nbins nan in
     app "histogram" (Apps.Histogram.program ~n ~nbins ~data ~result:out) out
       (fun () -> Apps.Histogram.reference ~nbins data));
    (let n = 65_536 in
     let a = arr n (fun () -> small_int 13 -. 6.0)
     and b = arr n (fun () -> small_int 7 +. 1.0) in
     let out = Array.make 1 nan in
     app "dot" (Apps.Dot.program ~n ~a ~b ~result:out) out (fun () ->
         Apps.Dot.reference a b));
  ]

let setup (c : ctx) =
  let rng = Random.State.make [| c.seed; 0xF0 |] in
  List.map
    (fun (name, prog, out, reference) ->
       let exe =
         match Mekong.Toolchain.compile prog with
         | Ok a -> a.Mekong.Toolchain.exe
         | Error e -> failwith (Mekong.Toolchain.error_message e)
       in
       { name; prog; out; expected = reference (); exe })
    (build rng)

let digest apps =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun a -> Marshal.to_string a.expected []) apps)))

(* 2% transient kernel and transfer faults, plus the loss of the last
   device half-way through the plain run when there is more than one. *)
let faults ~seed a g ~plain_time =
  Gpusim.Faults.create
    {
      Gpusim.Faults.null_spec with
      seed = Hashtbl.hash (seed, a.name, g);
      kernel_fault_rate = 0.02;
      transfer_fault_rate = 0.02;
      scheduled_losses = (if g > 1 then [ (g - 1, 0.5 *. plain_time) ] else []);
    }

let machine ?cap g =
  Gpusim.Machine.create ~functional:true
    (Gpusim.Config.k80_box ~n_devices:g ?mem_capacity:cap ())

(* Per-layer counters summed over one round. *)
let counter_names =
  [ "kcompile.compiles"; "kcompile.cache_hits"; "kcompile.interpreted";
    "kcompile.seq_launches"; "kcompile.par_launches"; "gate.merges";
    "gate.merged_elems"; "mem.chunks"; "mem.chunked_launches";
    "mem.oom_refinements"; "gpusim.spills"; "gpusim.spill_bytes";
    "faults.retries"; "faults.replays"; "autotune.launches";
    "autotune.halo_blocks" ]

let round c apps _ =
  let counts = Hashtbl.create 16 in
  let add k v = Hashtbl.replace counts k (v + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  let add_exec (e : Kcompile.stats) =
    add "kcompile.compiles" e.Kcompile.st_compiles;
    add "kcompile.cache_hits" e.Kcompile.st_cache_hits;
    add "kcompile.interpreted" e.Kcompile.st_interpreted;
    add "kcompile.seq_launches" e.Kcompile.st_seq;
    add "kcompile.par_launches" e.Kcompile.st_par
  in
  let sims = ref [] in
  let checked a what =
    check c (bit_equal a.out a.expected)
      (Printf.sprintf "%s %s bit-identical to the CPU reference" a.name what)
  in
  List.iter
    (fun a ->
       layer ("app." ^ a.name) @@ fun () ->
       Array.fill a.out 0 (Array.length a.out) nan;
       (match
          attempt c (a.name ^ " single-GPU run") (fun () ->
              layer "single_gpu.compiled" (fun () ->
                  Single_gpu.run ~machine:(machine 1) a.prog))
        with
        | Some r ->
          add_exec r.Single_gpu.exec;
          checked a "single-GPU"
        | None -> ());
       List.iter
         (fun g ->
            let plain_time = ref 0.0 and high_water = ref 0 in
            List.iter
              (fun variant ->
                 if runs_case a.name variant g then
                 let what = Printf.sprintf "%s@%d" variant g in
                 Array.fill a.out 0 (Array.length a.out) nan;
                 let cap =
                   if variant = "memcap" then Some (!high_water * cap_num / cap_den)
                   else None
                 in
                 let m = machine ?cap g in
                 if variant = "faults" then
                   Gpusim.Machine.inject_faults m
                     (faults ~seed:c.seed a g ~plain_time:!plain_time);
                 match
                   attempt c (a.name ^ " " ^ what) (fun () ->
                       layer ("engine.run." ^ variant) (fun () ->
                           M.run ~domains:1 ~checkpoint_every:3
                             ~overlap:(variant = "overlap")
                             ~autotune:(variant = "autotune") ~machine:m a.exe))
                 with
                 | None -> ()
                 | Some r ->
                   checked a what;
                   sims := r.M.time :: !sims;
                   if variant = "plain" then begin
                     plain_time := r.M.time;
                     high_water :=
                       List.fold_left
                         (fun acc d -> max acc (Gpusim.Machine.mem_high_water m d))
                         0 (List.init g Fun.id)
                   end;
                   let st = Gpusim.Machine.stats m in
                   add_exec r.M.exec;
                   add "gate.merges" r.M.gate.M.gr_merges;
                   add "gate.merged_elems" r.M.gate.M.gr_merged_elems;
                   add "mem.chunks" r.M.mem.M.mr_chunks;
                   add "mem.chunked_launches" r.M.mem.M.mr_chunked_launches;
                   add "mem.oom_refinements" r.M.mem.M.mr_oom_refinements;
                   add "gpusim.spills" st.Gpusim.Machine.n_spills;
                   add "gpusim.spill_bytes" st.Gpusim.Machine.spill_bytes;
                   add "faults.retries" r.M.faults.M.fr_retries;
                   add "faults.replays" r.M.faults.M.fr_replays;
                   add "autotune.launches" r.M.tune.M.tn_launches;
                   add "autotune.halo_blocks" r.M.tune.M.tn_halo_blocks)
              knob_variants)
         device_counts)
    apps;
  ("knobs.sim_time_geomean_s", geomean !sims)
  :: List.map
    (fun k -> (k, float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k))))
    counter_names

let run (c : ctx) apps ~seconds =
  let walls, o = timed_rounds c ~seconds (round c apps) in
  let rounds = float_of_int (List.length walls) in
  List.iter
    (fun v -> set ("engine.run_s." ^ v) (layer_total ("engine.run." ^ v) /. rounds))
    knob_variants;
  set "single_gpu.compiled_s" (layer_total "single_gpu.compiled" /. rounds);
  publish o;
  walls

let prepare c =
  let apps = setup c in
  { digest = digest apps; run = run c apps; extras = ignore }

(* The self-check's probe of the known defect: the reducible apps under
   the fault cases the timed workload leaves out.  Prints one line per
   case and returns how many outputs differ from the CPU reference. *)
let probe seed =
  let apps = setup (ctx ~seed) in
  List.fold_left
    (fun bad a ->
       List.fold_left
         (fun bad g ->
            if runs_case a.name "faults" g then bad
            else begin
              let m0 = machine g in
              let plain_time = (M.run ~domains:1 ~machine:m0 a.exe).M.time in
              let m = machine g in
              Gpusim.Machine.inject_faults m (faults ~seed a g ~plain_time);
              Array.fill a.out 0 (Array.length a.out) nan;
              let r = M.run ~domains:1 ~checkpoint_every:3 ~machine:m a.exe in
              let ok = bit_equal a.out a.expected in
              Printf.printf "probe %s faults@%d: retries %d replays %d lost %d: %s\n"
                a.name g r.M.faults.M.fr_retries r.M.faults.M.fr_replays
                r.M.faults.M.fr_devices_lost
                (if ok then "bit-identical" else "DIFFERS from the CPU reference");
              if ok then bad else bad + 1
            end)
         bad device_counts)
    0 apps
