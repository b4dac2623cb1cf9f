(* The partitioned execution engine: runs a host program over all
   devices of the simulated machine, orchestrated exactly as the code
   the source-to-source rewriter inserts (paper §5, Fig. 4):

     for each gpu:   synchronize the buffers its partition reads
     all-devices synchronize
     for each gpu:   launch its kernel partition asynchronously
     for each gpu:   update the trackers with its partition's writes

   plus the memcpy translations of §8.2 through {!Gpu_runtime.Vbuf}. *)

type compiled_kernel = {
  ck_model : Model.kernel_model;
  ck_partitioned : Kir.t;
  ck_enums : Codegen.t;
  ck_shadow : Kir.t option;
      (* partitioned minimal clone collecting write sets at run time
         for arrays with unanalyzable writes (paper §11 fallback) *)
  ck_gate : Verify.verdict;
      (* the data-race verifier's verdict on the original kernel:
         [Safe] lets a partition's blocks run domain-parallel
         (DESIGN.md §13), [Reducible] routes atomic accumulation
         through partition-local buffers with an ordered merge
         (DESIGN.md §20), anything else runs blocks sequentially *)
}

(* The "linked binary": the host program plus, per kernel, the
   partitioned clone and the generated enumerators. *)
type exe = {
  prog : Host_ir.t;
  compiled : (string * compiled_kernel) list;
}

let compile_kernel ?rectangles ?force_strategy (model : Model.t) (k : Kir.t) =
  let km = Model.find_exn model k.Kir.name in
  let km =
    match force_strategy with
    | Some axis -> { km with Model.strategy = axis }
    | None -> km
  in
  {
    ck_model = km;
    (* The Eq. 8 substitution introduces foldable offsets; clean the
       partitioned clone up like a compiler middle-end would.  (The
       analysis already ran on the unoptimized kernel, so dropping a
       dead padding load here only under-uses the modeled read set,
       which is safe.) *)
    ck_partitioned = Kopt.optimize (Partition.transform_kernel k);
    ck_enums = Codegen.build ?rectangles km;
    ck_shadow =
      (if
         List.exists
           (fun (a : Model.array_model) -> a.Model.write_instrumented)
           km.Model.arrays
       then Some (Partition.transform_kernel (Instrument.shadow_kernel k))
       else None);
    (* The gate works on the original kernel's maps: a partition's
       blocks are a subset of the full grid's blocks, so full-grid
       disjointness covers every partition launch. *)
    ck_gate =
      (match Verify.verify ~kernel:k km with
       | Verify.Reducible red as g ->
         (* The engine redirects *every* access to a reducible array
            into an identity-initialized accumulator; a plain read or
            write on the same array would observe identity values
            instead of live data, so only purely-atomic arrays take
            the reducible path. *)
         let plainly_accessed (arr, _) =
           match
             List.find_opt
               (fun (a : Model.array_model) -> a.Model.arr = arr)
               km.Model.arrays
           with
           | Some a ->
             a.Model.read <> None || a.Model.write <> None
             || a.Model.write_instrumented
           | None -> false
         in
         if List.exists plainly_accessed red then
           Verify.Unknown
             "reducible array is also plainly read or written"
         else g
       | g -> g);
  }

let link ?rectangles ?force_strategy ~(model : Model.t) (prog : Host_ir.t) :
  exe =
  Host_ir.validate prog;
  let compiled =
    List.map
      (fun k -> (k.Kir.name, compile_kernel ?rectangles ?force_strategy model k))
      (Host_ir.kernels prog)
  in
  (* Atomic kernels have no sequential fallback that preserves CUDA
     semantics across partitions (overlapping read-modify-writes would
     race through the trackers), so they must be proven safe or
     reducible at link time; the diagnostic carries the verifier's
     typed reason. *)
  List.iter
    (fun (name, ck) ->
       let has_atomics =
         List.exists
           (fun (a : Model.array_model) -> a.Model.atomic_ops <> [])
           ck.ck_model.Model.arrays
       in
       match ck.ck_gate with
       | Verify.Safe | Verify.Reducible _ -> ()
       | (Verify.Racy _ | Verify.Unknown _) as g when has_atomics ->
         invalid_arg
           (Printf.sprintf
              "Multi_gpu.link: atomic kernel %s is neither safe nor \
               reducible: %s"
              name
              (Verify.verdict_to_string g))
       | Verify.Racy _ | Verify.Unknown _ -> ())
    compiled;
  { prog; compiled }

exception All_devices_lost
(* Terminal: the fault schedule killed every device.  Raised instead of
   spinning in backoff against an empty fleet; there is no state worth
   reporting because no device can hold any. *)

type fault_report = {
  fr_faults : int; (* transient faults and losses observed by the machine *)
  fr_retries : int; (* statement retries after transient faults *)
  fr_replays : int; (* checkpoint replays after unrecoverable data loss *)
  fr_devices_lost : int; (* permanent device losses survived *)
}

let no_faults =
  { fr_faults = 0; fr_retries = 0; fr_replays = 0; fr_devices_lost = 0 }

let pp_fault_report fmt r =
  Format.fprintf fmt "faults=%d retries=%d replays=%d devices_lost=%d"
    r.fr_faults r.fr_retries r.fr_replays r.fr_devices_lost

type mem_report = {
  mr_chunked_launches : int;
      (* launches that took the sequential chunked path *)
  mr_chunks : int; (* total sequential chunks executed *)
  mr_oom_refinements : int;
      (* plans rebuilt with finer chunks after a live Out_of_memory *)
}

let no_mem = { mr_chunked_launches = 0; mr_chunks = 0; mr_oom_refinements = 0 }

let pp_mem_report fmt r =
  Format.fprintf fmt "chunked_launches=%d chunks=%d oom_refinements=%d"
    r.mr_chunked_launches r.mr_chunks r.mr_oom_refinements

type gate_report = {
  gr_safe : int; (* kernels the verifier proved race-free *)
  gr_reducible : int; (* kernels whose conflicts are same-op atomics *)
  gr_racy : int; (* kernels with a validated concrete witness *)
  gr_unknown : int; (* kernels the analysis could not decide *)
  gr_merges : int; (* reducible merge phases executed *)
  gr_merged_elems : int; (* element combines across all merges *)
}

let no_gate =
  {
    gr_safe = 0;
    gr_reducible = 0;
    gr_racy = 0;
    gr_unknown = 0;
    gr_merges = 0;
    gr_merged_elems = 0;
  }

let pp_gate_report fmt r =
  Format.fprintf fmt
    "safe=%d reducible=%d racy=%d unknown=%d merges=%d merged_elems=%d"
    r.gr_safe r.gr_reducible r.gr_racy r.gr_unknown r.gr_merges
    r.gr_merged_elems

(* Identity and combine of the reducible merge, matching the
   interpreter's atomic semantics element-wise so host merging is
   bit-compatible with in-place accumulation. *)
let reduce_identity = function
  | Kir.AAdd -> 0.0
  | Kir.AMin -> infinity
  | Kir.AMax -> neg_infinity

let reduce_combine = function
  | Kir.AAdd -> ( +. )
  | Kir.AMin -> Stdlib.min
  | Kir.AMax -> Stdlib.max

(* Relative-error histogram bucket upper bounds, in percent (the last
   bucket is open-ended). *)
let tune_err_buckets = [| 5.0; 10.0; 25.0; 50.0; 100.0 |]

type tune_report = {
  tn_launches : int; (* autotuned launches measured *)
  tn_predicted_s : float; (* summed predicted launch seconds *)
  tn_actual_s : float; (* summed measured launch seconds *)
  tn_err_hist : int array;
      (* relative-error histogram over launches:
         |pred-act|/act <= 5, 10, 25, 50, 100, > 100 percent *)
  tn_halo_blocks : int; (* temporal blocks executed by halo tiling *)
  tn_halo_steps : int; (* kernel steps inside those blocks *)
}

let no_tune =
  {
    tn_launches = 0;
    tn_predicted_s = 0.0;
    tn_actual_s = 0.0;
    tn_err_hist = Array.make (Array.length tune_err_buckets + 1) 0;
    tn_halo_blocks = 0;
    tn_halo_steps = 0;
  }

let pp_tune_report fmt r =
  Format.fprintf fmt
    "autotuned=%d predicted=%.6fs actual=%.6fs halo_blocks=%d halo_steps=%d"
    r.tn_launches r.tn_predicted_s r.tn_actual_s r.tn_halo_blocks
    r.tn_halo_steps

type result = {
  machine : Gpusim.Machine.t;
  time : float;
  transfers : int; (* inter-device synchronization transfers issued *)
  cache : Launch_cache.stats;
      (* launch-plan cache hit/miss counters (zero when disabled) *)
  faults : fault_report;
      (* what the self-healing loop saw and did (all zero on ideal
         hardware) *)
  exec : Kcompile.stats;
      (* executor counters: compilations, parallel vs. sequential
         launches, interpreter fallbacks *)
  mem : mem_report;
      (* memory-pressure adaptation: chunked launches and live-OOM
         refinements (all zero on uncapped machines) *)
  tune : tune_report;
      (* autotuner calibration: predicted vs. measured per-launch
         seconds and the halo-tiling activity (all zero when
         autotuning is off) *)
  gate : gate_report;
      (* per-kernel verifier verdict counts plus the reducible-merge
         activity of this run *)
}

let publish_metrics ?(into = Obs.Metrics.default) (r : result) =
  let set n v = Obs.Metrics.set into n v in
  let seti n v = set n (float_of_int v) in
  set "engine.time_seconds" r.time;
  seti "engine.transfers" r.transfers;
  seti "engine.chunked_launches" r.mem.mr_chunked_launches;
  seti "engine.chunks" r.mem.mr_chunks;
  seti "engine.oom_refinements" r.mem.mr_oom_refinements;
  seti "cache.plan_hits" r.cache.Launch_cache.hits;
  seti "cache.plan_misses" r.cache.Launch_cache.misses;
  seti "engine.gate.safe" r.gate.gr_safe;
  seti "engine.gate.reducible" r.gate.gr_reducible;
  seti "engine.gate.racy" r.gate.gr_racy;
  seti "engine.gate.unknown" r.gate.gr_unknown;
  seti "engine.gate.merges" r.gate.gr_merges;
  seti "engine.gate.merged_elems" r.gate.gr_merged_elems;
  seti "faults.observed" r.faults.fr_faults;
  seti "faults.retries" r.faults.fr_retries;
  seti "faults.replays" r.faults.fr_replays;
  seti "faults.devices_lost" r.faults.fr_devices_lost;
  seti "autotune.launches" r.tune.tn_launches;
  set "autotune.predicted_us" (r.tune.tn_predicted_s *. 1e6);
  set "autotune.actual_us" (r.tune.tn_actual_s *. 1e6);
  seti "autotune.halo_blocks" r.tune.tn_halo_blocks;
  seti "autotune.halo_steps" r.tune.tn_halo_steps;
  Array.iteri
    (fun i count ->
       let name =
         if i < Array.length tune_err_buckets then
           Printf.sprintf "autotune.err_le_%.0fpct" tune_err_buckets.(i)
         else "autotune.err_gt_100pct"
       in
       seti name count)
    r.tune.tn_err_hist;
  Kcompile.publish_metrics ~into r.exec;
  Gpusim.Machine.publish_metrics ~into r.machine

(* A preemption handoff: the flattened-statement index to resume from
   plus the logical content of every live buffer, gathered host-side.
   Statements are idempotent (see the flattening comment below), so
   resuming a fresh engine at [h_index] with these buffers restored
   reproduces the uninterrupted run bit-identically. *)
type handoff = {
  h_index : int;
  h_buffers : (string * int * float array option) list;
      (* (name, len, content); content is [None] on performance
         machines, where only extents matter *)
}

type bounded = Done of result | Preempted of result * handoff

(* Common parameter bindings of one launch: scalar arguments plus block
   and grid dimensions. *)
let launch_bindings kernel ~grid ~block ~args =
  Host_ir.scalar_bindings kernel args
  @ List.concat_map
      (fun a ->
         [ (Access.bdim_name a, Dim3.get block a);
           (Access.gdim_name a, Dim3.get grid a) ])
      Dim3.axes

(* Backoff constants for transient-fault retries, all in *simulated*
   seconds: the retried operation itself advances the simulated clock,
   so the penalty a real driver would impose must live on the same
   clock (wall-clock sleeps would be invisible to the reported times).
   The budget bounds total backoff per statement; the fault layer's
   consecutive cap means it is never reached under any rate < 1. *)
let backoff_base = 100e-6
let backoff_cap = 10e-3
let backoff_budget = 1.0

let run_bounded ?(cfg = Gpu_runtime.Rconfig.alpha) ?(tiling = `One_d)
    ?(cache = true) ?(checkpoint_every = 8) ?domains ?(overlap = false)
    ?(autotune = false) ?abort_at ?resume ~(machine : Gpusim.Machine.t)
    (exe : exe) : bounded =
  if not (Gpu_runtime.Rconfig.is_valid cfg) then invalid_arg "Multi_gpu.run: bad config";
  if checkpoint_every <= 0 then
    invalid_arg "Multi_gpu.run: checkpoint_every must be positive";
  (match abort_at with
   | Some t when not (t > 0.0) ->
     invalid_arg "Multi_gpu.run_bounded: abort_at must be positive"
   | _ -> ());
  let domains =
    match domains with
    | Some d ->
      if d < 1 then invalid_arg "Multi_gpu.run: domains must be positive";
      d
    | None -> Gpu_runtime.Dpool.default_domains ()
  in
  let exec_stats = Kcompile.new_stats () in
  let m = machine in
  (* Engine phases are spanned on the simulated host clock as well as
     wall time, so the trace shows where simulated time is created. *)
  let sim () = Gpusim.Machine.host_time m in
  (* The span name doubles as the causal phase label, so DAG nodes
     carry the engine phase that scheduled them. *)
  let span name f =
    Obs.Span.with_span ~cat:"engine" ~sim name (fun () ->
        Gpusim.Machine.with_phase m name f)
  in
  let host_costs = (Gpusim.Machine.config m).Gpusim.Config.host in
  Gpusim.Machine.set_active_devices m (Gpusim.Machine.n_devices m);
  (* Self-healing is armed only when the machine injects faults, so
     ideal-hardware runs take the exact pre-existing path: no replica
     tracking, no checkpoints, no extra simulated work. *)
  let healing = Gpusim.Machine.fault_state m <> None in
  let live = ref (Gpusim.Machine.live_devices m) in
  let n_live () = List.length !live in
  let faults_at_entry = (Gpusim.Machine.stats m).Gpusim.Machine.n_faults in
  let retries = ref 0 and replays = ref 0 and devices_lost = ref 0 in
  let vbufs : (string, Gpu_runtime.Vbuf.t) Hashtbl.t = Hashtbl.create 16 in
  let total_transfers = ref 0 in
  (* Memory-pressure adaptation (DESIGN.md §15).  A finite per-device
     capacity makes the engine (a) pass the whole buffer population as
     the eviction pool so LRU spilling can steal from any cold vbuf,
     and (b) chunk any partition whose polyhedral footprint exceeds the
     capacity into sequential sub-launches that fit. *)
  let mem_cap = Gpusim.Machine.mem_capacity m in
  let capped = mem_cap < max_int && cfg.Gpu_runtime.Rconfig.patterns in
  let elem_bytes = (Gpusim.Machine.config m).Gpusim.Config.elem_bytes in
  let mem = ref no_mem in
  (* Per-launch-key forced minimum chunk count: bumped when a launch
     dies with a live Out_of_memory despite the footprint estimate. *)
  let forced : (Launch_cache.key, int) Hashtbl.t = Hashtbl.create 4 in
  (* --- Autotuning state (DESIGN.md §18) ------------------------------ *)
  (* The scorer needs the polyhedral range lists, so autotuning is only
     meaningful under a patterns config (like the tracker itself). *)
  let tune_enabled = autotune && cfg.Gpu_runtime.Rconfig.patterns in
  (* Two static facts of the host program.  Double-buffer pairs: the
     autotuner's steady-state home model and the halo-tiling legality
     check both need to know which buffer a Swap aliases to which.
     Iteration context per kernel: the product of enclosing Repeat
     counts, which is what the halo-aware scorer amortizes per-transfer
     latency and barriers over. *)
  let aliases = ref [] in
  let repeat_iters : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let rec scan ~n (s : Host_ir.stmt) =
    match s with
    | Host_ir.Swap (a, b) ->
      if not (List.mem (a, b) !aliases || List.mem (b, a) !aliases) then
        aliases := (a, b) :: !aliases
    | Host_ir.Launch { kernel; _ } ->
      let cur =
        Option.value ~default:1 (Hashtbl.find_opt repeat_iters kernel.Kir.name)
      in
      if n > cur then Hashtbl.replace repeat_iters kernel.Kir.name n
    | Host_ir.Repeat (k, body) -> List.iter (scan ~n:(n * k)) body
    | _ -> ()
  in
  List.iter (scan ~n:1) exe.prog.Host_ir.body;
  let swap_aliases = List.rev !aliases in
  let iters_of kernel =
    Option.value ~default:1 (Hashtbl.find_opt repeat_iters kernel.Kir.name)
  in
  (* The launch-key extension: "" when autotuning is off (seed-identical
     keys and cache behavior), otherwise the scoring-input signature so
     a plan chosen under one regime (live set, speeds, topology) is
     never replayed under another. *)
  let tune_sig kernel =
    if not tune_enabled then ""
    else
      Autotune.signature ~cfg:(Gpusim.Machine.config m) ~live:!live
        ~iters:(iters_of kernel)
  in
  (* Halo-tiled Repeat execution composes with the plain engine only:
     self-healing checkpoints count per-launch, preemption and resume
     index into the flattened stream, and memory chunking re-syncs
     between chunks — all assume the per-step schedule, so any of them
     disables Repeat interception (never the autotuned partition
     choice itself). *)
  let halo_repeats_ok =
    tune_enabled && (not healing) && abort_at = None && resume = None
    && not capped
  in
  let tune =
    ref
      {
        no_tune with
        tn_err_hist = Array.make (Array.length tune_err_buckets + 1) 0;
      }
  in
  (* One calibration sample; [halo_steps > 0] for a halo-tiled temporal
     block of that many steps. *)
  let record_tune ?(halo_steps = 0) ~predicted ~actual () =
    let t = !tune in
    let err =
      if actual > 0.0 then abs_float (predicted -. actual) /. actual *. 100.0
      else if predicted = 0.0 then 0.0
      else infinity
    in
    let b = ref 0 in
    while !b < Array.length tune_err_buckets && err > tune_err_buckets.(!b) do
      incr b
    done;
    t.tn_err_hist.(!b) <- t.tn_err_hist.(!b) + 1;
    tune :=
      {
        t with
        tn_launches = t.tn_launches + 1;
        tn_predicted_s = t.tn_predicted_s +. predicted;
        tn_actual_s = t.tn_actual_s +. actual;
        tn_halo_blocks = (t.tn_halo_blocks + if halo_steps > 0 then 1 else 0);
        tn_halo_steps = t.tn_halo_steps + halo_steps;
      }
  in
  (* The eviction pool, sorted by name: stamps shared across vbufs can
     tie, and [coldest] breaks ties by pool order, so the order must
     not depend on hash-table internals. *)
  let pool_of () =
    List.sort
      (fun a b ->
         compare (Gpu_runtime.Vbuf.name a) (Gpu_runtime.Vbuf.name b))
      (Hashtbl.fold (fun _ vb acc -> vb :: acc) vbufs [])
  in
  (* Per-launch compiled-kernel lookup must not be linear in the kernel
     count. *)
  let compiled_tbl : (string, compiled_kernel) Hashtbl.t =
    Hashtbl.create 16
  in
  (* First binding wins. *)
  List.iter
    (fun (name, ck) -> Hashtbl.replace compiled_tbl name ck)
    (List.rev exe.compiled);
  (* The launch-key reduction field: which arrays this kernel
     accumulates reducibly, under which operator.  Static per link,
     but part of the key so a plan can never be replayed under a
     different execution mode. *)
  let reduce_sig kernel =
    match Hashtbl.find_opt compiled_tbl kernel.Kir.name with
    | Some { ck_gate = Verify.Reducible red; _ } ->
      String.concat ","
        (List.map (fun (arr, op) -> Kir.atomic_name op ^ ":" ^ arr) red)
    | _ -> ""
  in
  let key_of kernel grid block args =
    {
      Launch_cache.kernel = kernel.Kir.name;
      grid;
      block;
      args;
      mem_cap;
      tune = tune_sig kernel;
      reduce = reduce_sig kernel;
    }
  in
  let gate_merges = ref 0 and gate_merged_elems = ref 0 in
  (* The unfinished tail of the current statement, set once a
     reducible launch has folded its accumulators into the host base:
     from then on the launch must not run again (the re-gathered base
     would already hold the merged values and be merged twice), so a
     retry after a fault resumes here instead. *)
  let pending_tail : (unit -> unit) option ref = ref None in
  (* The unfinished memory chunks of the current launch statement (see
     [issue]).  A device loss or a plan refinement invalidates the plan
     they belong to, so both drop them and the statement restarts. *)
  let pending_chunks : (unit -> unit) option ref = ref None in
  (* Plans live for one cache generation: device count, tiling and
     measurement config are fixed within it, so they need not be part
     of the key.  A permanent device loss changes the partitioning and
     starts a fresh generation (every cached plan names the dead
     device); compiled kernels and the counters outlive it. *)
  let plan_cache = Launch_cache.create () in
  let find b =
    try Hashtbl.find vbufs b
    with Not_found -> invalid_arg ("Multi_gpu: unallocated buffer " ^ b)
  in
  (* Charge host-side dependency-resolution work (the "patterns"
     overhead of §9.2). *)
  let charge ~tracker_ops ~ranges ~dispatches =
    let seconds =
      (float_of_int tracker_ops *. host_costs.Gpusim.Config.tracker_op_seconds)
      +. (float_of_int ranges *. host_costs.Gpusim.Config.range_seconds)
      +. (float_of_int dispatches *. host_costs.Gpusim.Config.dispatch_seconds)
    in
    if seconds > 0.0 then Gpusim.Machine.host_work m ~seconds ~category:"pattern"
  in
  (* Run [f] against [vb] and charge the tracker operations it performed
     plus [ranges] raw range emissions. *)
  let tracked vb ~ranges f =
    let tr = Gpu_runtime.Vbuf.tracker vb in
    let before = Gpu_runtime.Tracker.ops tr in
    let res = f () in
    charge ~tracker_ops:(Gpu_runtime.Tracker.ops tr - before) ~ranges
      ~dispatches:0;
    res
  in
  (* Host-to-device scatter of one buffer, under the eviction pool. *)
  let upload vb src =
    tracked vb ~ranges:0 (fun () ->
        Gpu_runtime.Vbuf.h2d ~cfg ~pool:(pool_of ()) vb ~src)
  in
  let functional = Gpusim.Machine.is_functional m in
  (* Gather one buffer to the host: into [dst] when given, otherwise
     into a fresh array on functional machines ([None] on performance
     ones, where only extents matter).  Callers order it with a
     barrier first. *)
  let gather ?dst vb =
    let dst =
      match dst with
      | Some dst -> dst
      | None when functional -> Some (Array.make (Gpu_runtime.Vbuf.len vb) 0.0)
      | None -> None
    in
    tracked vb ~ranges:0 (fun () -> Gpu_runtime.Vbuf.d2h ~cfg vb ~dst);
    dst
  in
  (* Compiled closures are cached even with [cache:false]: they never
     affect simulated results, and re-deriving them per launch would
     bury the plan-cache A/B signal under compilation noise. *)
  let compiled_for kernel ~grid ~block ~args =
    let compiled, freshness =
      Launch_cache.find_or_compile plan_cache
        {
          Launch_cache.ck_kernel = kernel.Kir.name;
          ck_grid = grid;
          ck_block = block;
          ck_args = args;
        }
        ~compile:(fun () -> Kcompile.compile kernel ~grid ~block ~args)
    in
    (match freshness with
     | `Hit ->
       exec_stats.Kcompile.st_cache_hits <- exec_stats.Kcompile.st_cache_hits + 1
     | `Miss ->
       exec_stats.Kcompile.st_compiles <- exec_stats.Kcompile.st_compiles + 1);
    compiled
  in
  let interpreted () =
    exec_stats.Kcompile.st_interpreted <- exec_stats.Kcompile.st_interpreted + 1
  in
  let no_redirect _ = None in
  (* The last shadow launch's write sets, and a stage's collection of
     them as (array, device, ranges). *)
  let shadow_sets = ref [] and collected = ref [] in
  (* The one launch site: [pp]'s partition of [ck]'s partitioned kernel
     on its device or, with [collect] non-empty, of its shadow clone,
     which records the written elements of those arrays onto
     [collected].  Buffer names resolve through [find] at run time, so
     a host-program Swap between calls redirects them exactly as it
     does the kernel's own argument resolution. *)
  let launch_pp ck ~arg_arrays ~block ~redirect ~collect
      (pp : Launch_cache.partition_plan) =
    let dev = pp.Launch_cache.pp_part.Partition.device in
    let grid = pp.Launch_cache.pp_launch_grid
    and args = pp.Launch_cache.pp_scalar_args in
    charge ~tracker_ops:0 ~ranges:0 ~dispatches:1;
    Gpusim.Machine.launch m ~device:dev ~blocks:pp.Launch_cache.pp_n_blocks
      ~ops_per_block:
        (if collect = [] then pp.Launch_cache.pp_ops_per_block
         else pp.Launch_cache.pp_shadow_cost)
      ~run:(fun () ->
        let buffer_of a =
          Gpu_runtime.Vbuf.instance (find (List.assoc a arg_arrays)) dev
        in
        (* Reducible arrays never touch device buffers: every access lands
           in the partition-local accumulator, and the touched flags let
           the merge skip identity elements (preserving the base bits,
           -0.0 included).  The compiled executor resolves each array once
           per launch, the interpreter once per access. *)
        let redirect = if collect = [] then redirect else no_redirect in
        let load a =
          match redirect a with
          | Some (acc, _) -> fun off -> acc.(off)
          | None ->
            let data = Gpusim.Buffer.data_exn (buffer_of a) in
            fun off -> data.(off)
        in
        let store a =
          match redirect a with
          | Some (acc, touched) ->
            fun off v ->
              acc.(off) <- v;
              touched.(off) <- true
          | None ->
            let data = Gpusim.Buffer.data_exn (buffer_of a) in
            fun off v -> data.(off) <- v
        in
        match ck.ck_shadow with
        | Some shadow when collect <> [] ->
          (* The collected write sets are data-dependent (that is why
             the array needed instrumentation): they are never cached,
             only the shadow launch's static parameters are. *)
          let compiled = compiled_for shadow ~grid ~block ~args in
          if Result.is_ok compiled then Kcompile.record_path exec_stats `Seq
          else interpreted ();
          shadow_sets :=
            Instrument.collect_writes ~compiled:(Some compiled) ~shadow ~grid
              ~block ~args ~arrays:collect ~load
        | _ -> (
            match compiled_for ck.ck_partitioned ~grid ~block ~args with
            | Ok cck ->
              let pool =
                match ck.ck_gate with
                | Verify.Safe when domains > 1 ->
                  Some (Gpu_runtime.Dpool.get ())
                | _ ->
                  (* Reducible accumulation is a read-modify-write
                     through the shared accumulator: not domain-atomic,
                     so blocks run sequentially (deterministic
                     in-partition order). *)
                  None
              in
              Kcompile.record_path exec_stats
                (Kcompile.run ?pool ~max_domains:domains cck ~load ~store)
            | Error _ ->
              interpreted ();
              Keval.run ck.ck_partitioned ~grid ~block ~args ~load ~store));
    if collect <> [] then
      List.iter
        (fun (arr, ranges) ->
           collected := (arr, dev, ranges) :: !collected;
           charge ~tracker_ops:0 ~ranges:(List.length ranges) ~dispatches:0)
        !shadow_sets
  in
  (* Every range of per-device entries, one LRU stamp per entry: the
     stage's [shared] one, or a fresh tick when that is 0. *)
  let each ~shared entries f =
    List.iter
      (fun (dev, rgs) ->
         let stamp = if shared > 0 then shared else Gpusim.Machine.lru_tick m in
         List.iter (f ~dev ~stamp) rgs)
      entries
  in
  (* Issue one stage of a plan: fetch, barrier, reserve, launch, tracker
     update, each phase only when the stage has work for it.  This is
     the engine's whole execution schedule; plans differ only in the
     stages they carry (see [build_plan]). *)
  let issue_stage ck ~arg_arrays ~block ~redirect_of
      (sg : Launch_cache.stage) =
    let pool = pool_of () in
    let shared =
      match sg.Launch_cache.sg_stamp with
      | Launch_cache.Shared -> Gpusim.Machine.lru_tick m
      | Launch_cache.Each -> 0
    in
    if sg.Launch_cache.sg_fetch <> [] then
      span "sync_reads" (fun () ->
          each ~shared sg.Launch_cache.sg_fetch (fun ~dev ~stamp r ->
              let vb = find r.Launch_cache.rg_buf in
              total_transfers :=
                !total_transfers
                + tracked vb ~ranges:r.Launch_cache.rg_raw (fun () ->
                    Gpu_runtime.Vbuf.sync_for_read ~cfg
                      ~batch:sg.Launch_cache.sg_batch ~pool ~stamp vb ~dev
                      ~ranges:r.Launch_cache.rg_ranges)));
    if sg.Launch_cache.sg_barrier then
      span "barrier" (fun () -> Gpusim.Machine.synchronize m);
    if sg.Launch_cache.sg_reserve then begin
      mem := { !mem with mr_chunks = !mem.mr_chunks + 1 };
      each ~shared sg.Launch_cache.sg_updates (fun ~dev ~stamp r ->
          Gpu_runtime.Vbuf.ensure_resident ~cfg ~pool ~stamp
            (find r.Launch_cache.rg_buf) ~dev ~ranges:r.Launch_cache.rg_ranges)
    end;
    collected := [];
    if sg.Launch_cache.sg_launches <> [] then
      span "launch" (fun () ->
          List.iter
            (fun (slot, pp) ->
               launch_pp ck ~arg_arrays ~block ~redirect:(redirect_of slot)
                 ~collect:sg.Launch_cache.sg_collect pp)
            sg.Launch_cache.sg_launches);
    if sg.Launch_cache.sg_updates <> [] || sg.Launch_cache.sg_collect <> [] then
      span "tracker_update" (fun () ->
          each ~shared sg.Launch_cache.sg_updates (fun ~dev ~stamp r ->
              let vb = find r.Launch_cache.rg_buf in
              tracked vb ~ranges:r.Launch_cache.rg_raw (fun () ->
                  Gpu_runtime.Vbuf.update_for_write ~cfg ~pool ~stamp vb ~dev
                    ~ranges:r.Launch_cache.rg_ranges));
          (* Collected write sets: a dynamic check rejects cross-partition
             write-after-write hazards, then the trackers are updated. *)
          List.iter
            (fun arr ->
               let per_dev =
                 List.filter_map
                   (fun (a, dev, ranges) ->
                      if a = arr then Some (dev, ranges) else None)
                   !collected
               in
               Instrument.check_disjoint ~arr per_dev;
               let vb = find (List.assoc arr arg_arrays) in
               List.iter
                 (fun (dev, ranges) ->
                    tracked vb ~ranges:0 (fun () ->
                        Gpu_runtime.Vbuf.update_for_write ~cfg vb ~dev ~ranges))
                 per_dev)
            sg.Launch_cache.sg_collect)
  in
  (* Rebuild the buffer population from a preemption handoff: allocate
     every buffer first (so the eviction pool sees the whole set), then
     re-scatter each one's content, paying the upload like any h2d.
     Statement [h_index] then continues as if nothing happened. *)
  let install_resume (h : handoff) =
    span "resume" @@ fun () ->
    List.iter
      (fun (name, len, _) ->
         Hashtbl.replace vbufs name (Gpu_runtime.Vbuf.create m ~name ~len))
      h.h_buffers;
    List.iter (fun (name, _, data) -> upload (find name) data) h.h_buffers
  in
  let footprints =
    Launch_cache.footprints ~elem_bytes ~buf_len:(fun b ->
        Gpu_runtime.Vbuf.len (find b))
  in
  let footprint pp =
    List.fold_left (fun acc (_, b) -> acc + b) 0 (footprints pp)
  in
  (* Derive everything a launch needs from its parameters alone (no
     tracker or buffer state): the launch-plan cache's payload, the
     launch's issue order as a list of stages.  With the cache disabled
     it is rebuilt for every launch, which makes the two paths
     trivially bit-identical. *)
  let build_plan ?(min_chunks = 1) ck kernel grid block args :
    Launch_cache.plan =
    let km = ck.ck_model in
    (* Autotuned runs pick the partitioning by scored search over the
       candidate families (Autotune.choose); fixed runs use the
       model's strategy axis under the configured tiling, exactly as
       before. *)
    let choice =
      if not tune_enabled then None
      else
        Some
          (span ("autotune:" ^ kernel.Kir.name) (fun () ->
               Autotune.choose ~cfg:(Gpusim.Machine.config m) ~live:!live
                 ~km ~enums:ck.ck_enums ~partitioned:ck.ck_partitioned
                 ~kernel ~grid ~block ~args ~aliases:swap_aliases
                 ~iters:(iters_of kernel)
                 ~buf_len:(fun b -> Gpu_runtime.Vbuf.len (find b))
                 ()))
    in
    let partitions =
      let primary = km.Model.strategy in
      (* Partition over the surviving devices (all of them on ideal
         hardware), then map partition slots onto actual device ids. *)
      let n = n_live () in
      let parts =
        match choice with
        | Some ch -> ch.Autotune.c_winner.Autotune.parts
        | None ->
          (match tiling with
           | `One_d -> Partition.make ~grid ~axis:primary ~n
           | `Two_d ->
             (* secondary axis: another axis with more than one block,
                preferring the row-major-adjacent one; fall back to 1-D
                when the grid is flat *)
             let secondary =
               List.find_opt
                 (fun a -> a <> primary && Dim3.get grid a > 1)
                 [ Dim3.X; Dim3.Y; Dim3.Z ]
             in
             (match secondary with
              | Some axis2 ->
                Partition.make_2d ~grid ~axis1:primary ~axis2 ~n
              | None -> Partition.make ~grid ~axis:primary ~n))
      in
      let live_arr = Array.of_list !live in
      let parts =
        List.map
          (fun (p : Partition.t) ->
             { p with Partition.device = live_arr.(p.Partition.device) })
          parts
      in
      List.filter (fun p -> not (Partition.is_empty p)) parts
    in
    let common = launch_bindings kernel ~grid ~block ~args in
    let arg_arrays = Host_ir.array_bindings kernel args in
    let patterns = cfg.Gpu_runtime.Rconfig.patterns in
    let eval_ranges p select =
      (* Gamma runs never consume range lists; skip evaluating them. *)
      if not patterns then []
      else
        let bindings = common @ Partition.box_bindings p ~block in
        List.filter_map
          (fun (arr, rg_buf) ->
             Option.map
               (fun enum ->
                  let rg_ranges, rg_raw = Codegen.ranges_counted enum ~bindings in
                  { Launch_cache.rg_buf; rg_ranges; rg_raw })
               (Option.bind (Codegen.entry ck.ck_enums arr) select))
          arg_arrays
    in
    let plan_of p =
      let part_args = args @ Partition.partition_args p in
      let scalar_env =
        Host_ir.scalar_bindings ck.ck_partitioned part_args
      in
      {
        Launch_cache.pp_part = p;
        pp_reads = eval_ranges p (fun e -> e.Codegen.read);
        pp_writes = eval_ranges p (fun e -> e.Codegen.write);
        pp_launch_grid = Partition.launch_grid p;
        pp_n_blocks = Partition.n_blocks p;
        pp_scalar_args = Host_ir.scalar_args part_args;
        pp_ops_per_block =
          Costmodel.ops_per_block ck.ck_partitioned ~scalar_env ~block;
        pp_shadow_cost =
          (match ck.ck_shadow with
           | Some shadow ->
             Instrument.shadow_cost shadow
               ~scalar_env:(Host_ir.scalar_bindings shadow part_args)
               ~block
           | None -> 0.0);
      }
    in
    let pps = List.map plan_of partitions in
    (* Memory-pressure chunking: split any partition whose footprint
       exceeds the device capacity into sequential sub-launches that
       fit ([] = launch whole). *)
    let chunk_plan pp =
      match Launch_cache.chunk ~plan_of ~footprint ~mem_cap ~min_chunks pp with
      | Ok chunks -> chunks
      | Error tightest ->
        let buf, bufbytes =
          Option.value ~default:("<none>", 0)
            (List.fold_left
               (fun acc (b, bytes) ->
                  match acc with
                  | Some (_, best) when best >= bytes -> acc
                  | _ -> Some (b, bytes))
               None (footprints tightest))
        in
        let need = footprint tightest in
        failwith
          (Printf.sprintf
             "Multi_gpu: kernel %s is infeasible under the device memory \
              capacity: smallest chunk still needs %d bytes on device %d \
              (largest buffer %s: %d bytes) but the capacity is %d, \
              %d bytes short"
             kernel.Kir.name need tightest.Launch_cache.pp_part.Partition.device
             buf bufbytes mem_cap (need - mem_cap))
    in
    let chunks = if capped then List.map chunk_plan pps else [] in
    let chunked = List.exists (fun cs -> cs <> []) chunks in
    (* When any partition launches in chunks, its trackers update
       eagerly between chunks, so another device's read of data this
       launch writes would observe post-launch data instead of the
       barrier-synchronized pre-launch data.  The polyhedral ranges
       tell us statically whether that can happen; refuse if so. *)
    if chunked then begin
      (match Launch_cache.raw_conflict pps with
       | Some (reader, buf, writer) ->
         failwith
           (Printf.sprintf
              "Multi_gpu: kernel %s cannot be chunked under memory \
               pressure: device %d reads parts of buffer %s that device %d \
               writes in the same launch; raise the capacity"
              kernel.Kir.name reader buf writer)
       | None -> ());
      if ck.ck_shadow <> None then
        failwith
          (Printf.sprintf
             "Multi_gpu: kernel %s needs instrumented write collection, \
              which memory-pressure chunking does not support; raise the \
              capacity"
             kernel.Kir.name)
    end;
    (* Segment batching (p2p_multi packing) was introduced for the
       fragmented transfers of 2-D tiles, and autotuned runs keep it
       for every shape that departs from the seed's — the packed copy
       pays one latency for many segments but serializes copy engines
       the per-range path overlaps, so it is only a win when ranges
       fragment.  When the tuner's winner IS the fixed shape (and no
       halo schedule engages), the transfers are the seed's contiguous
       strips and the seed's per-range path is kept byte-for-byte, so
       "autotuned never slower than fixed" holds by construction
       there. *)
    let batch =
      tiling = `Two_d
      ||
      match choice with
      | Some ch ->
        Autotune.halo_depth ch.Autotune.c_winner >= 2
        || not
             (Autotune.seed_shape_name
                (Autotune.shape_name ch.Autotune.c_winner.Autotune.shape))
      | None -> false
    in
    let stage = Launch_cache.stage ~batch in
    let dev (pp : Launch_cache.partition_plan) = pp.pp_part.Partition.device in
    let reads pp = (dev pp, pp.Launch_cache.pp_reads)
    and writes pp = (dev pp, pp.Launch_cache.pp_writes) in
    let slots = List.mapi (fun slot pp -> (slot, pp)) pps in
    (* Overlap mode drops the host barrier between the exchange and the
       launches.  Correctness does not need it: the copy engines are
       in-order, so each partition's kernel (which waits on its
       device's engines, default-stream ordering) observes every fetch
       issued for it, and the exchange was *fully issued* before any
       launch — kernels can never leak post-launch data into another
       partition's fetch.  With the barrier gone, device k+1's halo
       fetches overlap device k's kernel, host pattern work runs under
       device compute, and the per-device pipelines skew freely;
       functional results are bit-identical because functional data
       moves at issue time, in the same order either way. *)
    let main =
      if not chunked then
        (* §5's schedule: (2) synchronize all buffers read by the
           kernel, barrier, (3) launch each partition on its device,
           (4) update the trackers to account for the writes. *)
        [
          stage
            ~fetch:(if patterns then List.map reads pps else [])
            ~barrier:(not overlap) ~launches:slots
            ~updates:(if patterns then List.map writes pps else [])
            ();
        ]
      else
        (* Memory-pressure chunks: the partition's footprint does not
           fit its device, so after a leading sync (kept in overlap
           mode: the eager updates rely on it) its chunks run
           sequentially, each a stage doing fetch -> reserve -> launch
           -> eager tracker update with the whole chunk working set
           sharing one LRU stamp (so a chunk can never evict its own
           segments while faulting others in).  The RAW guard above
           made eager updates safe; same-device chunks run in ascending
           block order, like the sequential executor does, and
           accumulate into their parent partition's slot, so results
           are bit-identical to the uncapped launch. *)
        stage ~barrier:true ()
        :: List.concat
          (List.map2
             (fun (slot, pp) cs ->
                List.map
                  (fun cp ->
                     stage ~fetch:[ reads cp ] ~stamp:Launch_cache.Shared
                       ~reserve:true ~launches:[ (slot, cp) ]
                       ~updates:[ writes cp ] ())
                  (if cs = [] then [ pp ] else cs))
             slots chunks)
    in
    (* Instrumented write-set collection (paper §11 fallback): the
       shadow kernel runs once per partition, recording the exact
       elements written, and those update the trackers. *)
    let shadow =
      match ck.ck_shadow with
      | Some _ when patterns ->
        if not functional then
          invalid_arg
            "Multi_gpu: instrumented writes require a functional machine";
        [
          stage ~launches:slots
            ~collect:
              (List.filter_map
                 (fun (a : Model.array_model) ->
                    if a.Model.write_instrumented then Some a.Model.arr
                    else None)
                 km.Model.arrays)
            ();
        ]
      | _ -> []
    in
    (* Halo/overlapped tiling of [Repeat (iters, [Launch; Swap])]
       stencil loops (DESIGN.md §18).  Per temporal block of [t <= depth]
       steps: one exchange fetches the stale parts of each partition's
       band widened by [t*h] elements per side on the input buffer, one
       barrier orders it (unless overlap mode already dropped barriers),
       then [t] widened launches run back-to-back with no per-step sync
       — each step recomputes the apron redundantly instead of
       exchanging, and devices skew freely within the block.  Validity:
       at block start the fetch makes [band +- t*h] of the input fresh
       everywhere; each step shrinks the valid margin by [h], so after
       step [j] the output is valid on [band +- (t-j)*h] — in particular
       every step's output is valid on its band (the tracker is told
       exactly that), and the block's last step is valid on precisely
       the band.  Garbage in the apron beyond the valid margin never
       escapes: the next block's fetch overwrites it before any launch
       reads it.  Results are bit-identical to the per-step schedule
       because each band element sees the same dependency chain in the
       same order.  Instrumented write collection is data-dependent and
       per launch, and reducible accumulation needs its merge after
       every launch: both keep the per-step schedule. *)
    let halo =
      match choice with
      | Some { Autotune.c_winner = { Autotune.halo = Some hp; _ }; _ }
        when halo_repeats_ok && hp.Autotune.hp_depth >= 2
             && ck.ck_shadow = None
             && (match ck.ck_gate with Verify.Reducible _ -> false | _ -> true)
        ->
        Some
          (Launch_cache.halo ~batch ~barrier:(not overlap) ~plan_of ~grid
             ~axis:hp.Autotune.hp_axis
             ~depth:hp.Autotune.hp_depth ~halo_elems:hp.Autotune.hp_halo_elems
             ~read_buf:hp.Autotune.hp_read_buf
             ~write_buf:hp.Autotune.hp_write_buf pps)
      | _ -> None
    in
    {
      Launch_cache.pl_arg_arrays = arg_arrays;
      pl_slots = List.length pps;
      pl_stages = main @ shadow;
      pl_chunked = chunked;
      pl_halo = halo;
      pl_predicted_s =
        (match choice with
         | Some ch -> ch.Autotune.c_winner.Autotune.score
         | None -> 0.0);
    }
  in
  let ck_of kernel =
    try Hashtbl.find compiled_tbl kernel.Kir.name
    with Not_found -> invalid_arg ("Multi_gpu: unlinked kernel " ^ kernel.Kir.name)
  in
  let lookup kernel grid block args =
    let ck = ck_of kernel in
    let key = key_of kernel grid block args in
    let build () =
      build_plan ?min_chunks:(Hashtbl.find_opt forced key) ck kernel grid
        block args
    in
    (ck, if cache then Launch_cache.find_or_build plan_cache key ~build else build ())
  in
  (* Issue one host launch: its plan's stages, wrapped for reducible
     kernels in a gather and a merge (DESIGN.md §20).  Atomic
     read-modify-writes on each reducible array are redirected into
     partition-local accumulators over the operator's identity, then
     merged into the host-gathered base in ascending partition order.
     The merge order is fixed no matter how devices skew, so every run
     of one (data, device-count) point produces the same bits; the h2d
     writeback makes the host authoritative, which corrects the
     trackers' per-partition write claims on the overlapping elements.
     This path engages at every device count — including one — so
     grouping is a function of the partition shape alone. *)
  let issue ck ~block (plan : Launch_cache.plan) =
    let arg_arrays = plan.Launch_cache.pl_arg_arrays in
    let reducible =
      match ck.ck_gate with Verify.Reducible red -> red | _ -> []
    in
    let bases =
      if reducible = [] then []
      else begin
        Gpusim.Machine.synchronize m;
        List.map
          (fun (arr, op) -> (arr, op, gather (find (List.assoc arr arg_arrays))))
          reducible
      end
    in
    let accs =
      if reducible = [] || not functional then [||]
      else
        Array.init plan.Launch_cache.pl_slots (fun _ ->
            List.map
              (fun (arr, op) ->
                 let len =
                   Gpu_runtime.Vbuf.len (find (List.assoc arr arg_arrays))
                 in
                 (arr, (Array.make len (reduce_identity op), Array.make len false)))
              reducible)
    in
    let redirect_of slot =
      if Array.length accs = 0 then no_redirect
      else fun a -> List.assoc_opt a accs.(slot)
    in
    if plan.Launch_cache.pl_chunked then
      mem := { !mem with mr_chunked_launches = !mem.mr_chunked_launches + 1 };
    let tuned = tune_enabled && plan.Launch_cache.pl_predicted_s > 0.0 in
    let tune_t0 = if tuned then Gpusim.Machine.elapsed m else 0.0 in
    (* Reducible merge: fold every partition's touched accumulator
       elements into the host base in ascending partition order, then
       scatter the result back.  Untouched elements keep the base's
       exact bits.  The fold is host arithmetic and cannot fault; the
       scatters can, so they and everything after them form the tail a
       retry resumes ([pending_tail]), each base scattered until its
       scatter completes once. *)
    let unscattered = ref [] in
    let tail () =
      if reducible <> [] then
        span "reduce_scatter" (fun () ->
            while !unscattered <> [] do
              let arr, _, base = List.hd !unscattered in
              upload (find (List.assoc arr arg_arrays)) base;
              unscattered := List.tl !unscattered
            done;
            Gpusim.Machine.synchronize m);
      (* Calibration: compare the autotuner's predicted per-launch
         seconds against the makespan this launch actually added (latest
         engine time, so async kernel completions are included). *)
      if tuned then
        record_tune ~predicted:plan.Launch_cache.pl_predicted_s
          ~actual:(Gpusim.Machine.elapsed m -. tune_t0) ();
      pending_tail := None
    in
    (* A transient fault inside a memory chunk of a non-reducible launch
       resumes at that chunk ([pending_chunks]) instead of re-running
       the chunks already done, and one after the last chunk (in the
       checkpoint that may follow the statement) resumes at nothing: a
       capped launch can hold more fault-prone operations than a whole
       attempt gets through under steady transient faults.  Re-running
       one chunk is idempotent like re-running the statement; a
       reducible chunk's kernel may already have accumulated, so
       reducible launches restart whole. *)
    let resumable = plan.Launch_cache.pl_chunked && reducible = [] in
    let rec from stages =
      match stages with
      | [] ->
        if reducible <> [] then begin
          span "reduce_merge" (fun () ->
              Gpusim.Machine.synchronize m;
              incr gate_merges;
              List.iter
                (fun (arr, op, base) ->
                   match base with
                   | Some base ->
                     let combine = reduce_combine op in
                     Array.iter
                       (fun per_slot ->
                          let acc, touched = List.assoc arr per_slot in
                          Array.iteri
                            (fun off t ->
                               if t then begin
                                 base.(off) <- combine base.(off) acc.(off);
                                 incr gate_merged_elems
                               end)
                            touched)
                       accs
                   | None -> ())
                bases;
              unscattered := bases);
          pending_tail := Some tail
        end;
        tail ();
        if resumable then pending_chunks := Some ignore
      | sg :: rest ->
        if resumable then pending_chunks := Some (fun () -> from stages);
        issue_stage ck ~arg_arrays ~block ~redirect_of sg;
        from rest
    in
    from plan.Launch_cache.pl_stages
  in
  let swap a b =
    let va = find a and vb = find b in
    Hashtbl.replace vbufs a vb;
    Hashtbl.replace vbufs b va
  in
  (* A double-buffered stencil loop run whole and temporally blocked
     when the plan carries a halo schedule; [false] when it does not, and
     the loop runs exactly as the flattened engine would run it. *)
  let exec_halo kernel grid block args ~iters ~swap:(sx, sy) =
    let ck, plan = lookup kernel grid block args in
    match plan.Launch_cache.pl_halo with
    | None -> false
    | Some ha ->
      let issue_stage =
        issue_stage ck ~arg_arrays:plan.Launch_cache.pl_arg_arrays ~block
          ~redirect_of:(fun _ -> no_redirect)
      in
      let steps_done = ref 0 in
      while !steps_done < iters do
        let t = min ha.Launch_cache.ha_depth (iters - !steps_done) in
        let tune_t0 = Gpusim.Machine.elapsed m in
        issue_stage ha.Launch_cache.ha_fetch.(t - 1);
        for _ = 1 to t do
          issue_stage ha.Launch_cache.ha_step;
          swap sx sy
        done;
        record_tune ~halo_steps:t
          ~predicted:(plan.Launch_cache.pl_predicted_s *. float_of_int t)
          ~actual:(Gpusim.Machine.elapsed m -. tune_t0) ();
        steps_done := !steps_done + t
      done;
      true
  in
  (* A double-buffered stencil loop kept whole so the halo executor can
     temporally block it: only when the features that index into the
     flattened stream (healing checkpoints, preemption, resume) and
     memory chunking are off — [halo_repeats_ok] — so the program
     counter still means what they expect everywhere else. *)
  let halo_loop (s : Host_ir.stmt) =
    match s with
    | Host_ir.Repeat
        ( n,
          [ Host_ir.Launch { kernel; grid; block; args };
            Host_ir.Swap (sx, sy) ] )
      when halo_repeats_ok && n > 1 ->
      Some (fun () -> exec_halo kernel grid block args ~iters:n ~swap:(sx, sy))
    | _ -> None
  in
  let rec exec (s : Host_ir.stmt) =
    match s with
    | Host_ir.Malloc (name, len) ->
      Hashtbl.replace vbufs name (Gpu_runtime.Vbuf.create m ~name ~len)
    | Host_ir.Memcpy_h2d { dst; src } -> upload (find dst) src.Host_ir.data
    | Host_ir.Memcpy_d2h { dst; src } ->
      Gpusim.Machine.synchronize m;
      ignore (gather ~dst:dst.Host_ir.data (find src));
      Gpusim.Machine.synchronize m
    | Host_ir.Launch { kernel; grid; block; args } ->
      let ck, plan = lookup kernel grid block args in
      issue ck ~block plan
    | Host_ir.Repeat (n, body) ->
      if not (Option.fold ~none:false ~some:(fun run -> run ()) (halo_loop s))
      then
        for _ = 1 to n do
          List.iter exec body
        done
    | Host_ir.Swap (a, b) -> swap a b
    | Host_ir.Free name ->
      Gpu_runtime.Vbuf.free (find name);
      Hashtbl.remove vbufs name
    | Host_ir.Sync -> Gpusim.Machine.synchronize m
  in
  (* Flatten the statement stream (Repeat bodies expanded, halo loops
     kept whole) so execution has a program counter: checkpoints record
     an index to replay from.  Re-executing a statement from its start
     is idempotent — h2d re-scatters the same source, launches
     recompute the same values from the same synchronized inputs,
     tracker updates converge — which is what makes both retry and
     replay safe.  The one exception is a reducible launch past its
     merge (the base already holds the merged values); a retry resumes
     its [pending_tail] instead. *)
  let stmts =
    let acc = ref [] in
    let rec go (s : Host_ir.stmt) =
      match s with
      | Host_ir.Repeat (n, body) when Option.is_none (halo_loop s) ->
        for _ = 1 to n do List.iter go body done
      | s -> acc := s :: !acc
    in
    List.iter go exe.prog.Host_ir.body;
    Array.of_list (List.rev !acc)
  in
  (* An engine checkpoint: the statement index to resume from plus a
     snapshot of every buffer binding.  [None] means "replay from the
     beginning with no buffers" — statement 0 re-mallocs everything. *)
  let ckpt = ref None in
  let take_checkpoint index =
    span "checkpoint" @@ fun () ->
    let bufs =
      Hashtbl.fold
        (fun name vb acc -> (name, vb, Gpu_runtime.Vbuf.checkpoint ~cfg vb) :: acc)
        vbufs []
    in
    (* Deterministic snapshot order: the gathers charge simulated
       transfer time and consume the fault stream. *)
    let bufs = List.sort (fun (a, _, _) (b, _, _) -> compare a b) bufs in
    ckpt := Some (index, bufs)
  in
  (* Install the run's starting state; returns the index to run from. *)
  let start () =
    match resume with
    | Some h ->
      install_resume h;
      h.h_index
    | None -> 0
  in
  let restore_checkpoint () =
    span "replay" @@ fun () ->
    match !ckpt with
    | Some (index, bufs) ->
      let kept = List.map (fun (_, vb, _) -> vb) bufs in
      Hashtbl.iter
        (fun _ vb ->
           if not (List.memq vb kept) then Gpu_runtime.Vbuf.free vb)
        vbufs;
      Hashtbl.reset vbufs;
      List.iter
        (fun (name, vb, snap) ->
           Gpu_runtime.Vbuf.restore vb snap;
           Hashtbl.replace vbufs name vb)
        bufs;
      index
    | None ->
      Hashtbl.iter (fun _ vb -> Gpu_runtime.Vbuf.free vb) vbufs;
      Hashtbl.reset vbufs;
      (* A resumed run's earliest recovery point is its handoff: the
         buffers it restored are this segment's "beginning". *)
      start ()
  in
  (* Permanent loss: shrink the live set, drop every cached plan (they
     all name the dead device), re-home what the dead device owned onto
     replicas that are still fresh.  Only if some range has no fresh
     copy anywhere do we pay a replay from the last checkpoint. *)
  let handle_loss dead =
    span "recovery" @@ fun () ->
    incr devices_lost;
    pending_chunks := None;
    live := List.filter (fun d -> d <> dead) !live;
    if !live = [] then raise All_devices_lost;
    Gpusim.Machine.set_active_devices m (n_live ());
    Launch_cache.clear_plans plan_cache;
    let data_lost =
      Hashtbl.fold
        (fun _ vb lost ->
           Gpu_runtime.Vbuf.recover vb ~dev:dead ~live:!live <> [] || lost)
        vbufs false
    in
    if data_lost then begin
      incr replays;
      pending_tail := None;
      `Replay (restore_checkpoint ())
    end
    else `Retry
  in
  let n_stmts = Array.length stmts in
  let launches_since_ckpt = ref 0 in
  (match resume with
   | Some h when h.h_index < 0 || h.h_index > n_stmts ->
     invalid_arg "Multi_gpu.run_bounded: resume index out of range"
   | _ -> ());
  let i = ref (start ()) in
  (* Preemption: gather every live buffer to the host (a checkpoint in
     handoff form) and stop.  The gather itself runs on the simulated
     machine, so it pays transfer time and can itself fault: transient
     faults back off and retry, a device loss re-homes/replays through
     [handle_loss] and falls back into the main loop, whose abort check
     immediately re-enters here against the recovered state. *)
  let preempt_now () =
    try
      span "preempt" @@ fun () ->
      Gpusim.Machine.synchronize m;
      let captured =
        List.map
          (fun (name, vb) -> (name, Gpu_runtime.Vbuf.len vb, gather vb))
          (List.sort
             (fun (a, _) (b, _) -> compare a b)
             (Hashtbl.fold (fun name vb acc -> (name, vb) :: acc) vbufs []))
      in
      Gpusim.Machine.synchronize m;
      Some { h_index = !i; h_buffers = captured }
    with
    | Gpusim.Machine.Transient_fault _ when healing ->
      incr retries;
      Gpusim.Machine.host_work m ~seconds:backoff_base ~category:"backoff";
      None
    | Gpusim.Machine.Device_lost dead when healing ->
      (match handle_loss dead with
       | `Retry -> ()
       | `Replay index ->
         i := index;
         launches_since_ckpt := 0);
      None
  in
  let aborting () =
    match abort_at with Some t -> Gpusim.Machine.elapsed m >= t | None -> false
  in
  let preempted = ref None in
  while !preempted = None && !i < n_stmts do
    if aborting () then preempted := preempt_now ()
    else begin
    let stmt = stmts.(!i) in
    pending_chunks := None;
    let rec attempt ~tries ~spent =
      try
        (match (!pending_tail, !pending_chunks) with
         | Some rest, _ | None, Some rest -> rest ()
         | None, None -> exec stmt);
        if healing then begin
          (match stmt with
           | Host_ir.Launch _ -> incr launches_since_ckpt
           | _ -> ());
          if !launches_since_ckpt >= checkpoint_every then begin
            take_checkpoint (!i + 1);
            launches_since_ckpt := 0
          end
        end;
        `Next
      with
      | Gpusim.Machine.Transient_fault _ when healing ->
        incr retries;
        let delay =
          Float.min backoff_cap (backoff_base *. (2.0 ** float_of_int tries))
        in
        if spent +. delay > backoff_budget then
          failwith "Multi_gpu: transient-fault backoff budget exhausted";
        Gpusim.Machine.host_work m ~seconds:delay ~category:"backoff";
        attempt ~tries:(tries + 1) ~spent:(spent +. delay)
      | Gpusim.Machine.Device_lost dead when healing -> (
          match handle_loss dead with
          | `Retry -> attempt ~tries:0 ~spent
          | `Replay index -> `Goto index)
      | Gpusim.Machine.Out_of_memory { device; requested; free } -> (
          (* The footprint estimate was too optimistic (it can only be
             exact for the enumerated ranges; live state such as
             checkpoint gathers is not part of the plan).  Rebuild the
             launch with strictly finer chunks and retry; build_plan
             raises the one-line infeasibility diagnostic when even
             single-block chunks cannot fit, which bounds the loop. *)
          match stmt with
          | Host_ir.Launch { kernel; grid; block; args } when capped ->
            let key = key_of kernel grid block args in
            let cur =
              Option.value ~default:1 (Hashtbl.find_opt forced key)
            in
            let next = max 2 (cur * 2) in
            Hashtbl.replace forced key next;
            mem := { !mem with mr_oom_refinements = !mem.mr_oom_refinements + 1 };
            pending_chunks := None;
            if cache then
              Launch_cache.replace plan_cache key
                (build_plan ~min_chunks:next (ck_of kernel) kernel grid block
                   args);
            attempt ~tries ~spent
          | _ ->
            failwith
              (Printf.sprintf
                 "Multi_gpu: out of device memory: %d bytes requested \
                  on device %d with only %d bytes free (capacity %d)"
                 requested device free mem_cap))
    in
    (match attempt ~tries:0 ~spent:0.0 with
    | `Next -> incr i
    | `Goto j ->
      i := j;
      launches_since_ckpt := 0)
    end
  done;
  if !preempted = None then Gpusim.Machine.synchronize m;
  let result =
    {
      machine = m;
      time = Gpusim.Machine.host_time m;
      transfers = !total_transfers;
      cache =
        (if cache then Launch_cache.stats plan_cache
         else Launch_cache.no_stats);
      exec = exec_stats;
      mem = !mem;
      tune = (if tune_enabled then !tune else no_tune);
      faults =
        (if healing then
           {
             fr_faults =
               (Gpusim.Machine.stats m).Gpusim.Machine.n_faults
               - faults_at_entry;
             fr_retries = !retries;
             fr_replays = !replays;
             fr_devices_lost = !devices_lost;
           }
         else no_faults);
      gate =
        (let count p =
           Hashtbl.fold
             (fun _ ck n -> if p ck.ck_gate then n + 1 else n)
             compiled_tbl 0
         in
         {
           gr_safe = count (function Verify.Safe -> true | _ -> false);
           gr_reducible = count (function Verify.Reducible _ -> true | _ -> false);
           gr_racy = count (function Verify.Racy _ -> true | _ -> false);
           gr_unknown = count (function Verify.Unknown _ -> true | _ -> false);
           gr_merges = !gate_merges;
           gr_merged_elems = !gate_merged_elems;
         });
    }
  in
  match !preempted with
  | Some h -> Preempted (result, h)
  | None -> Done result

let run ?cfg ?tiling ?cache ?checkpoint_every ?domains ?overlap ?autotune
    ~(machine : Gpusim.Machine.t) (exe : exe) : result =
  match
    run_bounded ?cfg ?tiling ?cache ?checkpoint_every ?domains ?overlap
      ?autotune ~machine exe
  with
  | Done r -> r
  | Preempted _ -> assert false (* no abort_at: cannot preempt *)
