(* Launch-plan cache for the partitioned engine.

   A Repeat-heavy host program re-issues the same launch hundreds of
   times; everything the engine derives from the launch parameters
   alone is identical every time.  This module memoizes that work per
   (kernel, grid, block, args) key.  The payload is the launch's issue
   order as data: a list of stages, each one pass of the paper's
   four-phase schedule (fetch the read sets, barrier, launch the
   partitions, update the trackers) with its evaluated range lists,
   raw emission counts, partition arguments and cost-model
   ops-per-block already in place.  A plain launch is one stage; the
   engine's other schedules are rewrites into more stages — a leading
   sync plus one stage per memory chunk, an exchange plus widened step
   stages per halo-tiled temporal block, a shadow stage collecting
   unanalyzable write sets.

   Caching is sound because the cached values depend only on the
   launch parameters: enumerator evaluation binds scalars, block/grid
   dims and partition-box corners (never tracker state), and buffer
   arguments are recorded by *name* (a host-program Swap redirects the
   name inside the engine's vbuf table, not in the plan).  Everything
   state-dependent — tracker queries/updates, actual transfers, shadow
   write-set collection, reducible accumulators — stays per launch, as
   do all simulated charges, so cached and uncached runs are
   bit-identical in simulated time, transfers and functional results;
   only redundant host computation is skipped.

   The memory-pressure chunking decision is part of the plan, so the
   per-device memory capacity it was computed against is part of the
   key: a plan built for one capacity is never replayed against
   another.  Capacity is the only memory state the decision reads —
   footprints come from the polyhedral ranges, which depend on the
   launch parameters alone — so within one machine the decision is
   deterministic per key.  Runtime Out_of_memory refinement goes
   through [replace], which overwrites the key's plan with the more
   finely chunked one. *)

type key = {
  kernel : string;
  grid : Dim3.t;
  block : Dim3.t;
  args : Host_ir.harg list;
  mem_cap : int; (* per-device capacity the chunking was planned for *)
  tune : string;
      (* autotuner scoring-input signature (Autotune.signature): live
         devices, speeds, bandwidths, latency, topology, iteration
         context.  "" when autotuning is off, so keys — and therefore
         cache behavior — are unchanged from the fixed-strategy engine.
         With autotuning on, a plan chosen under one scoring regime is
         never replayed under another (e.g. after a device loss). *)
  reduce : string;
      (* reduction-mode signature of the launch: "op:arr,..." for
         kernels the verifier proved reducible, "" otherwise, so a
         plan is never replayed under a different execution mode *)
}

type ranges = {
  rg_buf : string; (* buffer name the array argument is bound to *)
  rg_ranges : (int * int) list; (* canonical half-open element ranges *)
  rg_raw : int; (* raw emission count (host "patterns" cost driver) *)
}

type partition_plan = {
  pp_part : Partition.t;
  pp_reads : ranges list;
  pp_writes : ranges list;
  pp_launch_grid : Dim3.t;
  pp_n_blocks : int;
  pp_scalar_args : Keval.arg list;
  pp_ops_per_block : float;
  pp_shadow_cost : float; (* 0 when the kernel has no shadow clone *)
}

(* LRU stamping of a stage's working set: [Each] ticks once per fetch
   and once per update entry (the plain launch); [Shared] ticks once
   when the stage starts, so nothing the stage touches can evict
   anything else it touches (a memory chunk, a halo exchange). *)
type stamp = Each | Shared

(* One step of the paper's four-phase schedule (§5, Fig. 4): fetch,
   barrier, launch, tracker update.  Every launch the engine issues is
   a list of stages; plain launches, memory chunking and halo tiling
   differ only in the stages [build_plan] emits. *)
type stage = {
  sg_fetch : (int * ranges list) list;
      (* per device: read ranges made fresh there before launching *)
  sg_batch : bool; (* pack stale segments per owner into one copy *)
  sg_stamp : stamp;
  sg_barrier : bool;
      (* host barrier between fetch and launches (off in overlap mode,
         except where correctness needs it) *)
  sg_reserve : bool;
      (* make [sg_updates] resident before launching, so the capacity
         is honest while the kernel runs (memory chunks) *)
  sg_launches : (int * partition_plan) list;
      (* (partition slot, plan): the slot picks the reducible
         accumulator a launch folds into *)
  sg_collect : string list;
      (* non-empty: the launches run the kernel's shadow clone, which
         records these arrays' written elements; the recorded sets,
         not [sg_updates], then update the trackers (paper §11) *)
  sg_updates : (int * ranges list) list; (* per device: ranges written *)
}

(* Halo-tiled execution of a double-buffered stencil loop: each
   temporal block of [t <= ha_depth] steps is the exchange [ha_fetch.(t-1)]
   followed by [t] copies of [ha_step], with a Swap after each. *)
type halo = {
  ha_depth : int;
  ha_fetch : stage array;
  ha_step : stage;
}

type plan = {
  pl_arg_arrays : (string * string) list; (* array param -> buffer name *)
  pl_slots : int; (* partitions (reducible accumulators are per slot) *)
  pl_stages : stage list; (* issue order of one launch *)
  pl_chunked : bool; (* stages are memory-pressure chunks *)
  pl_halo : halo option;
      (* the autotuned winner's halo schedule, for a Repeat of this
         launch kept whole by the engine *)
  pl_predicted_s : float;
      (* autotuner's predicted per-launch seconds for the chosen plan
         (0.0 when autotuning is off) — compared against measured
         per-launch seconds for the autotune.{predicted,actual}_us
         calibration metrics *)
}

(* A stage with only the given phases. *)
let stage ?(fetch = []) ~batch ?(stamp = Each) ?(barrier = false)
    ?(reserve = false) ?(launches = []) ?(collect = []) ?(updates = []) () =
  {
    sg_fetch = fetch;
    sg_batch = batch;
    sg_stamp = stamp;
    sg_barrier = barrier;
    sg_reserve = reserve;
    sg_launches = launches;
    sg_collect = collect;
    sg_updates = updates;
  }

(* Total length covered by a union of half-open ranges. *)
let union_len ranges =
  match List.sort compare ranges with
  | [] -> 0
  | (s0, e0) :: rest ->
    let closed, (cs, ce) =
      List.fold_left
        (fun (acc, (cs, ce)) (s, e) ->
           if s > ce then (acc + (ce - cs), (s, e))
           else (acc, (cs, max ce e)))
        (0, (s0, e0)) rest
    in
    closed + (ce - cs)

(* Per-buffer device footprint of one partition plan, in bytes: the
   union of its clamped read and write ranges.  This is exactly what
   [Vbuf.ensure_resident] will charge, so "footprint <= capacity" means
   the launch is feasible (everything older is evictable). *)
let footprints ~buf_len ~elem_bytes pp =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun { rg_buf; rg_ranges; _ } ->
       let len = buf_len rg_buf in
       let clamped =
         List.filter_map
           (fun (s, e) ->
              let s = max 0 s and e = min e len in
              if e > s then Some (s, e) else None)
           rg_ranges
       in
       let prev = Option.value ~default:[] (Hashtbl.find_opt tbl rg_buf) in
       Hashtbl.replace tbl rg_buf (clamped @ prev))
    (pp.pp_reads @ pp.pp_writes);
  List.sort compare
    (Hashtbl.fold (fun b rs acc -> (b, union_len rs * elem_bytes) :: acc) tbl [])

(* Memory-pressure chunking of one partition: [Ok []] when it fits
   whole, [Ok chunks] for sequential sub-launches that each fit, or
   [Error tightest] when even the finest chunks do not.  Geometric
   search over the chunk count; at each count every axis with more than
   one block is tried and the one minimizing the worst chunk footprint
   wins (for matmul partitioned along y, chunking along x is what
   shrinks the B operand's band). *)
let chunk ~plan_of ~footprint ~mem_cap ~min_chunks pp =
  if footprint pp <= mem_cap && min_chunks <= 1 then Ok []
  else begin
    let p = pp.pp_part in
    let extent a =
      Dim3.get p.Partition.max_blocks a - Dim3.get p.Partition.min_blocks a
    in
    let axes = List.filter (fun a -> extent a > 1) Dim3.axes in
    let max_k = List.fold_left (fun acc a -> max acc (extent a)) 1 axes in
    (* Best candidate at chunk count [k]: the (worst-footprint, plans)
       pair of the axis whose worst chunk is smallest. *)
    let candidate k =
      List.fold_left
        (fun acc axis ->
           let n = min k (extent axis) in
           if n <= 1 then acc
           else
             let plans = List.map plan_of (Partition.split p ~axis ~n) in
             let worst =
               List.fold_left (fun acc c -> max acc (footprint c)) 0 plans
             in
             match acc with
             | Some (w, _) when w <= worst -> acc
             | _ -> Some (worst, plans))
        None axes
    in
    let rec search k best =
      if k > max_k then best
      else
        match candidate k with
        | Some (worst, plans) when worst <= mem_cap -> `Fits plans
        | Some (worst, plans) -> search (k * 2) (`Best (worst, plans))
        | None -> best
    in
    match search (max 2 min_chunks) `None with
    | `Fits plans -> Ok plans
    | `Best (_, plans) ->
      (* Even single-block-wide chunks do not fit: report the tightest
         chunk we could make. *)
      let worst_chunk =
        List.fold_left
          (fun acc c ->
             match acc with
             | Some b when footprint b >= footprint c -> acc
             | _ -> Some c)
          None plans
      in
      Error (Option.value ~default:pp worst_chunk)
    | `None -> Error pp
  end

(* The halo-tiled schedule of a stencil whose partitions [pps] write
   dense single-range bands of [write_buf]: per temporal block of [t]
   steps one exchange makes each band, widened by [t * halo_elems]
   elements per side, fresh on [read_buf] (clamped to the buffer by the
   fetch; every fetched byte is fresh because the neighbors own their
   bands), then each step launches the partitions widened by one block
   row of redundant compute per side along [axis] and tells the trackers
   about the bands only. *)
let halo ~batch ~barrier ~plan_of ~grid ~axis ~depth ~halo_elems ~read_buf
    ~write_buf pps =
  let dev pp = pp.pp_part.Partition.device in
  let widened =
    List.map
      (fun pp -> plan_of (Partition.widen pp.pp_part ~grid ~axis ~blocks:1))
      pps
  in
  let band pp =
    match List.find_opt (fun r -> r.rg_buf = write_buf) pp.pp_writes with
    | Some { rg_ranges = [ (s, e) ]; _ } -> (s, e)
    | _ ->
      (* Eligibility guaranteed dense single-range bands. *)
      assert false
  in
  let exchange t =
    let w = t * halo_elems in
    stage ~batch ~stamp:Shared ~barrier
      ~fetch:
        (List.map
           (fun pp ->
              let s, e = band pp in
              ( dev pp,
                [ { rg_buf = read_buf; rg_ranges = [ (s - w, e + w) ]; rg_raw = 1 } ]
              ))
           pps)
      ()
  in
  {
    ha_depth = depth;
    ha_fetch = Array.init depth (fun i -> exchange (i + 1));
    ha_step =
      stage ~batch ~stamp:Shared
        ~launches:(List.mapi (fun slot wp -> (slot, wp)) widened)
        ~updates:(List.map (fun pp -> (dev pp, pp.pp_writes)) pps)
        ();
  }

(* The first cross-device read-after-write inside one launch, as
   (reading device, buffer, writing device). *)
let raw_conflict pps =
  let dev pp = pp.pp_part.Partition.device in
  let overlaps r1 r2 =
    List.exists
      (fun (s1, e1) -> List.exists (fun (s2, e2) -> s1 < e2 && s2 < e1) r2)
      r1
  in
  List.find_map
    (fun wp ->
       List.find_map
         (fun rp ->
            if dev wp = dev rp then None
            else
              List.find_map
                (fun w ->
                   if
                     List.exists
                       (fun r ->
                          w.rg_buf = r.rg_buf
                          && overlaps w.rg_ranges r.rg_ranges)
                       rp.pp_reads
                   then Some (dev rp, w.rg_buf, dev wp)
                   else None)
                wp.pp_writes)
         pps)
    pps

type stats = { hits : int; misses : int }

(* Compiled kernels (Kcompile closures) are memoized here too: a
   partition launch is keyed by the partitioned kernel's name plus the
   exact launch shape Kcompile specialized against.  Sound for the
   same reason plans are — a compiled kernel is a pure function of
   (kernel body, grid, block, scalar args); buffers are resolved per
   run through the load/store callbacks. *)
type ckey = {
  ck_kernel : string;
  ck_grid : Dim3.t;
  ck_block : Dim3.t;
  ck_args : Keval.arg list;
}

type t = {
  table : (key, plan) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  compiled : (ckey, (Kcompile.t, string) result) Hashtbl.t;
}

let create () =
  {
    table = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    compiled = Hashtbl.create 64;
  }

let stats t = { hits = t.hits; misses = t.misses }
let no_stats = { hits = 0; misses = 0 }

let find_or_build t key ~build =
  match Hashtbl.find_opt t.table key with
  | Some plan ->
    t.hits <- t.hits + 1;
    plan
  | None ->
    let plan =
      Obs.Span.with_span ~cat:"launch_cache" ("plan:" ^ key.kernel) build
    in
    t.misses <- t.misses + 1;
    Hashtbl.replace t.table key plan;
    plan

(* Overwrite a key's plan (runtime chunk refinement after a live
   Out_of_memory: the footprint estimate was optimistic, so the re-built
   plan with finer chunks replaces the cached one for all later hits). *)
let replace t key plan = Hashtbl.replace t.table key plan

(* A permanent device loss invalidates every plan (they all name the
   dead device) but no compiled kernel, and the hit/miss counters keep
   counting across it. *)
let clear_plans t = Hashtbl.reset t.table

let find_or_compile t ckey ~compile =
  match Hashtbl.find_opt t.compiled ckey with
  | Some ck -> (ck, `Hit)
  | None ->
    let ck =
      Obs.Span.with_span ~cat:"launch_cache" ("compile:" ^ ckey.ck_kernel)
        compile
    in
    Hashtbl.replace t.compiled ckey ck;
    (ck, `Miss)

let pp_stats fmt (s : stats) =
  Format.fprintf fmt "plan cache: %d hits / %d misses" s.hits s.misses
