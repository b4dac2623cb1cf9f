(** Launch-plan cache for the partitioned engine.

    Memoizes, per (kernel, grid, block, args) launch key, everything
    {!Multi_gpu.run} derives from the launch parameters alone, in the
    form the engine issues it: a list of {!stage}s, each one pass of
    the paper's four-phase schedule (§5, Fig. 4) over evaluated
    read/write range lists, per-partition arguments and the cost
    model's ops-per-block.  Memory chunking, halo tiling and shadow
    write collection are rewrites into more stages.  Tracker state,
    transfers and all simulated charges stay per launch, so cached and
    uncached runs produce bit-identical results; only redundant host
    computation is skipped. *)

type key = {
  kernel : string;
  grid : Dim3.t;
  block : Dim3.t;
  args : Host_ir.harg list;
  mem_cap : int;
      (** per-device memory capacity the plan's chunking was computed
          against — a plan built for one capacity is never replayed
          against another *)
  tune : string;
      (** autotuner scoring-input signature ({!Autotune.signature});
          [""] when autotuning is off, so keys are unchanged from the
          fixed-strategy engine.  A plan chosen under one scoring
          regime (live set, speeds, topology, iteration context) is
          never replayed under another. *)
  reduce : string;
      (** reduction-mode signature: ["op:arr,..."] for kernels the
          verifier proved reducible, [""] otherwise *)
}

type ranges = {
  rg_buf : string;  (** buffer name the array argument is bound to *)
  rg_ranges : (int * int) list;  (** canonical half-open element ranges *)
  rg_raw : int;  (** raw emission count (the host "patterns" cost driver) *)
}

type partition_plan = {
  pp_part : Partition.t;
  pp_reads : ranges list;
  pp_writes : ranges list;
  pp_launch_grid : Dim3.t;
  pp_n_blocks : int;
  pp_scalar_args : Keval.arg list;
  pp_ops_per_block : float;
  pp_shadow_cost : float;  (** 0 when the kernel has no shadow clone *)
}

(** LRU stamping of a stage's working set. *)
type stamp =
  | Each  (** one tick per fetch entry and per update entry *)
  | Shared  (** one tick when the stage starts, for everything in it *)

type stage = {
  sg_fetch : (int * ranges list) list;
      (** per device: read ranges made fresh there before launching *)
  sg_batch : bool;  (** pack stale segments per owner into one copy *)
  sg_stamp : stamp;
  sg_barrier : bool;
      (** host barrier between fetch and launches (off in overlap mode,
          except where correctness needs it) *)
  sg_reserve : bool;
      (** make [sg_updates] resident before launching (memory chunks) *)
  sg_launches : (int * partition_plan) list;
      (** (partition slot, plan); the slot picks the reducible
          accumulator the launch folds into *)
  sg_collect : string list;
      (** non-empty: the launches run the shadow clone, recording these
          arrays' written elements, which then update the trackers *)
  sg_updates : (int * ranges list) list;
      (** per device: ranges written *)
}
(** One pass of fetch, barrier, launch and tracker update. *)

type halo = {
  ha_depth : int;
  ha_fetch : stage array;
      (** [.(t-1)]: the one exchange of a [t]-step temporal block *)
  ha_step : stage;  (** one widened step, issued [t] times per block *)
}
(** Halo-tiled schedule of a double-buffered stencil loop. *)

type plan = {
  pl_arg_arrays : (string * string) list;
      (** array parameter -> buffer name *)
  pl_slots : int;  (** partitions (reducible accumulators are per slot) *)
  pl_stages : stage list;  (** issue order of one launch *)
  pl_chunked : bool;  (** the stages are memory-pressure chunks *)
  pl_halo : halo option;
      (** the autotuned winner's halo schedule ([None] = per-step) *)
  pl_predicted_s : float;
      (** autotuner's predicted per-launch seconds (0.0 when off),
          compared against measured seconds for the
          [autotune.{predicted,actual}_us] calibration metrics *)
}

val stage :
  ?fetch:(int * ranges list) list -> batch:bool -> ?stamp:stamp ->
  ?barrier:bool -> ?reserve:bool -> ?launches:(int * partition_plan) list ->
  ?collect:string list -> ?updates:(int * ranges list) list -> unit -> stage
(** A stage with only the given phases (defaults: none, [Each], no
    barrier). *)

val footprints :
  buf_len:(string -> int) -> elem_bytes:int -> partition_plan ->
  (string * int) list
(** Per-buffer device bytes of a partition plan, sorted by buffer: the
    union of its clamped read and write ranges, exactly what making
    them resident charges. *)

val chunk :
  plan_of:(Partition.t -> partition_plan) ->
  footprint:(partition_plan -> int) -> mem_cap:int -> min_chunks:int ->
  partition_plan -> (partition_plan list, partition_plan) result
(** Memory-pressure chunking of one partition: [Ok []] when its
    footprint fits [mem_cap] (and [min_chunks <= 1]), [Ok chunks] for
    sequential sub-plans in ascending block order that each fit (the
    chunk count searched upward from [max 2 min_chunks]),
    [Error tightest] when even the finest chunks do not. *)

val halo :
  batch:bool -> barrier:bool -> plan_of:(Partition.t -> partition_plan) ->
  grid:Dim3.t ->
  axis:Dim3.axis -> depth:int -> halo_elems:int -> read_buf:string ->
  write_buf:string -> partition_plan list -> halo
(** The halo-tiled schedule of partitions writing dense single-range
    bands of [write_buf]: a [t]-step block's exchange widens each band
    by [t * halo_elems] elements per side on [read_buf]; each step
    launches the partitions widened by one block row per side along
    [axis] (through [plan_of]) and updates the trackers with the
    partitions' own write sets. *)

val raw_conflict : partition_plan list -> (int * string * int) option
(** The first cross-device read-after-write inside one launch, as
    (reading device, buffer, writing device). *)

type stats = { hits : int; misses : int }

type ckey = {
  ck_kernel : string;
  ck_grid : Dim3.t;
  ck_block : Dim3.t;
  ck_args : Keval.arg list;
}
(** Key of a compiled-kernel entry: the partitioned kernel's name plus
    the launch shape {!Kcompile.compile} specialized against. *)

type t

val create : unit -> t

val find_or_build : t -> key -> build:(unit -> plan) -> plan
(** Return the cached plan for [key], or build, record and return it. *)

val replace : t -> key -> plan -> unit
(** Overwrite a key's plan (runtime chunk refinement after a live
    [Out_of_memory]). *)

val clear_plans : t -> unit
(** Drop every plan (a permanent device loss invalidates them all),
    keeping the compiled kernels and the hit/miss counters. *)

val find_or_compile :
  t ->
  ckey ->
  compile:(unit -> (Kcompile.t, string) result) ->
  (Kcompile.t, string) result * [ `Hit | `Miss ]
(** Same, for {!Kcompile} closures (compiled kernels are cached even
    when plan caching is disabled: compilation never affects simulated
    time, so the plan-cache A/B stays meaningful). *)

val stats : t -> stats

val no_stats : stats
(** All-zero counters (reported by cache-disabled runs). *)

val pp_stats : Format.formatter -> stats -> unit
