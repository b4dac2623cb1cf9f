(* The segment tracker (paper §8.1).

   For each virtual buffer the tracker records, as a sorted list of
   non-overlapping half-open segments, which device instance holds the
   most recently written copy of every element.  The list lives in a
   B-tree map keyed by segment start.  Shared copies are not
   representable (one owner per segment), which is exactly the paper's
   stated limitation: applications with widely shared read data pay
   redundant transfers.

   Owners are small integers: a device id, or {!host} for data whose
   freshest copy is in host memory. *)

module M = Btree.Int_map

let host = -1

type segment = { start : int; stop : int; owner : int }

type t = {
  len : int; (* extent of the tracked index space *)
  map : (int * int) M.tree; (* start -> (stop, owner) *)
  mutable ops : int; (* B-tree operations performed, for cost accounting *)
}

let create ~len ~initial_owner =
  if len <= 0 then invalid_arg "Tracker.create: empty index space";
  let map = M.create () in
  M.add map 0 (len, initial_owner);
  { len; map; ops = 1 }

let len t = t.len
let segment_count t = M.size t.map

let ops t = t.ops
let reset_ops t = t.ops <- 0

let bump t n = t.ops <- t.ops + n

let check_range t ~start ~stop ~what =
  if start < 0 || stop > t.len || start >= stop then
    invalid_arg
      (Printf.sprintf "Tracker.%s: bad range [%d,%d) in space of %d" what start
         stop t.len)

(* The segments overlapping [start, stop), clipped to it, in order.
   Every element of the range is covered (the tracker always covers the
   whole index space). *)
let query t ~start ~stop =
  check_range t ~start ~stop ~what:"query";
  bump t 1;
  let out = ref [] in
  let from_key =
    match M.floor t.map start with Some (k, _) -> k | None -> start
  in
  M.iter_from t.map from_key (fun s (e, owner) ->
      bump t 1;
      if s >= stop then false
      else begin
        if e > start then
          out := { start = max s start; stop = min e stop; owner } :: !out;
        true
      end);
  List.rev !out

(* Owner of a single element. *)
let owner_at t idx =
  match query t ~start:idx ~stop:(idx + 1) with
  | [ s ] -> s.owner
  | _ -> invalid_arg "Tracker.owner_at: uncovered index"

(* The general write: existing segments are split/absorbed and the new
   segment is merged with equal-owner neighbors. *)
let write_general t ~start ~stop ~owner =
  (* Split a segment straddling [at]. *)
  let split at =
    match M.floor t.map at with
    | Some (s, (e, o)) when s < at && at < e ->
      bump t 3;
      M.add t.map s (at, o);
      M.add t.map at (e, o)
    | _ -> bump t 1
  in
  split start;
  split stop;
  (* Remove all segments fully inside [start, stop). *)
  let doomed = ref [] in
  M.iter_from t.map start (fun s (_, _) ->
      bump t 1;
      if s < stop then begin
        doomed := s :: !doomed;
        true
      end
      else false);
  List.iter
    (fun s ->
       bump t 1;
       M.remove t.map s)
    !doomed;
  (* Insert, then merge with equal-owner neighbors. *)
  let seg_start = ref start and seg_stop = ref stop in
  (match M.floor t.map (start - 1) with
   | Some (s, (e, o)) when e = start && o = owner ->
     bump t 1;
     M.remove t.map s;
     seg_start := s
   | _ -> bump t 1);
  (match M.floor t.map stop with
   | Some (s, (e, o)) when s = stop && o = owner ->
     bump t 1;
     M.remove t.map s;
     seg_stop := e
   | _ -> bump t 1);
  bump t 1;
  M.add t.map !seg_start (!seg_stop, owner)

(* Record that [owner] has written [start, stop). *)
let write t ~start ~stop ~owner =
  check_range t ~start ~stop ~what:"write";
  match M.floor t.map start with
  | Some (s, (e, o)) when o = owner && stop <= e ->
    (* [owner] already holds the whole range: the general path below
       would split, delete and re-merge back to this very segment.
       Charge exactly the ops it would count (the counts feed the
       simulated pattern time): the two splits, the scan (the doomed
       segment plus its right neighbour, if any), one delete, the two
       neighbour probes and the final insert. *)
    bump t
      ((if s < start then 3 else 1)
       + (if stop < e then 3 else 1)
       + 1
       + (if stop < t.len then 1 else 0)
       + 4)
  | _ -> write_general t ~start ~stop ~owner

(* The segments a given owner holds, in order — for owner = a device
   id, exactly the ranges whose only fresh copy that device has (one
   owner per segment, so ownership here means exclusive ownership).
   This is the recovery metadata: everything device [d] owns when it
   dies must be re-synced from elsewhere or recomputed. *)
let owned_by t ~owner =
  let out = ref [] in
  M.iter t.map (fun s (e, o) ->
      bump t 1;
      if o = owner then out := { start = s; stop = e; owner = o } :: !out);
  List.rev !out

(* Elements a given owner holds (sum of its segment lengths). *)
let owned_count t ~owner =
  List.fold_left (fun acc s -> acc + (s.stop - s.start)) 0 (owned_by t ~owner)

(* All segments, in order. *)
let segments t =
  let out = ref [] in
  M.iter t.map (fun s (e, o) -> out := { start = s; stop = e; owner = o } :: !out);
  List.rev !out

(* Verify the tracker invariants: full coverage, no overlap, sorted,
   maximal merging.  Raises [Failure] on violation. *)
let check_invariants t =
  ignore (M.validate t.map);
  let segs = segments t in
  let rec go pos = function
    | [] -> if pos <> t.len then failwith "Tracker: space not fully covered"
    | { start; stop; owner = _ } :: rest ->
      if start <> pos then failwith "Tracker: gap or overlap";
      if stop <= start then failwith "Tracker: empty segment";
      go stop rest
  in
  let rec merged = function
    | a :: (b :: _ as rest) ->
      if a.stop = b.start && a.owner = b.owner then
        failwith "Tracker: unmerged neighbors";
      merged rest
    | _ -> ()
  in
  go 0 segs;
  merged segs

let pp fmt t =
  Format.fprintf fmt "[%s]"
    (String.concat "; "
       (List.map
          (fun s -> Printf.sprintf "[%d,%d)->%d" s.start s.stop s.owner)
          (segments t)))
