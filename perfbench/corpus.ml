(* compile-corpus: the two-pass compiler over a seed-drawn corpus of
   host programs.  Host arrays are phantoms, so only the compiler's own
   data structures occupy the heap and no simulation runs. *)

open Harness

let ph = Host_ir.host_phantom
let cdiv a b = (a + b - 1) / b

(* Re-block every launch: same global extent, new block shape. *)
let rec reblock (b : Dim3.t) (s : Host_ir.stmt) : Host_ir.stmt =
  match s with
  | Host_ir.Launch l ->
    let ext ax = Dim3.get l.grid ax * Dim3.get l.block ax in
    Host_ir.Launch
      {
        l with
        block = b;
        grid =
          Dim3.make
            ~y:(cdiv (ext Dim3.Y) b.Dim3.y)
            ~z:(cdiv (ext Dim3.Z) b.Dim3.z)
            (cdiv (ext Dim3.X) b.Dim3.x);
      }
  | Host_ir.Repeat (k, body) -> Host_ir.Repeat (k, List.map (reblock b) body)
  | s -> s

let with_block b (p : Host_ir.t) =
  Host_ir.program ~name:p.Host_ir.name (List.map (reblock b) p.Host_ir.body)

(* Phantom-array programs for the apps whose library constructors take
   real arrays; statement shapes follow lib/apps. *)
let flat ~name ~bufs ~inputs ~output launch =
  Host_ir.program ~name
    (List.map (fun (b, n) -> Host_ir.Malloc (b, n)) bufs
     @ List.map
       (fun b -> Host_ir.Memcpy_h2d { dst = b; src = ph (List.assoc b bufs) })
       inputs
     @ [ launch;
         Host_ir.Memcpy_d2h { dst = ph (List.assoc output bufs); src = output } ]
     @ List.map (fun (b, _) -> Host_ir.Free b) bufs)

let launch kernel block grid args = Host_ir.Launch { kernel; grid; block; args }
let buf b = Host_ir.HBuf b

let vecadd n =
  flat ~name:"vecadd" ~bufs:[ ("a", n); ("b", n); ("c", n) ]
    ~inputs:[ "a"; "b" ] ~output:"c"
    (launch Apps.Vecadd.kernel Apps.Vecadd.block (Apps.Vecadd.grid_for n)
       [ Host_ir.HInt n; buf "a"; buf "b"; buf "c" ])

let dot n =
  flat ~name:"dot" ~bufs:[ ("a", n); ("b", n); ("out", 1) ]
    ~inputs:[ "a"; "b"; "out" ] ~output:"out"
    (launch Apps.Dot.kernel Apps.Dot.block (Apps.Dot.grid_for n)
       [ Host_ir.HInt n; buf "a"; buf "b"; buf "out" ])

let histogram n nbins =
  flat ~name:"histogram" ~bufs:[ ("data", n); ("hist", nbins) ]
    ~inputs:[ "data"; "hist" ] ~output:"hist"
    (launch Apps.Histogram.kernel Apps.Histogram.block
       (Apps.Histogram.grid_for n)
       [ Host_ir.HInt n; Host_ir.HInt nbins; buf "data"; buf "hist" ])

let spmv n band =
  let nnz = n * band in
  flat ~name:"spmv"
    ~bufs:
      [ ("row_ptr", n + 1); ("cols", nnz); ("vals", nnz); ("x", n); ("y", n) ]
    ~inputs:[ "row_ptr"; "cols"; "vals"; "x" ] ~output:"y"
    (launch Apps.Spmv.kernel Apps.Spmv.block (Apps.Spmv.grid_for n)
       [ Host_ir.HInt n; Host_ir.HInt nnz; buf "row_ptr"; Host_ir.HInt (n + 1);
         buf "cols"; buf "vals"; buf "x"; buf "y" ])

let apps = [ "vecadd"; "matmul"; "hotspot"; "nbody"; "spmv"; "histogram"; "dot" ]

(* One program of [app], sizes, iteration counts and block shape drawn
   from [rng]. *)
let draw rng app =
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let block1 () = Dim3.make (pick [ 64; 128; 256; 512 ]) in
  let block2 () =
    let x, y = pick [ (8, 8); (16, 16); (32, 8); (32, 32) ] in
    Dim3.make x ~y
  in
  match app with
  | "vecadd" -> with_block (block1 ()) (vecadd (int 1 256 * 65_536))
  | "dot" -> with_block (block1 ()) (dot (int 1 256 * 65_536))
  | "histogram" ->
    with_block (block1 ()) (histogram (int 1 256 * 65_536) (pick [ 64; 256; 1024; 4096 ]))
  | "spmv" -> with_block (block1 ()) (spmv (int 1 64 * 16_384) (int 3 9))
  | "hotspot" ->
    let n = int 16 1024 * 16 in
    with_block (block2 ())
      (Apps.Hotspot.program_h ~n ~iterations:(int 1 2000) ~init:(ph (n * n))
         ~result:(ph (n * n)))
  | "matmul" ->
    let n = int 16 2048 * 16 in
    with_block (block2 ())
      (Apps.Matmul.program_h ~n ~a:(ph (n * n)) ~b:(ph (n * n))
         ~result:(ph (n * n)))
  | "nbody" ->
    let n = int 1 1280 * 256 in
    with_block (block1 ())
      (Apps.Nbody.program_h ~n ~iterations:(int 1 128)
         ~dt:Apps.Workloads.nbody_dt ~pos:(ph (n * 4)) ~vel:(ph (n * 4))
         ~pos_result:(ph (n * 4)))
  | _ -> invalid_arg app

type input = {
  programs : Host_ir.t list;  (** built host programs *)
  sources : (string * string) list;  (** .cu texts compiled via Cuparse *)
}

let per_app = 40

(* The corpus: [per_app] drawn programs of each app, interleaved, plus
   every examples/cuda/*.cu file and one drawn program per app rendered
   to .cu text (so the parser also sees seed-dependent input). *)
let setup (c : ctx) =
  let rng = Random.State.make [| c.seed; 0xC0 |] in
  let programs =
    List.concat (List.init per_app (fun _ -> List.map (draw rng) apps))
  in
  let dir = "examples/cuda" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cu")
    |> List.sort compare
  in
  let read f = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
  let rendered =
    List.map (fun a -> (a ^ "-drawn.cu", Cusrc.render (draw rng a))) apps
  in
  { programs; sources = List.map (fun f -> (f, read f)) files @ rendered }

(* Fingerprint of the generated inputs (self-check: seeds differ). *)
let digest inp =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map Cusrc.render inp.programs @ List.map snd inp.sources)))

type tally = {
  mutable kernels : int;
  mutable safe : int;
  mutable reducible : int;
  mutable unknown : int;
  mutable bytes : int;
}

(* Two-pass compile of one program; returns its latency in seconds. *)
let compile_one c t ~name prog =
  let t0 = now () in
  let compiled =
    attempt c ("compile " ^ name) (fun () ->
        layer "toolchain.frontend" (fun () ->
            ignore (Mekong.Toolchain.frontend_pass prog));
        match layer "toolchain.pass1" (fun () -> Mekong.Toolchain.pass1 prog) with
        | Error e -> failwith (Mekong.Toolchain.error_message e)
        | Ok (model, _) ->
          let text, model' =
            layer "model.roundtrip" (fun () ->
                let s = Mekong.Model.to_string model in
                (s, Mekong.Model.of_string s))
          in
          let exe =
            layer "toolchain.pass2" (fun () -> Mekong.Toolchain.pass2 model' prog)
          in
          if List.length exe.Mekong.Multi_gpu.compiled
             <> List.length (Host_ir.kernels prog)
          then failwith "a kernel was not linked";
          (text, model', exe))
  in
  let latency = now () -. t0 in
  (match compiled with
   | None -> ()
   | Some (text, model', exe) ->
     check c
       (Mekong.Model.to_string model' = text)
       ("model of " ^ name ^ " survives to_string/of_string");
     t.bytes <- t.bytes + String.length text;
     List.iter
       (fun (_, ck) ->
          t.kernels <- t.kernels + 1;
          match ck.Mekong.Multi_gpu.ck_gate with
          | Mekong.Verify.Safe -> t.safe <- t.safe + 1
          | Mekong.Verify.Reducible _ -> t.reducible <- t.reducible + 1
          | _ -> t.unknown <- t.unknown + 1)
       exe.Mekong.Multi_gpu.compiled);
  latency

let round c inp latencies _ =
  let t = { kernels = 0; safe = 0; reducible = 0; unknown = 0; bytes = 0 } in
  List.iter
    (fun (p : Host_ir.t) ->
       latencies := compile_one c t ~name:p.Host_ir.name p :: !latencies)
    inp.programs;
  List.iter
    (fun (name, text) ->
       match
         attempt c ("parse " ^ name) (fun () ->
             layer "cuparse.parse" (fun () ->
                 snd (Cuparse.parse_cu ~name:(Filename.remove_extension name) text)))
       with
       | Some prog -> latencies := compile_one c t ~name prog :: !latencies
       | None -> ())
    inp.sources;
  let f k v = (k, float_of_int v) in
  [
    f "compile.programs" (List.length inp.programs + List.length inp.sources);
    f "compile.kernels" t.kernels; f "verify.safe" t.safe;
    f "verify.reducible" t.reducible; f "verify.unknown" t.unknown;
    f "model.bytes" t.bytes;
  ]

(* Traced runs only: the per-kernel analysis, enumerator codegen and race
   verification that pass 1 and pass 2 perform internally, called once
   per kernel of the corpus under their own timers. *)
let attribute c inp =
  let progs =
    inp.programs
    @ List.filter_map
      (fun (name, text) ->
         Option.map snd
           (attempt c ("parse " ^ name) (fun () ->
                Cuparse.parse_cu ~name:(Filename.remove_extension name) text)))
      inp.sources
  in
  List.iter
    (fun p ->
       List.iter
         (fun k ->
            match layer "access.analyze" (fun () -> Mekong.Access.analyze k) with
            | Error _ -> check c false ("analyze " ^ k.Kir.name)
            | Ok a ->
              let km = Mekong.Model.of_analysis a in
              ignore (layer "codegen.build" (fun () -> Mekong.Codegen.build km));
              ignore
                (layer "verify.verify" (fun () -> Mekong.Verify.verify ~kernel:k km)))
         (Host_ir.kernels p))
    progs;
  List.iter
    (fun l -> set (l ^ "_s") (layer_total l))
    [ "access.analyze"; "codegen.build"; "verify.verify" ]

let run (c : ctx) inp ~seconds =
  let latencies = ref [] in
  let walls, outcome = timed_rounds c ~seconds (round c inp latencies) in
  let rounds = float_of_int (List.length walls) in
  List.iter
    (fun l -> set (l ^ "_s") (layer_total l /. rounds))
    [ "toolchain.frontend"; "toolchain.pass1"; "toolchain.pass2";
      "cuparse.parse"; "model.roundtrip" ];
  publish outcome;
  set "compile.p50_ms" (1e3 *. percentile !latencies 50.0);
  set "compile.p95_ms" (1e3 *. percentile !latencies 95.0);
  walls

let prepare c =
  let inp = setup c in
  { digest = digest inp; run = run c inp; extras = (fun () -> attribute c inp) }
