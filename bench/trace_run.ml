(* `bench/main.exe -- --trace FILE`: one real traced packed Cholesky DAG run on 4
   domains. Writes a Chrome trace-event JSON (load in chrome://tracing or
   ui.perfetto.dev), then prints the ASCII Gantt and the per-kernel achieved
   rates against their roofline roofs on the workstation preset — the
   "achieved vs roof" view of a real run. *)

open Xsc_linalg
module Packed = Xsc_tile.Packed
module Cholesky = Xsc_core.Cholesky
module Real_exec = Xsc_runtime.Real_exec
module Pool = Xsc_runtime.Pool
module Trace = Xsc_runtime.Trace
module Roofline = Xsc_hpcbench.Roofline

(* Tile-kernel arithmetic intensity: task flops over the 8 nb^2 bytes of
   each distinct tile the kernel touches (potrf 1 tile, trsm/syrk 2,
   gemm 3). *)
let intensity_of ~nb family =
  let f = float_of_int nb in
  let tiles_bytes t = 8.0 *. f *. f *. float_of_int t in
  match family with
  | "potrf" -> f *. f *. f /. 3.0 /. tiles_bytes 1
  | "trsm" -> f *. f *. f /. tiles_bytes 2
  | "syrk" -> f *. f *. f /. tiles_bytes 2
  | "gemm" -> 2.0 *. f *. f *. f /. tiles_bytes 3
  | _ -> 1.0

let run ~file =
  let nt = 6 and nb = 72 and workers = 4 in
  let n = nt * nb in
  let rng = Xsc_util.Rng.create 7 in
  let a = Mat.random_spd rng n in
  let interp = Cholesky.packed_interp (Packed.D.of_mat ~nb a) in
  let dag = Cholesky.dag_ops ~nt ~nb in
  let stats = Pool.run_once ~interp ~trace:true ~workers dag in
  let tr =
    match stats.Real_exec.trace with
    | Some tr -> tr
    | None -> failwith "Trace_run: tracing was enabled but no trace came back"
  in
  Out_channel.with_open_text file (fun oc -> output_string oc (Trace.to_chrome_json tr ^ "\n"));
  Printf.printf "wrote %s: %d events from a %dx%d Cholesky on %d workers\n"
    file
    (List.length (Trace.entries tr))
    n n workers;
  Printf.printf "(open in chrome://tracing or ui.perfetto.dev)\n\n";
  print_string (Trace.gantt tr);
  print_newline ();
  let flops_of id = dag.Xsc_runtime.Dag.tasks.(id).Xsc_runtime.Task.flops in
  let rates = Trace.by_kernel_rates tr ~flops_of in
  let node = Xsc_simmachine.(Presets.workstation.Machine.node) in
  let achieved =
    List.map
      (fun (family, _busy, _count, rate) ->
        Roofline.achieved_point node ~kernel:family ~intensity:(intensity_of ~nb family)
          ~measured:rate)
      rates
  in
  print_string (Roofline.render_achieved achieved);
  print_newline ()
