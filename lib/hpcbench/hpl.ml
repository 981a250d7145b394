open Xsc_linalg

type run = {
  n : int;
  seconds : float;
  gflops : float;
  residual : float;
  passed : bool;
}

let flops n =
  let fn = float_of_int n in
  (2.0 *. fn *. fn *. fn /. 3.0) +. (1.5 *. fn *. fn)

let hpl_residual a x b =
  (* || A x - b ||_inf / (eps * (||A||_inf ||x||_inf + ||b||_inf) * n) *)
  let r = Array.copy b in
  Blas.gemv ~alpha:1.0 a x ~beta:(-1.0) r;
  let n = float_of_int (Array.length b) in
  Vec.norm_inf r
  /. (epsilon_float *. ((Mat.norm_inf a *. Vec.norm_inf x) +. Vec.norm_inf b) *. n)

let finish ~n ~seconds a x b =
  let residual = hpl_residual a x b in
  {
    n;
    seconds;
    gflops = flops n /. seconds /. 1e9;
    residual;
    passed = residual < 16.0;
  }

let run_host ?(seed = 7) ~n () =
  let rng = Xsc_util.Rng.create seed in
  let a = Mat.random rng n n in
  let b = Vec.random rng n in
  let f = Mat.copy a in
  let t0 = Unix.gettimeofday () in
  (* HPL's algorithm: right-looking blocked LU with partial pivoting *)
  let ipiv = Lapack.getrf_blocked ~nb:64 f in
  let x = Array.copy b in
  Lapack.getrs f ipiv x;
  let seconds = Unix.gettimeofday () -. t0 in
  finish ~n ~seconds a x b

let run_host_tiled ?(seed = 7) ?(nb = 64) ?(workers = 1) ~n () =
  if n mod nb <> 0 then invalid_arg "Hpl.run_host_tiled: nb must divide n";
  let rng = Xsc_util.Rng.create seed in
  let a = Mat.random_diag_dominant rng n in
  let b = Vec.random rng n in
  let exec =
    if workers <= 1 then Xsc_core.Runtime_api.Sequential
    else Xsc_core.Runtime_api.Dataflow workers
  in
  let t0 = Unix.gettimeofday () in
  let x = Xsc_core.Solver.solve_general ~opts:{ Xsc_core.Solver.nb; exec } a b in
  let seconds = Unix.gettimeofday () -. t0 in
  finish ~n ~seconds a x b

type model = {
  time : float;
  gflops_total : float;
  fraction_of_peak : float;
}

let model m ~n ?(nb = 256) () =
  let open Xsc_simmachine in
  let fn = float_of_int n in
  let peak = Machine.peak m Node.FP64 in
  (* compute: the update is blocked GEMM running at the roofline rate for
     the chosen block size *)
  let gemm_rate_node =
    Node.roofline_rate m.Machine.node Node.FP64 ~intensity:(Roofline.gemm_intensity ~nb)
  in
  let gemm_rate = gemm_rate_node *. float_of_int m.Machine.node_count in
  let t_compute = flops n /. gemm_rate in
  (* communication: each of the n/nb panel steps broadcasts an n x nb panel
     across the grid (row + column broadcasts) *)
  let steps = fn /. float_of_int nb in
  let panel_bytes = 8.0 *. fn *. float_of_int nb in
  let t_comm_step =
    2.0 *. Network.bcast_time m.Machine.network ~ranks:m.Machine.node_count
             ~bytes:(panel_bytes /. float_of_int m.Machine.node_count)
  in
  let time = t_compute +. (steps *. t_comm_step) in
  let rate = flops n /. time in
  { time; gflops_total = rate /. 1e9; fraction_of_peak = rate /. peak }

let pick_n m ~memory_per_node =
  if memory_per_node <= 0.0 then invalid_arg "Hpl.pick_n: memory must be positive";
  let total = memory_per_node *. float_of_int m.Xsc_simmachine.Machine.node_count in
  (* fill ~80% of memory with the matrix: 8 n^2 = 0.8 total *)
  let n = int_of_float (sqrt (0.8 *. total /. 8.0)) in
  max 256 (n / 256 * 256)
