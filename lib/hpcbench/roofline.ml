type point = {
  kernel : string;
  intensity : float;
  attainable : float;
  fraction_of_peak : float;
}

let gemm_intensity ~nb =
  if nb <= 0 then invalid_arg "Roofline.gemm_intensity: nb must be positive";
  float_of_int nb /. 12.0

(* 27 nonzeros per row: flops = 54, bytes ~ 12*27 + 16 = 340 *)
let stencil27_intensity = 54.0 /. 340.0

(* a(i) = b(i) + q*c(i): 2 flops per 24 bytes *)
let stream_triad_intensity = 2.0 /. 24.0

let point ?(precision = Xsc_simmachine.Node.FP64) node ~kernel ~intensity =
  let open Xsc_simmachine in
  let attainable = Node.roofline_rate node precision ~intensity in
  {
    kernel;
    intensity;
    attainable;
    fraction_of_peak = attainable /. Node.node_rate node precision;
  }

let standard_points ?(nb = 256) node =
  [
    point node ~kernel:"stream-triad" ~intensity:stream_triad_intensity;
    point node ~kernel:"spmv-27pt" ~intensity:stencil27_intensity;
    point node ~kernel:"gemm-nb32" ~intensity:(gemm_intensity ~nb:32);
    point node ~kernel:(Printf.sprintf "gemm-nb%d" nb) ~intensity:(gemm_intensity ~nb);
  ]

let ridge_point node = Xsc_simmachine.Node.machine_balance node

type achieved = {
  point : point;
  measured : float;
  roof_fraction : float;
}

let achieved_point ?precision node ~kernel ~intensity ~measured =
  let p = point ?precision node ~kernel ~intensity in
  let roof_fraction = if p.attainable > 0.0 then measured /. p.attainable else 0.0 in
  { point = p; measured; roof_fraction }

let render_achieved points =
  let tbl =
    Xsc_util.Table.create
      ~headers:[ "kernel"; "intensity"; "roof"; "achieved"; "% of roof" ]
  in
  List.iter
    (fun a ->
      Xsc_util.Table.add_row tbl
        [
          a.point.kernel;
          Printf.sprintf "%.2f" a.point.intensity;
          Xsc_util.Units.flops a.point.attainable;
          Xsc_util.Units.flops a.measured;
          Xsc_util.Units.percent a.roof_fraction;
        ])
    points;
  Xsc_util.Table.render tbl
