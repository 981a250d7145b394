(* Packed-tile kernels: thin bindings over the C microkernels in
   pblas_stubs.c, operating on contiguous nb x nb tiles addressed as
   (buffer, element offset) pairs inside one Bigarray.Array1.

   Each wrapper routes its flop count and cold-cache byte traffic through
   Blas.tally_kernel so packed runs appear in the same blas.* roofline
   namespace as the strided kernels — under distinct names (pgemm, ...,
   sgemm, ...) so packed and strided rates can be compared side by side. *)

open Bigarray

type f64 = (float, float64_elt, c_layout) Array1.t
type f32 = (float, float32_elt, c_layout) Array1.t

exception Singular of int

(* The stubs that transpose through per-thread scratch return -2 when it
   cannot be allocated; they have then written nothing. *)
let checked st = if st = -2 then raise Out_of_memory

let gemm_flops nb = 2.0 *. float_of_int nb *. float_of_int nb *. float_of_int nb
let syrk_flops nb = float_of_int nb *. float_of_int (nb + 1) *. float_of_int nb
let trsm_flops nb = float_of_int nb *. float_of_int nb *. float_of_int nb

let potrf_flops nb =
  let n = float_of_int nb in
  (n *. n *. n /. 3.0) +. (n *. n /. 2.0) +. (n /. 6.0)

let getrf_flops nb =
  let n = float_of_int nb in
  2.0 *. n *. n *. n /. 3.0

(* three tiles touched; C read and written *)
let gemm_bytes w nb = float_of_int w *. float_of_int (4 * nb * nb)
let syrk_bytes w nb = float_of_int w *. float_of_int ((nb * nb) + (nb * (nb + 1)))
let trsm_bytes w nb = float_of_int w *. float_of_int ((nb * (nb + 1) / 2) + (2 * nb * nb))
let fact_bytes w nb = float_of_int w *. float_of_int (2 * nb * nb)

(* ---- runtime kernel configuration ----

   The C stubs dispatch the compute kernels through per-kernel,
   per-precision config records (micro-tile shape, pack strategy,
   prefetch). Every variant is bitwise-identical — each output element
   keeps its own k-ascending accumulator chain regardless of shape — so
   switching configs trades only speed, never results. The authoritative
   table lives in C; an OCaml mirror makes [cfg] readable without a
   read-back stub. *)

type kernel = Gemm_nn | Gemm_nt | Syrk_ln | Trsm_rlt
type prec = F64 | F32
type kcfg = { shape : int; pack : bool; prefetch : bool }

external shape_count_raw : unit -> int = "xsc_pk_shape_count" [@@noalloc]
external shape_dims_raw : int -> int = "xsc_pk_shape_dims" [@@noalloc]

external set_kcfg_raw : int -> int -> int -> bool -> bool -> int = "xsc_pk_set_kcfg"
  [@@noalloc]

let shapes =
  Array.init (shape_count_raw ()) (fun i ->
      let d = shape_dims_raw i in
      (d / 1000, d mod 1000))

let default_cfg =
  (* (8, 16): the register-blocked micro-tile; must match DEFAULT_SHAPE in
     the C stubs *)
  let shape =
    let found = ref 0 in
    Array.iteri (fun i s -> if s = (8, 16) then found := i) shapes;
    !found
  in
  { shape; pack = true; prefetch = false }

let all_kernels = [ Gemm_nn; Gemm_nt; Syrk_ln; Trsm_rlt ]
let all_precs = [ F64; F32 ]

let kernel_id = function Gemm_nn -> 0 | Gemm_nt -> 1 | Syrk_ln -> 2 | Trsm_rlt -> 3
let prec_id = function F64 -> 0 | F32 -> 1

let kernel_name = function
  | Gemm_nn -> "gemm_nn"
  | Gemm_nt -> "gemm_nt"
  | Syrk_ln -> "syrk_ln"
  | Trsm_rlt -> "trsm_rlt"

let prec_name = function F64 -> "f64" | F32 -> "f32"

let kernel_of_name = function
  | "gemm_nn" -> Some Gemm_nn
  | "gemm_nt" -> Some Gemm_nt
  | "syrk_ln" -> Some Syrk_ln
  | "trsm_rlt" -> Some Trsm_rlt
  | _ -> None

let prec_of_name = function "f64" -> Some F64 | "f32" -> Some F32 | _ -> None
let mirror = Array.init 2 (fun _ -> Array.make 4 default_cfg)

let set_cfg prec kernel c =
  if c.shape < 0 || c.shape >= Array.length shapes then
    invalid_arg "Pblas.set_cfg: shape id out of range";
  let st = set_kcfg_raw (prec_id prec) (kernel_id kernel) c.shape c.pack c.prefetch in
  if st <> 0 then invalid_arg "Pblas.set_cfg: rejected by kernel dispatch";
  mirror.(prec_id prec).(kernel_id kernel) <- c

let cfg prec kernel = mirror.(prec_id prec).(kernel_id kernel)

let reset_cfgs () =
  List.iter
    (fun p -> List.iter (fun k -> set_cfg p k default_cfg) all_kernels)
    all_precs

module D = struct
  type buf = f64

  external gemm_nn_raw : buf -> int -> buf -> int -> buf -> int -> int -> float -> unit
    = "xsc_pk_gemm_nn_d_byte" "xsc_pk_gemm_nn_d"
    [@@noalloc]

  external gemm_nt_raw : buf -> int -> buf -> int -> buf -> int -> int -> float -> int
    = "xsc_pk_gemm_nt_d_byte" "xsc_pk_gemm_nt_d"
    [@@noalloc]

  external syrk_ln_raw : buf -> int -> buf -> int -> int -> float -> float -> int
    = "xsc_pk_syrk_ln_d_byte" "xsc_pk_syrk_ln_d"
    [@@noalloc]

  external trsm_rlt_raw : buf -> int -> buf -> int -> int -> int = "xsc_pk_trsm_rlt_d"
    [@@noalloc]

  external trsm_llu_raw : buf -> int -> buf -> int -> int -> unit = "xsc_pk_trsm_llu_d"
    [@@noalloc]

  external trsm_ru_raw : buf -> int -> buf -> int -> int -> int = "xsc_pk_trsm_ru_d"
    [@@noalloc]

  external potrf_raw : buf -> int -> int -> int = "xsc_pk_potrf_d" [@@noalloc]
  external getrf_nopiv_raw : buf -> int -> int -> int = "xsc_pk_getrf_nopiv_d" [@@noalloc]

  external pack_tiles_raw : float array -> int -> buf -> int -> int -> bool -> unit
    = "xsc_pk_pack_tiles_d_byte" "xsc_pk_pack_tiles_d"
    [@@noalloc]

  let pack_tiles src ~m buf ~n ~nb ~lower =
    if nb <= 0 || n mod nb <> 0 || m < 0 || m > n then
      invalid_arg "Pblas.D.pack_tiles: bad geometry";
    if Array.length src <> m * m || Array1.dim buf <> n * n then
      invalid_arg "Pblas.D.pack_tiles: dimension mismatch";
    pack_tiles_raw src m buf n nb lower

  let gemm_nn ~alpha a oa b ob c oc ~nb =
    gemm_nn_raw a oa b ob c oc nb alpha;
    Blas.tally_kernel "pgemm" ~flops:(gemm_flops nb) ~bytes:(gemm_bytes 8 nb)

  let gemm_nt ~alpha a oa b ob c oc ~nb =
    checked (gemm_nt_raw a oa b ob c oc nb alpha);
    Blas.tally_kernel "pgemm" ~flops:(gemm_flops nb) ~bytes:(gemm_bytes 8 nb)

  let syrk_ln ~alpha a oa ~beta c oc ~nb =
    checked (syrk_ln_raw a oa c oc nb alpha beta);
    Blas.tally_kernel "psyrk" ~flops:(syrk_flops nb) ~bytes:(syrk_bytes 8 nb)

  let trsm_rlt a oa b ob ~nb =
    checked (trsm_rlt_raw a oa b ob nb);
    Blas.tally_kernel "ptrsm" ~flops:(trsm_flops nb) ~bytes:(trsm_bytes 8 nb)

  let trsm_llu a oa b ob ~nb =
    trsm_llu_raw a oa b ob nb;
    Blas.tally_kernel "ptrsm" ~flops:(trsm_flops nb) ~bytes:(trsm_bytes 8 nb)

  let trsm_ru a oa b ob ~nb =
    checked (trsm_ru_raw a oa b ob nb);
    Blas.tally_kernel "ptrsm" ~flops:(trsm_flops nb) ~bytes:(trsm_bytes 8 nb)

  let potrf a oa ~nb =
    let st = potrf_raw a oa nb in
    checked st;
    if st >= 0 then raise (Singular st);
    Blas.tally_kernel "ppotrf" ~flops:(potrf_flops nb) ~bytes:(fact_bytes 8 nb)

  let getrf_nopiv a oa ~nb =
    let st = getrf_nopiv_raw a oa nb in
    if st >= 0 then raise (Singular st);
    Blas.tally_kernel "pgetrf" ~flops:(getrf_flops nb) ~bytes:(fact_bytes 8 nb)
end

module S = struct
  type buf = f32

  external gemm_nn_raw : buf -> int -> buf -> int -> buf -> int -> int -> float -> unit
    = "xsc_pk_gemm_nn_s_byte" "xsc_pk_gemm_nn_s"
    [@@noalloc]

  external gemm_nt_raw : buf -> int -> buf -> int -> buf -> int -> int -> float -> int
    = "xsc_pk_gemm_nt_s_byte" "xsc_pk_gemm_nt_s"
    [@@noalloc]

  external syrk_ln_raw : buf -> int -> buf -> int -> int -> float -> float -> int
    = "xsc_pk_syrk_ln_s_byte" "xsc_pk_syrk_ln_s"
    [@@noalloc]

  external trsm_rlt_raw : buf -> int -> buf -> int -> int -> int = "xsc_pk_trsm_rlt_s"
    [@@noalloc]

  external potrf_raw : buf -> int -> int -> int = "xsc_pk_potrf_s" [@@noalloc]

  let gemm_nn ~alpha a oa b ob c oc ~nb =
    gemm_nn_raw a oa b ob c oc nb alpha;
    Blas.tally_kernel "sgemm" ~flops:(gemm_flops nb) ~bytes:(gemm_bytes 4 nb)

  let gemm_nt ~alpha a oa b ob c oc ~nb =
    checked (gemm_nt_raw a oa b ob c oc nb alpha);
    Blas.tally_kernel "sgemm" ~flops:(gemm_flops nb) ~bytes:(gemm_bytes 4 nb)

  let syrk_ln ~alpha a oa ~beta c oc ~nb =
    checked (syrk_ln_raw a oa c oc nb alpha beta);
    Blas.tally_kernel "ssyrk" ~flops:(syrk_flops nb) ~bytes:(syrk_bytes 4 nb)

  let trsm_rlt a oa b ob ~nb =
    checked (trsm_rlt_raw a oa b ob nb);
    Blas.tally_kernel "strsm" ~flops:(trsm_flops nb) ~bytes:(trsm_bytes 4 nb)

  let potrf a oa ~nb =
    let st = potrf_raw a oa nb in
    checked st;
    if st >= 0 then raise (Singular st);
    Blas.tally_kernel "spotrf" ~flops:(potrf_flops nb) ~bytes:(fact_bytes 4 nb)
end
