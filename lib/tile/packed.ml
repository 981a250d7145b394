(* Tile-major packed storage: the whole n x n matrix lives in ONE flat
   Bigarray, tile (i, j) occupying the contiguous slice
   [((i*nt)+j) * nb*nb, ...) in row-major order. Every kernel then runs
   unit-stride over its operand tiles (Dongarra rule 1: flops are free,
   data movement is not — the strided Tile.t layout walks row-major views
   whose rows are nb doubles apart, evicting cache lines mid-tile).

   The sequential [potrf]/[getrf_nopiv] drivers below replay the exact
   program order of the Cholesky/LU task generators in lib/core, calling
   the Pblas kernels whose operation order matches the strided Blas/Lapack
   reference — so a packed factorization is bitwise identical (float64) to
   the Tile.t one, and the dataflow executor (any interleaving consistent
   with the DAG) is bitwise identical to both. *)

open Xsc_linalg
open Bigarray

module D = struct
  type t = { n : int; nb : int; nt : int; buf : Pblas.f64 }

  let tile_elems t = t.nb * t.nb
  let off t i j = ((i * t.nt) + j) * t.nb * t.nb

  let create ~n ~nb =
    if nb <= 0 then invalid_arg "Packed.create: nb must be positive";
    if n mod nb <> 0 then invalid_arg "Packed.create: n must be a multiple of nb";
    let nt = n / nb in
    let buf = Array1.create float64 c_layout (n * n) in
    Array1.fill buf 0.0;
    { n; nb; nt; buf }

  let copy t =
    let buf = Array1.create float64 c_layout (Array1.dim t.buf) in
    Array1.blit t.buf buf;
    { t with buf }

  let get t i j =
    let nb = t.nb in
    t.buf.{off t (i / nb) (j / nb) + ((i mod nb) * nb) + (j mod nb)}

  let set t i j x =
    let nb = t.nb in
    t.buf.{off t (i / nb) (j / nb) + ((i mod nb) * nb) + (j mod nb)} <- x

  (* The copy runs in the C stub, one memcpy per source row run. Every
     element of every packed tile is written, so a recycled (dirty) buffer
     packs exactly like a fresh one; with [lower] the tiles above the
     diagonal keep whatever they held. *)
  let pack_padded ?(lower = false) t (a : Mat.t) =
    let m = a.Mat.rows in
    if a.Mat.cols <> m then invalid_arg "Packed.D.pack_padded: not square";
    if m > t.n then invalid_arg "Packed.D.pack_padded: matrix larger than buffer";
    Pblas.D.pack_tiles a.Mat.data ~m t.buf ~n:t.n ~nb:t.nb ~lower

  let of_mat ~nb (a : Mat.t) =
    if a.Mat.rows <> a.Mat.cols then invalid_arg "Packed.of_mat: not square";
    let t = create ~n:a.Mat.rows ~nb in
    pack_padded t a;
    t

  let to_mat t =
    let n = t.n and nb = t.nb in
    let a = Mat.create n n in
    let ad = a.Mat.data in
    for bi = 0 to t.nt - 1 do
      for bj = 0 to t.nt - 1 do
        let base = off t bi bj in
        for r = 0 to nb - 1 do
          let dst = (((bi * nb) + r) * n) + (bj * nb) in
          let src = base + (r * nb) in
          for c = 0 to nb - 1 do
            ad.(dst + c) <- t.buf.{src + c}
          done
        done
      done
    done;
    a

  let of_tiled (tl : Tile.t) =
    if tl.Tile.mt <> tl.Tile.nt then invalid_arg "Packed.of_tiled: not square";
    let nb = tl.Tile.nb in
    let t = create ~n:tl.Tile.rows ~nb in
    for bi = 0 to t.nt - 1 do
      for bj = 0 to t.nt - 1 do
        let m = Tile.tile tl bi bj in
        let base = off t bi bj in
        for e = 0 to (nb * nb) - 1 do
          t.buf.{base + e} <- m.Mat.data.(e)
        done
      done
    done;
    t

  let to_tiled t =
    let nb = t.nb in
    let tl = Tile.create ~rows:t.n ~cols:t.n ~nb in
    for bi = 0 to t.nt - 1 do
      for bj = 0 to t.nt - 1 do
        let m = Tile.tile tl bi bj in
        let base = off t bi bj in
        for e = 0 to (nb * nb) - 1 do
          m.Mat.data.(e) <- t.buf.{base + e}
        done
      done
    done;
    tl

  (* Sequential packed Cholesky, written out independently of the task
     program (Cholesky.panel/update) in its program order (k: potrf; i-loop
     of trsm; i-loop of syrk with inner j-loop of gemm), so it is an oracle
     for every interpreter of that program: sequential packed == sequential
     strided bitwise, and any DAG-consistent parallel interleaving == both. *)
  let potrf t =
    let nb = t.nb in
    for k = 0 to t.nt - 1 do
      let okk = off t k k in
      Pblas.D.potrf t.buf okk ~nb;
      for i = k + 1 to t.nt - 1 do
        Pblas.D.trsm_rlt t.buf okk t.buf (off t i k) ~nb
      done;
      for i = k + 1 to t.nt - 1 do
        let oik = off t i k in
        Pblas.D.syrk_ln ~alpha:(-1.0) t.buf oik ~beta:1.0 t.buf (off t i i) ~nb;
        for j = k + 1 to i - 1 do
          Pblas.D.gemm_nt ~alpha:(-1.0) t.buf oik t.buf (off t j k) t.buf (off t i j) ~nb
        done
      done
    done

  (* One row of a triangular solve against the packed factor:
     [y.(i) <- (y.(i) - sum_j A * y.(j)) / A(i,i)], j ascending — the
     element order of Blas.trsv, so a solve is bitwise equal to trsv on
     the unpacked factor. The tile offset is hoisted out of each run of nb
     elements, and the accumulator goes straight back into [y], so a row
     costs one division for its tile coordinates and boxes no float. *)

  (* j < i along row i: contiguous inside each tile of tile row i/nb; the
     diagonal tile comes last and ends just before A(i,i). *)
  let fwd_row ~unit t y i =
    let nb = t.nb and buf = t.buf in
    let bi = i / nb in
    let r = i - (bi * nb) in
    let acc = ref (Array.unsafe_get y i) in
    for bj = 0 to bi do
      let base = off t bi bj + (r * nb) and y0 = bj * nb in
      for c = 0 to (if bj = bi then r else nb) - 1 do
        acc := !acc -. (Array1.unsafe_get buf (base + c) *. Array.unsafe_get y (y0 + c))
      done
    done;
    Array.unsafe_set y i
      (if unit then !acc else !acc /. Array1.unsafe_get buf (off t bi bi + (r * (nb + 1))))

  (* j > i along row i (the upper factor of an LU). *)
  let bwd_row t y i =
    let nb = t.nb and buf = t.buf in
    let bi = i / nb in
    let r = i - (bi * nb) in
    let acc = ref (Array.unsafe_get y i) in
    for bj = bi to t.nt - 1 do
      let base = off t bi bj + (r * nb) and y0 = bj * nb in
      for c = (if bj = bi then r + 1 else 0) to nb - 1 do
        acc := !acc -. (Array1.unsafe_get buf (base + c) *. Array.unsafe_get y (y0 + c))
      done
    done;
    Array.unsafe_set y i (!acc /. Array1.unsafe_get buf (off t bi bi + (r * (nb + 1))))

  (* j > i down column i (Lᵀ of a Cholesky factor): stride nb inside each
     tile of tile column i/nb, starting just below A(i,i). *)
  let bwd_col t y i =
    let nb = t.nb and buf = t.buf in
    let bi = i / nb in
    let r = i - (bi * nb) in
    let acc = ref (Array.unsafe_get y i) in
    for bj = bi to t.nt - 1 do
      let base = off t bj bi + r and y0 = bj * nb in
      for c = (if bj = bi then r + 1 else 0) to nb - 1 do
        acc := !acc -. (Array1.unsafe_get buf (base + (c * nb)) *. Array.unsafe_get y (y0 + c))
      done
    done;
    Array.unsafe_set y i (!acc /. Array1.unsafe_get buf (off t bi bi + (r * (nb + 1))))

  (* One block of a sweep: the rows of tile row [bi], in the order the
     whole-vector solve visits them (ascending forward, descending
     backward), so a block-by-block solve is the whole solve cut at block
     boundaries and every element keeps its operation chain. *)
  let block_rows name t y bi =
    if Array.length y <> t.n then invalid_arg ("Packed.D." ^ name ^ ": dimension mismatch");
    if bi < 0 || bi >= t.nt then invalid_arg ("Packed.D." ^ name ^ ": block out of range");
    bi * t.nb

  let potrs_fwd t y bi =
    let r0 = block_rows "potrs_fwd" t y bi in
    for i = r0 to r0 + t.nb - 1 do
      fwd_row ~unit:false t y i
    done

  let potrs_bwd t y bi =
    let r0 = block_rows "potrs_bwd" t y bi in
    for i = r0 + t.nb - 1 downto r0 do
      bwd_col t y i
    done

  let getrs_fwd t y bi =
    let r0 = block_rows "getrs_fwd" t y bi in
    for i = r0 to r0 + t.nb - 1 do
      fwd_row ~unit:true t y i
    done

  let getrs_bwd t y bi =
    let r0 = block_rows "getrs_bwd" t y bi in
    for i = r0 + t.nb - 1 downto r0 do
      bwd_row t y i
    done

  let sweeps name fwd bwd t y =
    if Array.length y <> t.n then invalid_arg ("Packed.D." ^ name ^ ": dimension mismatch");
    for bi = 0 to t.nt - 1 do
      fwd t y bi
    done;
    for bi = t.nt - 1 downto 0 do
      bwd t y bi
    done

  let potrs t y = sweeps "potrs" potrs_fwd potrs_bwd t y
  let getrs_nopiv t y = sweeps "getrs_nopiv" getrs_fwd getrs_bwd t y

  (* Sequential packed unpivoted LU, an oracle written out in the program
     order of Lu.panel/update. *)
  let getrf_nopiv t =
    let nb = t.nb in
    for k = 0 to t.nt - 1 do
      let okk = off t k k in
      Pblas.D.getrf_nopiv t.buf okk ~nb;
      for j = k + 1 to t.nt - 1 do
        Pblas.D.trsm_llu t.buf okk t.buf (off t k j) ~nb
      done;
      for i = k + 1 to t.nt - 1 do
        Pblas.D.trsm_ru t.buf okk t.buf (off t i k) ~nb
      done;
      for i = k + 1 to t.nt - 1 do
        let oik = off t i k in
        for j = k + 1 to t.nt - 1 do
          Pblas.D.gemm_nn ~alpha:(-1.0) t.buf oik t.buf (off t k j) t.buf (off t i j) ~nb
        done
      done
    done

  (* Whole-matrix C <- alpha A B + beta C over packed tiles: the packed
     GEMM the bench races against the strided blocked kernel. *)
  let gemm ~alpha a b ~beta c =
    if a.n <> b.n || a.n <> c.n || a.nb <> b.nb || a.nb <> c.nb then
      invalid_arg "Packed.gemm: geometry mismatch";
    let nb = c.nb in
    for i = 0 to c.nt - 1 do
      for j = 0 to c.nt - 1 do
        let oc = off c i j in
        if beta <> 1.0 then
          for e = oc to oc + tile_elems c - 1 do
            c.buf.{e} <- beta *. c.buf.{e}
          done;
        for k = 0 to a.nt - 1 do
          Pblas.D.gemm_nn ~alpha a.buf (off a i k) b.buf (off b k j) c.buf oc ~nb
        done
      done
    done
end

module S = struct
  type t = { n : int; nb : int; nt : int; buf : Pblas.f32 }

  let off t i j = ((i * t.nt) + j) * t.nb * t.nb

  let create ~n ~nb =
    if nb <= 0 then invalid_arg "Packed.S.create: nb must be positive";
    if n mod nb <> 0 then invalid_arg "Packed.S.create: n must be a multiple of nb";
    let nt = n / nb in
    let buf = Array1.create float32 c_layout (n * n) in
    Array1.fill buf 0.0;
    { n; nb; nt; buf }

  (* Storing a double into a float32 Bigarray rounds to nearest single —
     this is the quantization step of the mixed-precision pipeline. *)
  let of_mat ~nb (a : Mat.t) =
    if a.Mat.rows <> a.Mat.cols then invalid_arg "Packed.S.of_mat: not square";
    let n = a.Mat.rows in
    let t = create ~n ~nb in
    let ad = a.Mat.data in
    for bi = 0 to t.nt - 1 do
      for bj = 0 to t.nt - 1 do
        let base = off t bi bj in
        for r = 0 to nb - 1 do
          let src = (((bi * nb) + r) * n) + (bj * nb) in
          let dst = base + (r * nb) in
          for c = 0 to nb - 1 do
            t.buf.{dst + c} <- ad.(src + c)
          done
        done
      done
    done;
    t

  (* Reading widens exactly: every float32 is representable in float64. *)
  let to_mat t =
    let n = t.n and nb = t.nb in
    let a = Mat.create n n in
    let ad = a.Mat.data in
    for bi = 0 to t.nt - 1 do
      for bj = 0 to t.nt - 1 do
        let base = off t bi bj in
        for r = 0 to nb - 1 do
          let dst = (((bi * nb) + r) * n) + (bj * nb) in
          let src = base + (r * nb) in
          for c = 0 to nb - 1 do
            ad.(dst + c) <- t.buf.{src + c}
          done
        done
      done
    done;
    a

  let get t i j =
    let nb = t.nb in
    t.buf.{off t (i / nb) (j / nb) + ((i mod nb) * nb) + (j mod nb)}

  (* Stores round to nearest float32, like of_mat. *)
  let set t i j x =
    let nb = t.nb in
    t.buf.{off t (i / nb) (j / nb) + ((i mod nb) * nb) + (j mod nb)} <- x

  (* Single-precision tiled Cholesky, same program order as D.potrf. All
     arithmetic is genuine float32 in the C kernels. *)
  let potrf t =
    let nb = t.nb in
    for k = 0 to t.nt - 1 do
      let okk = off t k k in
      Pblas.S.potrf t.buf okk ~nb;
      for i = k + 1 to t.nt - 1 do
        Pblas.S.trsm_rlt t.buf okk t.buf (off t i k) ~nb
      done;
      for i = k + 1 to t.nt - 1 do
        let oik = off t i k in
        Pblas.S.syrk_ln ~alpha:(-1.0) t.buf oik ~beta:1.0 t.buf (off t i i) ~nb;
        for j = k + 1 to i - 1 do
          Pblas.S.gemm_nt ~alpha:(-1.0) t.buf oik t.buf (off t j k) t.buf (off t i j) ~nb
        done
      done
    done

  (* Solve L Lᵀ x = b reading the float32 factor but accumulating in
     double: the correction solve of mixed-precision refinement (cheap
     O(n²) next to the O(n³) factorization, and the extra accumulator
     precision costs nothing — each f32 element widens exactly). Same
     hoisted sweeps as D.potrs, over a float32 buffer. *)
  let fwd_row t y i =
    let nb = t.nb and buf = t.buf in
    let bi = i / nb in
    let r = i - (bi * nb) in
    let acc = ref (Array.unsafe_get y i) in
    for bj = 0 to bi do
      let base = off t bi bj + (r * nb) and y0 = bj * nb in
      for c = 0 to (if bj = bi then r else nb) - 1 do
        acc := !acc -. (Array1.unsafe_get buf (base + c) *. Array.unsafe_get y (y0 + c))
      done
    done;
    Array.unsafe_set y i (!acc /. Array1.unsafe_get buf (off t bi bi + (r * (nb + 1))))

  let bwd_col t y i =
    let nb = t.nb and buf = t.buf in
    let bi = i / nb in
    let r = i - (bi * nb) in
    let acc = ref (Array.unsafe_get y i) in
    for bj = bi to t.nt - 1 do
      let base = off t bj bi + r and y0 = bj * nb in
      for c = (if bj = bi then r + 1 else 0) to nb - 1 do
        acc := !acc -. (Array1.unsafe_get buf (base + (c * nb)) *. Array.unsafe_get y (y0 + c))
      done
    done;
    Array.unsafe_set y i (!acc /. Array1.unsafe_get buf (off t bi bi + (r * (nb + 1))))

  let potrs t y =
    if Array.length y <> t.n then invalid_arg "Packed.S.potrs: dimension mismatch";
    for i = 0 to t.n - 1 do
      fwd_row t y i
    done;
    for i = t.n - 1 downto 0 do
      bwd_col t y i
    done
end

(* Tile size elected by this host's kernel-tuning cache (loaded at startup
   by Kconfig.autoload / xsc tune); callers that would otherwise hard-code
   a default nb route it through here so a tuned host gets its tuned tile
   size everywhere packing happens. *)
let tuned_nb ~fallback =
  match Xsc_linalg.Kconfig.current () with
  | Some t when t.Xsc_linalg.Kconfig.nb > 0 -> t.Xsc_linalg.Kconfig.nb
  | _ -> fallback
