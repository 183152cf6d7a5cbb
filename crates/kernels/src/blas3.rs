//! BLAS-3 matrix–matrix kernels (column-major, explicit leading dimension).
//!
//! [`dgemm`] is the kernel the whole S\* design funnels work into: the
//! submatrix update `A_ij -= L_ik * U_kj` (line 12 of `Update(k, j)`,
//! Fig. 8 of the paper) and the block triangular solve
//! `U_kj = L_kk⁻¹ U_kj` (line 5, implemented by [`dtrsm_left_lower_unit`]).
//!
//! Two implementations coexist:
//!
//! * [`dgemm_naive`] — a cache-friendly `j-k-i` loop with a four-way
//!   unrolled `k` loop (the original kernel, kept as the benchmark
//!   baseline and as the exact fallback for small shapes);
//! * the cache-blocked path used by [`dgemm`]/[`dgemm_with`] — GEBP-style
//!   MC×KC×NC blocking with `A` and `B` packed into contiguous micro-panels
//!   held in a reusable [`GemmScratch`], and a 4×4 register-tiled
//!   micro-kernel with an unrolled inner loop. Fringe tiles are handled
//!   exactly by zero-padding the packed panels and restricting the
//!   write-back to the valid sub-tile, so no shape needs a separate code
//!   path.
//!
//! The sparse update uses the blocked path's pieces directly: [`pack_a`]
//! and [`pack_b`] pack an operand once, and [`dgemm_packed_sub_scatter`]
//! subtracts each register tile straight into a scattered destination
//! ([`Scatter`]), with no product buffer in between.
//!
//! Path selection depends only on the problem shape `(m, n, k)`, never on
//! the data, so every driver (sequential, 1D, 2D, pipelined) performs
//! bit-identical arithmetic for the same logical update — the parallel
//! equivalence tests rely on this.
//!
//! On typical hardware the blocked path comfortably beats the
//! [`crate::dgemv`] path per flop, which is the `w3 < w2` relation the
//! paper's cost model (§6.1) relies on; `results/BENCH_kernels.json`
//! records the measured blocked-vs-naive ratio on the host machine.

use crate::flops::{record, FlopClass};
use std::cell::RefCell;

/// Micro-kernel tile height (rows of `C` per register tile).
pub const MR: usize = 4;
/// Micro-kernel tile width (columns of `C` per register tile).
pub const NR: usize = 4;
/// Rows of `A` packed per cache block (fits the micro-panel in L2).
const MC: usize = 64;
/// Depth (`k` extent) packed per cache block.
const KC: usize = 192;
/// Columns of `B` packed per cache block.
const NC: usize = 256;

/// Shapes with any dimension below this stay on the exact axpy fallback —
/// packing overhead does not amortize on slivers.
const BLOCK_MIN_DIM: usize = 8;

/// Reusable pack buffers for the blocked [`dgemm_with`] path.
///
/// Holding one of these per processor (inside `FactorScratch` in
/// `splu-core`) makes the steady-state GEMM path allocation-free: the
/// buffers grow to the high-water mark of the shapes seen and are then
/// reused verbatim. [`GemmScratch::grow_events`] counts capacity growth so
/// callers can prove the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct GemmScratch {
    apack: Vec<f64>,
    bpack: Vec<f64>,
    grow_events: u64,
}

impl GemmScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of times a pack buffer had to grow its capacity.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// High-water total footprint of the pack buffers, in bytes.
    pub fn peak_bytes(&self) -> usize {
        (self.apack.capacity() + self.bpack.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Grow-only length guarantee: returns `&mut v[..len]`, counting a grow
/// event when the capacity must actually increase.
fn ensure_len<'a>(v: &'a mut Vec<f64>, len: usize, grow_events: &mut u64) -> &'a mut [f64] {
    if v.len() < len {
        if v.capacity() < len {
            *grow_events += 1;
        }
        v.resize(len, 0.0);
    }
    &mut v[..len]
}

/// Row segments of one panel packed for [`dgemm_packed_sub_scatter`],
/// filled lazily: segment `s` is packed ([`pack_a`]) the first time it is
/// asked for and read in place after that, until the next
/// [`SegmentPack::reset`]. Buffers only grow; capacity growth is counted
/// like [`GemmScratch`]'s.
#[derive(Debug, Default)]
pub struct SegmentPack {
    data: Vec<f64>,
    /// Offset of each segment's panels in `data` (`usize::MAX` = not yet).
    offs: Vec<usize>,
    grow_events: u64,
}

impl SegmentPack {
    /// Forget every packed segment and make room for `nsegs` of them.
    pub fn reset(&mut self, nsegs: usize) {
        self.data.clear();
        self.offs.clear();
        if self.offs.capacity() < nsegs {
            self.grow_events += 1;
        }
        self.offs.resize(nsegs, usize::MAX);
    }

    /// Pack segment `s` — `m` rows of `a` (leading dimension `lda`) at
    /// depth `k` — unless it already is.
    pub fn pack(&mut self, s: usize, m: usize, k: usize, a: &[f64], lda: usize) {
        if self.offs[s] == usize::MAX {
            let (off, len) = (self.data.len(), packed_a_len(m, k));
            if self.data.capacity() < off + len {
                self.grow_events += 1;
                self.data.reserve(len);
            }
            self.data.resize(off + len, 0.0);
            pack_a(m, k, a, lda, &mut self.data[off..]);
            self.offs[s] = off;
        }
    }

    /// The packed form of segment `s` (from its first panel on).
    ///
    /// # Panics
    /// If `s` was not packed since the last reset.
    pub fn get(&self, s: usize) -> &[f64] {
        &self.data[self.offs[s]..]
    }

    /// Number of times a buffer had to grow its capacity.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// High-water footprint of the buffers, in bytes.
    pub fn peak_bytes(&self) -> usize {
        (self.data.capacity() + self.offs.capacity()) * 8
    }
}

thread_local! {
    static TLS_SCRATCH: RefCell<GemmScratch> = RefCell::new(GemmScratch::new());
}

/// `C = alpha * A * B + beta * C`.
///
/// `A` is `m × k` (leading dimension `lda`), `B` is `k × n` (`ldb`),
/// `C` is `m × n` (`ldc`); all column-major.
///
/// Uses a thread-local [`GemmScratch`]; hot paths that own a per-processor
/// arena should call [`dgemm_with`] instead.
#[allow(clippy::too_many_arguments)]
pub fn dgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    TLS_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => dgemm_with(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, &mut scratch),
        // Re-entrant call (cannot happen today): fall back to a fresh scratch.
        Err(_) => {
            let mut scratch = GemmScratch::new();
            dgemm_with(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, &mut scratch);
        }
    });
}

/// [`dgemm`] with an explicit pack-buffer arena (the allocation-free form).
#[allow(clippy::too_many_arguments)]
pub fn dgemm_with(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    debug_assert!(m == 0 || (lda >= m && ldc >= m));
    debug_assert!(k == 0 || ldb >= k);
    if m == 0 || n == 0 {
        return;
    }
    scale_beta(m, n, beta, c, ldc);
    if alpha == 0.0 || k == 0 {
        return;
    }
    if gemm_uses_blocked_path(m, n, k) {
        gemm_blocked(m, n, k, alpha, a, lda, b, ldb, c, ldc, scratch);
    } else {
        gemm_axpy(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    }
    record(FlopClass::Blas3, (2 * m * n * k) as u64);
}

/// Whether [`dgemm_with`] routes shape `(m, n, k)` to the cache-blocked
/// path (`true`) or to the exact axpy fallback (`false`, same arithmetic
/// as [`dgemm_naive`]).
///
/// Within either path, the value of each `C` element depends only on its
/// own row of `A`, its own column of `B` and the path's `k`-reduction
/// order — never on `m`, `lda` or `ldc`. The sparse update relies on this
/// to pick a kernel per destination segment: shapes for which this holds
/// run [`dgemm_packed_sub_scatter`] on operands packed once (bitwise the
/// blocked path followed by a scatter), the others run [`dgemm_naive`]
/// into a buffer — several adjacent row segments stacked into one call
/// if they like — followed by [`scatter_sub`].
pub fn gemm_uses_blocked_path(m: usize, n: usize, k: usize) -> bool {
    m >= BLOCK_MIN_DIM && n >= BLOCK_MIN_DIM && k >= BLOCK_MIN_DIM
}

/// The original kernel: `j-k-i` loops, four-way unrolled `k`, innermost
/// column access contiguous. Kept as the micro-benchmark baseline
/// (`results/BENCH_kernels.json` reports blocked/naive) and reused verbatim
/// as the exact fallback for shapes too small to amortize packing.
#[allow(clippy::too_many_arguments)]
pub fn dgemm_naive(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    debug_assert!(m == 0 || (lda >= m && ldc >= m));
    debug_assert!(k == 0 || ldb >= k);
    if m == 0 || n == 0 {
        return;
    }
    scale_beta(m, n, beta, c, ldc);
    if alpha == 0.0 || k == 0 {
        return;
    }
    gemm_axpy(m, n, k, alpha, a, lda, b, ldb, c, ldc);
    record(FlopClass::Blas3, (2 * m * n * k) as u64);
}

/// `C *= beta` over the `m × n` window (beta == 0 overwrites, clearing NaN).
fn scale_beta(m: usize, n: usize, beta: f64, c: &mut [f64], ldc: usize) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == 0.0 {
            col.fill(0.0);
        } else {
            for v in col {
                *v *= beta;
            }
        }
    }
}

/// Unblocked `C += alpha * A * B` (no beta handling, no flop recording).
#[allow(clippy::too_many_arguments)]
fn gemm_axpy(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    for j in 0..n {
        let bcol = &b[j * ldb..j * ldb + k];
        let ccol = &mut c[j * ldc..j * ldc + m];
        let mut p = 0usize;
        // Four-way unrolled over k: fuse four axpys into one pass over ccol.
        while p + 4 <= k {
            let (b0, b1, b2, b3) = (
                alpha * bcol[p],
                alpha * bcol[p + 1],
                alpha * bcol[p + 2],
                alpha * bcol[p + 3],
            );
            let a0 = &a[p * lda..p * lda + m];
            let a1 = &a[(p + 1) * lda..(p + 1) * lda + m];
            let a2 = &a[(p + 2) * lda..(p + 2) * lda + m];
            let a3 = &a[(p + 3) * lda..(p + 3) * lda + m];
            for i in 0..m {
                ccol[i] += b0 * a0[i] + b1 * a1[i] + b2 * a2[i] + b3 * a3[i];
            }
            p += 4;
        }
        while p < k {
            let bkj = alpha * bcol[p];
            if bkj != 0.0 {
                let acol = &a[p * lda..p * lda + m];
                for i in 0..m {
                    ccol[i] += bkj * acol[i];
                }
            }
            p += 1;
        }
    }
}

/// Length of the packed form of an `m × k` `A` operand ([`pack_a`]).
pub fn packed_a_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * k * MR
}

/// Length of the packed form of a `k × n` `B` operand ([`pack_b`]).
pub fn packed_b_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * k * NR
}

/// Pack an `mc × kc` block of `A` into MR-row micro-panels: panel `t`
/// covers rows `[t*MR, t*MR+MR)` and stores, for each `p` in `0..kc`, the
/// MR row values contiguously. Rows past `mc` are zero-padded so the
/// micro-kernel never needs a fringe variant. `into` must hold
/// [`packed_a_len`]`(mc, kc)` values.
pub fn pack_a(mc: usize, kc: usize, a: &[f64], lda: usize, into: &mut [f64]) {
    let mut dst = 0usize;
    let mut ir = 0usize;
    while ir < mc {
        let mr = MR.min(mc - ir);
        if mr == MR {
            for p in 0..kc {
                let src = ir + p * lda;
                into[dst..dst + MR].copy_from_slice(&a[src..src + MR]);
                dst += MR;
            }
        } else {
            for p in 0..kc {
                let src = ir + p * lda;
                for i in 0..MR {
                    into[dst + i] = if i < mr { a[src + i] } else { 0.0 };
                }
                dst += MR;
            }
        }
        ir += MR;
    }
}

/// Pack a `kc × nc` block of `B` into NR-column micro-panels: panel `t`
/// covers columns `[t*NR, t*NR+NR)` and stores, for each `p` in `0..kc`,
/// the NR column values contiguously (zero-padded past `nc`). `into` must
/// hold [`packed_b_len`]`(kc, nc)` values.
pub fn pack_b(kc: usize, nc: usize, b: &[f64], ldb: usize, into: &mut [f64]) {
    let mut dst = 0usize;
    let mut jr = 0usize;
    while jr < nc {
        let nr = NR.min(nc - jr);
        for p in 0..kc {
            for j in 0..NR {
                into[dst + j] = if j < nr { b[p + (jr + j) * ldb] } else { 0.0 };
            }
            dst += NR;
        }
        jr += NR;
    }
}

/// 4×4 register-tiled micro-kernel: `acc[j][i] += sum_p a[p][i] * b[p][j]`
/// over one packed A micro-panel (`kc × MR`) and B micro-panel (`kc × NR`).
/// The inner tile is fully unrolled; sixteen independent accumulators stay
/// in registers across the whole `kc` loop.
#[inline(always)]
fn micro_4x4(a: &[f64], b: &[f64], acc: &mut [[f64; MR]; NR]) {
    for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        let (a0, a1, a2, a3) = (ap[0], ap[1], ap[2], ap[3]);
        for (accj, &bj) in acc.iter_mut().zip(bp.iter()) {
            accj[0] += a0 * bj;
            accj[1] += a1 * bj;
            accj[2] += a2 * bj;
            accj[3] += a3 * bj;
        }
    }
}

/// AVX2+FMA variant of the micro-kernel, selected at runtime. The packed
/// layout is identical; the `k` loop is unrolled by two with independent
/// accumulator banks so eight FMA dependency chains are in flight (the
/// 4-chain version is FMA-latency-bound).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use core::arch::x86_64::*;

    pub fn has_fma() -> bool {
        use std::sync::OnceLock;
        static HAS: OnceLock<bool> = OnceLock::new();
        *HAS.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }

    /// AVX-512 (F + VL) on top of [`has_fma`]: 32 vector registers, enough
    /// for the 8×4 tile of [`tile8_fma`].
    pub fn has_avx512() -> bool {
        use std::sync::OnceLock;
        static HAS: OnceLock<bool> = OnceLock::new();
        *HAS.get_or_init(|| {
            has_fma()
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
        })
    }

    /// # Safety
    /// Caller must ensure AVX2 and FMA are available (see [`has_fma`]) and
    /// that `a.len() == kc * MR`, `b.len() == kc * NR` for the same `kc`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_4x4_fma(a: &[f64], b: &[f64], acc: &mut [[f64; MR]; NR]) {
        debug_assert_eq!(a.len() / MR, b.len() / NR);
        let kc = a.len() / MR;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut c0a = _mm256_setzero_pd();
        let mut c1a = _mm256_setzero_pd();
        let mut c2a = _mm256_setzero_pd();
        let mut c3a = _mm256_setzero_pd();
        let mut c0b = _mm256_setzero_pd();
        let mut c1b = _mm256_setzero_pd();
        let mut c2b = _mm256_setzero_pd();
        let mut c3b = _mm256_setzero_pd();
        let mut p = 0usize;
        while p + 2 <= kc {
            let av0 = _mm256_loadu_pd(ap.add(p * MR));
            let bq0 = bp.add(p * NR);
            c0a = _mm256_fmadd_pd(av0, _mm256_broadcast_sd(&*bq0), c0a);
            c1a = _mm256_fmadd_pd(av0, _mm256_broadcast_sd(&*bq0.add(1)), c1a);
            c2a = _mm256_fmadd_pd(av0, _mm256_broadcast_sd(&*bq0.add(2)), c2a);
            c3a = _mm256_fmadd_pd(av0, _mm256_broadcast_sd(&*bq0.add(3)), c3a);
            let av1 = _mm256_loadu_pd(ap.add((p + 1) * MR));
            let bq1 = bp.add((p + 1) * NR);
            c0b = _mm256_fmadd_pd(av1, _mm256_broadcast_sd(&*bq1), c0b);
            c1b = _mm256_fmadd_pd(av1, _mm256_broadcast_sd(&*bq1.add(1)), c1b);
            c2b = _mm256_fmadd_pd(av1, _mm256_broadcast_sd(&*bq1.add(2)), c2b);
            c3b = _mm256_fmadd_pd(av1, _mm256_broadcast_sd(&*bq1.add(3)), c3b);
            p += 2;
        }
        if p < kc {
            let av = _mm256_loadu_pd(ap.add(p * MR));
            let bq = bp.add(p * NR);
            c0a = _mm256_fmadd_pd(av, _mm256_broadcast_sd(&*bq), c0a);
            c1a = _mm256_fmadd_pd(av, _mm256_broadcast_sd(&*bq.add(1)), c1a);
            c2a = _mm256_fmadd_pd(av, _mm256_broadcast_sd(&*bq.add(2)), c2a);
            c3a = _mm256_fmadd_pd(av, _mm256_broadcast_sd(&*bq.add(3)), c3a);
        }
        _mm256_storeu_pd(acc[0].as_mut_ptr(), _mm256_add_pd(c0a, c0b));
        _mm256_storeu_pd(acc[1].as_mut_ptr(), _mm256_add_pd(c1a, c1b));
        _mm256_storeu_pd(acc[2].as_mut_ptr(), _mm256_add_pd(c2a, c2b));
        _mm256_storeu_pd(acc[3].as_mut_ptr(), _mm256_add_pd(c3a, c3b));
    }

    /// [`super::dgemm_packed_sub_scatter`] compiled for AVX2+FMA.
    ///
    /// # Safety
    /// Caller must ensure AVX2 and FMA are available (see [`has_fma`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn packed_sub_scatter_fma(
        m: usize,
        n: usize,
        k: usize,
        apack: &[f64],
        bpack: &[f64],
        dest: &mut [f64],
        to: &super::Scatter,
    ) -> f64 {
        super::packed_sub_scatter::<{ super::FMA }>(m, n, k, apack, bpack, dest, to)
    }

    /// [`super::dgemm_packed_sub_scatter`] compiled for AVX-512, pairing
    /// 4-row tiles into the 8×4 tiles of [`tile8_fma`].
    ///
    /// # Safety
    /// Caller must ensure [`has_avx512`].
    #[target_feature(
        enable = "avx2",
        enable = "fma",
        enable = "avx512f",
        enable = "avx512vl"
    )]
    pub unsafe fn packed_sub_scatter_avx512(
        m: usize,
        n: usize,
        k: usize,
        apack: &[f64],
        bpack: &[f64],
        dest: &mut [f64],
        to: &super::Scatter,
    ) -> f64 {
        super::packed_sub_scatter::<{ super::FMA8 }>(m, n, k, apack, bpack, dest, to)
    }

    /// Two vertically adjacent whole-depth tiles of [`tile_fma`] at once:
    /// `a` holds two consecutive packed A micro-panels (rows `0..4` and
    /// `4..8`), both multiplied by the same B micro-panel so every `B`
    /// broadcast feeds two FMAs. Each element runs exactly the FMA
    /// sequence of [`micro_4x4_fma`] (even depths into one accumulator
    /// bank, odd into the other, banks added at the end of a KC chunk,
    /// chunk tiles added onto `0.0` in order), so the bits are those of two
    /// [`tile_fma`] calls. The sixteen accumulators need AVX-512's 32
    /// vector registers.
    ///
    /// # Safety
    /// Caller must ensure [`has_avx512`], `a.len() == 2 * k * MR` and
    /// `b.len() == k * NR`.
    #[target_feature(
        enable = "avx2",
        enable = "fma",
        enable = "avx512f",
        enable = "avx512vl"
    )]
    pub unsafe fn tile8_fma(
        a: &[f64],
        b: &[f64],
        k: usize,
        kc_max: usize,
    ) -> ([[f64; MR]; NR], [[f64; MR]; NR]) {
        debug_assert!(a.len() == 2 * k * MR && b.len() == k * NR);
        let (a0, a1) = a.split_at(k * MR);
        let mut t0 = [_mm256_setzero_pd(); NR];
        let mut t1 = [_mm256_setzero_pd(); NR];
        let mut pc = 0usize;
        while pc < k {
            let kc = kc_max.min(k - pc);
            let (p0, p1, pb) = (
                a0.as_ptr().add(pc * MR),
                a1.as_ptr().add(pc * MR),
                b.as_ptr().add(pc * NR),
            );
            let mut ca0 = [_mm256_setzero_pd(); NR];
            let mut ca1 = [_mm256_setzero_pd(); NR];
            let mut cb0 = [_mm256_setzero_pd(); NR];
            let mut cb1 = [_mm256_setzero_pd(); NR];
            let mut p = 0usize;
            while p + 2 <= kc {
                let (x0, x1) = (
                    _mm256_loadu_pd(p0.add(p * MR)),
                    _mm256_loadu_pd(p1.add(p * MR)),
                );
                let (y0, y1) = (
                    _mm256_loadu_pd(p0.add((p + 1) * MR)),
                    _mm256_loadu_pd(p1.add((p + 1) * MR)),
                );
                for j in 0..NR {
                    let bj = _mm256_broadcast_sd(&*pb.add(p * NR + j));
                    ca0[j] = _mm256_fmadd_pd(x0, bj, ca0[j]);
                    ca1[j] = _mm256_fmadd_pd(x1, bj, ca1[j]);
                    let bj = _mm256_broadcast_sd(&*pb.add((p + 1) * NR + j));
                    cb0[j] = _mm256_fmadd_pd(y0, bj, cb0[j]);
                    cb1[j] = _mm256_fmadd_pd(y1, bj, cb1[j]);
                }
                p += 2;
            }
            if p < kc {
                let (x0, x1) = (
                    _mm256_loadu_pd(p0.add(p * MR)),
                    _mm256_loadu_pd(p1.add(p * MR)),
                );
                for j in 0..NR {
                    let bj = _mm256_broadcast_sd(&*pb.add(p * NR + j));
                    ca0[j] = _mm256_fmadd_pd(x0, bj, ca0[j]);
                    ca1[j] = _mm256_fmadd_pd(x1, bj, ca1[j]);
                }
            }
            for j in 0..NR {
                t0[j] = _mm256_add_pd(t0[j], _mm256_add_pd(ca0[j], cb0[j]));
                t1[j] = _mm256_add_pd(t1[j], _mm256_add_pd(ca1[j], cb1[j]));
            }
            pc += kc_max;
        }
        let mut out0 = [[0.0f64; MR]; NR];
        let mut out1 = [[0.0f64; MR]; NR];
        for j in 0..NR {
            _mm256_storeu_pd(out0[j].as_mut_ptr(), t0[j]);
            _mm256_storeu_pd(out1[j].as_mut_ptr(), t1[j]);
        }
        (out0, out1)
    }

    /// The whole-depth tile of [`super::dgemm_packed_sub_scatter`]: the
    /// KC-chunk tiles of [`micro_4x4_fma`] summed onto `0.0` in ascending
    /// depth, kept in registers across chunks.
    ///
    /// # Safety
    /// As [`micro_4x4_fma`], with `a.len() == k * MR`, `b.len() == k * NR`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tile_fma(a: &[f64], b: &[f64], k: usize, kc_max: usize) -> [[f64; MR]; NR] {
        let mut t = [_mm256_setzero_pd(); NR];
        let mut acc = [[0.0f64; MR]; NR];
        let mut pc = 0usize;
        while pc < k {
            let kc = kc_max.min(k - pc);
            micro_4x4_fma(
                &a[pc * MR..(pc + kc) * MR],
                &b[pc * NR..(pc + kc) * NR],
                &mut acc,
            );
            for (tj, aj) in t.iter_mut().zip(&acc) {
                *tj = _mm256_add_pd(*tj, _mm256_loadu_pd(aj.as_ptr()));
            }
            pc += kc_max;
        }
        for (aj, tj) in acc.iter_mut().zip(&t) {
            _mm256_storeu_pd(aj.as_mut_ptr(), *tj);
        }
        acc
    }
}

#[cfg(target_arch = "x86_64")]
fn has_fma() -> bool {
    x86::has_fma()
}

#[cfg(not(target_arch = "x86_64"))]
fn has_fma() -> bool {
    false
}

/// One register tile `ap · bp` over packed micro-panels of equal depth,
/// on the FMA micro-kernel when `fma` (runtime-detected) and the scalar
/// one otherwise.
#[inline(always)]
fn micro_tile(ap: &[f64], bp: &[f64], fma: bool) -> [[f64; MR]; NR] {
    let mut acc = [[0.0f64; MR]; NR];
    if fma {
        // SAFETY: `fma` comes from runtime AVX2+FMA detection; ap/bp are
        // full packed micro-panels of equal depth.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            x86::micro_4x4_fma(ap, bp, &mut acc)
        };
    } else {
        micro_4x4(ap, bp, &mut acc);
    }
    acc
}

/// The whole-depth register tile of [`dgemm_packed_sub_scatter`]: the
/// KC-chunk tiles of `ap · bp` (depth `k`) added in ascending order onto
/// `0.0` — per element exactly what [`gemm_blocked`]'s chunked write-back
/// into a zeroed `C` computes.
#[inline(always)]
fn tile_sum(ap: &[f64], bp: &[f64], k: usize, fma: bool) -> [[f64; MR]; NR] {
    if fma {
        // SAFETY: `fma` comes from runtime AVX2+FMA detection; ap/bp are
        // full packed micro-panels of depth k.
        #[cfg(target_arch = "x86_64")]
        return unsafe { x86::tile_fma(ap, bp, k, KC) };
    }
    let mut t = [[0.0f64; MR]; NR];
    let mut pc = 0usize;
    while pc < k {
        let kc = KC.min(k - pc);
        let acc = micro_tile(
            &ap[pc * MR..(pc + kc) * MR],
            &bp[pc * NR..(pc + kc) * NR],
            false,
        );
        for (tj, aj) in t.iter_mut().zip(&acc) {
            for (tv, &av) in tj.iter_mut().zip(aj) {
                *tv += av;
            }
        }
        pc += KC;
    }
    t
}

/// GEBP-blocked `C += alpha * A * B` (no beta handling, no flop
/// recording). Loop nest: NC columns of B → KC depth (pack B) → MC rows of
/// A (pack A) → NR×MR register tiles.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    let fma = has_fma();
    let mut jc = 0usize;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0usize;
        while pc < k {
            let kc = KC.min(k - pc);
            let bpack = ensure_len(
                &mut scratch.bpack,
                packed_b_len(kc, nc),
                &mut scratch.grow_events,
            );
            pack_b(kc, nc, &b[pc + jc * ldb..], ldb, bpack);
            let mut ic = 0usize;
            while ic < m {
                let mc = MC.min(m - ic);
                let apack = ensure_len(
                    &mut scratch.apack,
                    packed_a_len(mc, kc),
                    &mut scratch.grow_events,
                );
                pack_a(mc, kc, &a[ic + pc * lda..], lda, apack);
                let mut jr = 0usize;
                while jr < nc {
                    let nr = NR.min(nc - jr);
                    let bp = &bpack[(jr / NR) * kc * NR..][..kc * NR];
                    let mut ir = 0usize;
                    while ir < mc {
                        let mr = MR.min(mc - ir);
                        let ap = &apack[(ir / MR) * kc * MR..][..kc * MR];
                        let acc = micro_tile(ap, bp, fma);
                        // Write back only the valid mr × nr sub-tile.
                        for (j, accj) in acc.iter().enumerate().take(nr) {
                            let coff = (jc + jr + j) * ldc + ic + ir;
                            let ccol = &mut c[coff..coff + mr];
                            for (cv, &av) in ccol.iter_mut().zip(accj.iter()) {
                                *cv += alpha * av;
                            }
                        }
                        ir += MR;
                    }
                    jr += NR;
                }
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Where a product lands in a scatter-subtract: element `(r, c)` of an
/// `m × n` product is subtracted from
/// `dest[(rows[r] - row0) + (cols[c] - col0) * ld]` — so `rows`/`cols`
/// may hold global indices with the destination block's first index as
/// base, or block-local ones with base 0. A `u32::MAX` entry in `rows` or
/// `cols` marks a row or column with no destination slot; its values are
/// dropped, never written.
#[derive(Debug, Clone, Copy)]
pub struct Scatter<'a> {
    /// Destination row of each product row (`u32::MAX` = none).
    pub rows: &'a [u32],
    /// Subtracted from every destination row.
    pub row0: u32,
    /// Destination column of each product column (`u32::MAX` = none).
    pub cols: &'a [u32],
    /// Subtracted from every destination column.
    pub col0: u32,
    /// Leading dimension of the destination.
    pub ld: usize,
}

/// `dest[rows[r] + cols[c]·ld] -= A·B[r, c]` (less the [`Scatter`]
/// bases) for an `m × n` product of
/// depth `k` on the blocked path's arithmetic, straight from packed
/// operands (`apack` from [`pack_a`]`(m, k, …)`, `bpack` from
/// [`pack_b`]`(k, n, …)`): each register tile sums its KC chunks in
/// ascending depth and is subtracted from the destination in place, so
/// every element is bitwise what [`dgemm_with`] (`alpha = 1`, `beta = 0`)
/// into a buffer followed by `dest -= buffer` produces for this shape.
/// Returns the largest magnitude dropped at `u32::MAX` slots (callers whose
/// unmapped slots hold structural zeros check it is `0.0`).
///
/// Meant for shapes where [`gemm_uses_blocked_path`] holds; other shapes
/// belong on [`dgemm_naive`] + [`scatter_sub`], whose arithmetic differs.
pub fn dgemm_packed_sub_scatter(
    m: usize,
    n: usize,
    k: usize,
    apack: &[f64],
    bpack: &[f64],
    dest: &mut [f64],
    to: &Scatter,
) -> f64 {
    debug_assert!(apack.len() >= packed_a_len(m, k) && bpack.len() >= packed_b_len(k, n));
    debug_assert!(to.rows.len() >= m && to.cols.len() >= n);
    #[cfg(target_arch = "x86_64")]
    let dropped = if x86::has_avx512() {
        // SAFETY: gated on runtime AVX-512 F+VL (and AVX2+FMA) detection.
        unsafe { x86::packed_sub_scatter_avx512(m, n, k, apack, bpack, dest, to) }
    } else if has_fma() {
        // SAFETY: gated on runtime AVX2+FMA detection.
        unsafe { x86::packed_sub_scatter_fma(m, n, k, apack, bpack, dest, to) }
    } else {
        packed_sub_scatter::<SCALAR>(m, n, k, apack, bpack, dest, to)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let dropped = packed_sub_scatter::<SCALAR>(m, n, k, apack, bpack, dest, to);
    record(FlopClass::Blas3, (2 * m * n * k) as u64);
    dropped
}

/// Micro-kernels of a [`packed_sub_scatter`] copy: the scalar 4×4, the
/// AVX2+FMA 4×4, and the AVX-512 8×4 (two FMA 4×4 tiles at once).
const SCALAR: u8 = 0;
#[cfg(target_arch = "x86_64")]
const FMA: u8 = 1;
#[cfg(target_arch = "x86_64")]
const FMA8: u8 = 2;

/// The loop nest of [`dgemm_packed_sub_scatter`] on micro-kernel
/// `KERNEL`. Always inlined, so each SIMD entry point compiles the tiles
/// and their write-back as one routine for its instruction set.
#[inline(always)]
fn packed_sub_scatter<const KERNEL: u8>(
    m: usize,
    n: usize,
    k: usize,
    apack: &[f64],
    bpack: &[f64],
    dest: &mut [f64],
    to: &Scatter,
) -> f64 {
    let mut dropped = 0.0f64;
    // subtract the valid `mr × nr` part of a 4-row tile at (`ir`, `jr`)
    let mut write = |t: &[[f64; MR]; NR], ir: usize, mr: usize, jr: usize, nr: usize| {
        let rows = &to.rows[ir..ir + mr];
        // whole 4-row columns when the destination rows run
        // consecutively (the common dense-subrow case)
        let r0 = rows[0];
        let run = mr == MR
            && r0 < u32::MAX - 3
            && rows[MR - 1] == r0 + 3
            && rows[1] == r0 + 1
            && rows[2] == r0 + 2;
        for (tj, &c) in t.iter().take(nr).zip(&to.cols[jr..]) {
            if c == u32::MAX {
                dropped = tj[..mr].iter().fold(dropped, |d, v| d.max(v.abs()));
                continue;
            }
            let col = (c - to.col0) as usize * to.ld;
            if run {
                let d0 = col + (r0 - to.row0) as usize;
                let d = &mut dest[d0..d0 + MR];
                for (dv, &tv) in d.iter_mut().zip(tj) {
                    *dv -= tv;
                }
                continue;
            }
            for (&tv, &r) in tj[..mr].iter().zip(rows) {
                if r == u32::MAX {
                    dropped = dropped.max(tv.abs());
                } else {
                    dest[col + (r - to.row0) as usize] -= tv;
                }
            }
        }
    };
    let mut ic = 0usize;
    while ic < m {
        let mc = MC.min(m - ic);
        let mut jr = 0usize;
        while jr < n {
            let nr = NR.min(n - jr);
            let bp = &bpack[(jr / NR) * k * NR..][..k * NR];
            let mut ir = ic;
            while ir < ic + mc {
                #[cfg(target_arch = "x86_64")]
                if KERNEL == FMA8 && ir + 2 * MR <= ic + mc {
                    let ap = &apack[(ir / MR) * k * MR..][..2 * k * MR];
                    // SAFETY: this copy runs only inside the AVX-512
                    // entry point; `ap` is two full panels of depth k.
                    let (t0, t1) = unsafe { x86::tile8_fma(ap, bp, k, KC) };
                    write(&t0, ir, MR, jr, nr);
                    write(&t1, ir + MR, MR, jr, nr);
                    ir += 2 * MR;
                    continue;
                }
                let mr = MR.min(ic + mc - ir);
                let ap = &apack[(ir / MR) * k * MR..][..k * MR];
                // the product `dgemm_with` leaves in a zeroed buffer: the
                // KC-chunk tiles added in order onto 0.0
                let t = tile_sum(ap, bp, k, KERNEL != SCALAR);
                write(&t, ir, mr, jr, nr);
                ir += MR;
            }
            jr += NR;
        }
        ic += MC;
    }
    dropped
}

/// `dest[rows[r] + cols[c]·ld] -= src[r + c·lds]` (less the [`Scatter`]
/// bases) over an `m × n` block
/// (the write-back of a product computed into a buffer). Returns the
/// largest magnitude dropped at `u32::MAX` slots, like
/// [`dgemm_packed_sub_scatter`].
pub fn scatter_sub(
    m: usize,
    n: usize,
    src: &[f64],
    lds: usize,
    dest: &mut [f64],
    to: &Scatter,
) -> f64 {
    let mut dropped = 0.0f64;
    for (c, &dc) in to.cols[..n].iter().enumerate() {
        let scol = &src[c * lds..c * lds + m];
        if dc == u32::MAX {
            dropped = scol.iter().fold(dropped, |d, v| d.max(v.abs()));
            continue;
        }
        let col = (dc - to.col0) as usize * to.ld;
        for (&v, &r) in scol.iter().zip(&to.rows[..m]) {
            if r == u32::MAX {
                dropped = dropped.max(v.abs());
            } else {
                dest[col + (r - to.row0) as usize] -= v;
            }
        }
    }
    dropped
}

/// The sparse-LU update form `C -= A * B` (i.e. `dgemm` with `alpha = -1`,
/// `beta = 1`).
#[inline]
#[allow(clippy::too_many_arguments)] // BLAS reference signature
pub fn dgemm_update(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    dgemm(m, n, k, -1.0, a, lda, b, ldb, 1.0, c, ldc);
}

/// [`dgemm_update`] with an explicit pack-buffer arena.
#[inline]
#[allow(clippy::too_many_arguments)] // BLAS reference signature
pub fn dgemm_update_with(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
    scratch: &mut GemmScratch,
) {
    dgemm_with(m, n, k, -1.0, a, lda, b, ldb, 1.0, c, ldc, scratch);
}

/// Diagonal-block size for the blocked triangular solves: panels at most
/// this tall are solved directly; taller ones are split into TB-row
/// diagonal solves plus rank-TB GEMM updates of the remainder.
const TB: usize = 48;

/// Solve `L X = B` in place (`B` is overwritten with `X`), where `L` is the
/// unit lower triangle of the `m × m` panel `l` (column-major, leading
/// dimension `ldl`) and `B` is `m × n` (column-major, leading dimension
/// `ldb`). Only the strict lower part of `l` is referenced.
///
/// This is the BLAS-3 form of line 5 in `Update(k, j)` (Fig. 8): scaling a
/// whole U block by the inverse of the diagonal supernode's unit-lower
/// factor in one call. Right-hand sides are processed four columns at a
/// time so each loaded `L` column is applied to four solves, and panels
/// taller than [`TB`] are cache-blocked (diagonal solve + GEMM update).
pub fn dtrsm_left_lower_unit(m: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
    debug_assert!(ldl >= m.max(1) && ldb >= m.max(1));
    // Factorization panels (m ≤ block size) take the direct path; only the
    // tall multi-RHS solve panels pay the strip copy of the blocked path.
    let mut xstrip: Vec<f64> = Vec::new();
    let mut pb = 0usize;
    while pb < m {
        let tb = TB.min(m - pb);
        // Solve the tb × tb unit-lower diagonal block against all RHS.
        let ldiag = &l[pb + pb * ldl..];
        let mut j = 0usize;
        while j < n {
            let jn = (n - j).min(4);
            if jn == 4 {
                trsm_lower_cols4(tb, ldiag, ldl, b, ldb, pb, j);
            } else {
                for jj in j..j + jn {
                    trsm_lower_col1(tb, ldiag, ldl, &mut b[jj * ldb + pb..jj * ldb + pb + tb]);
                }
            }
            j += jn;
        }
        // Eliminate the solved rows from the remainder: B2 -= L21 * X1.
        // X1 is copied out so the GEMM sources and destination rows of B
        // never alias.
        let rem = m - pb - tb;
        if rem > 0 {
            xstrip.resize(tb * n, 0.0);
            for jj in 0..n {
                xstrip[jj * tb..(jj + 1) * tb]
                    .copy_from_slice(&b[jj * ldb + pb..jj * ldb + pb + tb]);
            }
            gemm_axpy(
                rem,
                n,
                tb,
                -1.0,
                &l[pb + tb + pb * ldl..],
                ldl,
                &xstrip,
                tb,
                &mut b[pb + tb..],
                ldb,
            );
        }
        pb += tb;
    }
    record(FlopClass::Blas3, (m * m * n) as u64);
}

/// One forward-substitution column against the unit-lower block.
#[inline]
fn trsm_lower_col1(m: usize, l: &[f64], ldl: usize, bcol: &mut [f64]) {
    for p in 0..m {
        let xp = bcol[p];
        if xp != 0.0 {
            let lcol = &l[p * ldl + p + 1..p * ldl + m];
            for (bv, &lv) in bcol[p + 1..m].iter_mut().zip(lcol.iter()) {
                *bv -= lv * xp;
            }
        }
    }
}

/// Four forward-substitution columns in one pass: each `L` column is
/// loaded once and applied to four right-hand sides (identical per-column
/// arithmetic to [`trsm_lower_col1`]).
#[inline]
fn trsm_lower_cols4(
    m: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
    row0: usize,
    j: usize,
) {
    for p in 0..m {
        let base = |jj: usize| (j + jj) * ldb + row0;
        let x = [
            b[base(0) + p],
            b[base(1) + p],
            b[base(2) + p],
            b[base(3) + p],
        ];
        if x == [0.0; 4] {
            continue;
        }
        let lcol = &l[p * ldl + p + 1..p * ldl + m];
        for (i, &lv) in lcol.iter().enumerate() {
            let r = p + 1 + i;
            b[base(0) + r] -= lv * x[0];
            b[base(1) + r] -= lv * x[1];
            b[base(2) + r] -= lv * x[2];
            b[base(3) + r] -= lv * x[3];
        }
    }
}

/// Solve `U X = B` in place (`B` is overwritten with `X`), where `U` is
/// the non-unit upper triangle of the `m × m` panel `u` (column-major,
/// leading dimension `ldu`) and `B` is `m × n` (column-major, leading
/// dimension `ldb`). Only the upper part of `u` (diagonal included) is
/// referenced.
///
/// This is the block back-substitution kernel of the batched multi-RHS
/// solve: one diagonal supernode applied to a whole panel of right-hand
/// sides. Blocked like [`dtrsm_left_lower_unit`], proceeding bottom-up.
///
/// # Panics
/// Panics if a diagonal entry of `U` is exactly zero.
pub fn dtrsm_left_upper(m: usize, n: usize, u: &[f64], ldu: usize, b: &mut [f64], ldb: usize) {
    debug_assert!(ldu >= m.max(1) && ldb >= m.max(1));
    let mut xstrip: Vec<f64> = Vec::new();
    let nblk = m.div_ceil(TB);
    for bi in (0..nblk).rev() {
        let pb = bi * TB;
        let tb = TB.min(m - pb);
        // Solve the tb × tb upper diagonal block against all RHS.
        let udiag = &u[pb + pb * ldu..];
        for j in 0..n {
            let bcol = &mut b[j * ldb + pb..j * ldb + pb + tb];
            for p in (0..tb).rev() {
                let d = udiag[p + p * ldu];
                assert!(d != 0.0, "zero U diagonal at local row {}", pb + p);
                let xp = bcol[p] / d;
                bcol[p] = xp;
                if xp != 0.0 {
                    let ucol = &udiag[p * ldu..p * ldu + p];
                    for (bv, &uv) in bcol[..p].iter_mut().zip(ucol.iter()) {
                        *bv -= uv * xp;
                    }
                }
            }
        }
        // Eliminate the solved rows from the rows above: B1 -= U12 * X2
        // (X2 copied out so the GEMM never aliases its destination).
        if pb > 0 {
            xstrip.resize(tb * n, 0.0);
            for jj in 0..n {
                xstrip[jj * tb..(jj + 1) * tb]
                    .copy_from_slice(&b[jj * ldb + pb..jj * ldb + pb + tb]);
            }
            gemm_axpy(pb, n, tb, -1.0, &u[pb * ldu..], ldu, &xstrip, tb, b, ldb);
        }
    }
    record(FlopClass::Blas3, (m * m * n) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas2::{dtrsv_lower_unit, dtrsv_upper};
    use crate::matrix::DenseMat;

    fn dgemm_full(a: &DenseMat, b: &DenseMat, alpha: f64, beta: f64, c: &mut DenseMat) {
        let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
        let (lda, ldb, ldc) = (a.lda(), b.lda(), c.lda());
        dgemm(
            m,
            n,
            k,
            alpha,
            a.as_slice(),
            lda,
            b.as_slice(),
            ldb,
            beta,
            c.as_mut_slice(),
            ldc,
        );
    }

    #[test]
    fn dgemm_matches_oracle_various_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 2, 4),
            (5, 5, 5),
            (7, 4, 2),
            (8, 9, 3),
            (13, 6, 11),
        ] {
            let a = DenseMat::from_fn(m, k, |i, j| (i as f64 + 1.0) * 0.7 - j as f64 * 0.3);
            let b = DenseMat::from_fn(k, n, |i, j| (j as f64 + 1.0) * 0.2 + i as f64 * 0.9);
            let mut c = DenseMat::from_fn(m, n, |i, j| (i + j) as f64);
            let oracle = {
                let ab = a.matmul(&b);
                DenseMat::from_fn(m, n, |i, j| 2.0 * ab[(i, j)] + 0.5 * c[(i, j)])
            };
            dgemm_full(&a, &b, 2.0, 0.5, &mut c);
            assert!(
                c.sub(&oracle).max_abs() < 1e-10,
                "mismatch at shape ({m},{k},{n})"
            );
        }
    }

    /// Shapes that exercise the blocked path, including fringe tiles not
    /// divisible by the 4×4 micro-kernel and blocks crossing MC/KC/NC.
    #[test]
    fn dgemm_blocked_matches_naive_various_shapes() {
        for &(m, k, n) in &[
            (8, 8, 8),
            (9, 11, 10),
            (13, 9, 17),
            (37, 53, 41),
            (65, 193, 12),
            (70, 30, 70),
            (130, 200, 9),
        ] {
            let a = DenseMat::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 * 0.4 - 3.0);
            let b = DenseMat::from_fn(k, n, |i, j| ((i * 13 + j * 29) % 19) as f64 * 0.3 - 2.0);
            let mut c = DenseMat::from_fn(m, n, |i, j| (i as f64) - 0.5 * (j as f64));
            let mut c2 = c.clone();
            let (lda, ldb, ldc) = (a.lda(), b.lda(), c.lda());
            dgemm(
                m,
                n,
                k,
                1.5,
                a.as_slice(),
                lda,
                b.as_slice(),
                ldb,
                0.5,
                c.as_mut_slice(),
                ldc,
            );
            dgemm_naive(
                m,
                n,
                k,
                1.5,
                a.as_slice(),
                lda,
                b.as_slice(),
                ldb,
                0.5,
                c2.as_mut_slice(),
                ldc,
            );
            let scale = (k as f64) * 10.0;
            assert!(
                c.sub(&c2).max_abs() < 1e-12 * scale,
                "blocked vs naive mismatch at shape ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn dgemm_with_reuses_scratch_without_growth() {
        let mut scratch = GemmScratch::new();
        let m = 40;
        let a = DenseMat::from_fn(m, m, |i, j| (i as f64 - j as f64) * 0.01);
        let b = DenseMat::from_fn(m, m, |i, j| (i as f64 + j as f64) * 0.02);
        let mut c = DenseMat::zeros(m, m);
        for round in 0..5 {
            dgemm_with(
                m,
                m,
                m,
                1.0,
                a.as_slice(),
                m,
                b.as_slice(),
                m,
                0.0,
                c.as_mut_slice(),
                m,
                &mut scratch,
            );
            if round == 0 {
                assert!(scratch.grow_events() > 0, "first call must size the packs");
                assert!(scratch.peak_bytes() > 0);
            }
        }
        // after the first call the packs are warm: no further growth
        let after_first = {
            let mut s2 = GemmScratch::new();
            dgemm_with(
                m,
                m,
                m,
                1.0,
                a.as_slice(),
                m,
                b.as_slice(),
                m,
                0.0,
                c.as_mut_slice(),
                m,
                &mut s2,
            );
            s2.grow_events()
        };
        assert_eq!(
            scratch.grow_events(),
            after_first,
            "steady-state dgemm_with must not grow the pack buffers"
        );
    }

    #[test]
    fn dgemm_edge_vectors_and_empty_k() {
        // m = 1 (row vector result), n = 1 (column), k = 0 (pure scaling)
        let a = DenseMat::from_fn(1, 6, |_, j| j as f64 + 1.0);
        let b = DenseMat::from_fn(6, 3, |i, j| (i + j) as f64 * 0.5);
        let mut c = DenseMat::from_fn(1, 3, |_, _| 7.0);
        dgemm_full(&a, &b, 1.0, 1.0, &mut c);
        for j in 0..3 {
            let want: f64 = (0..6)
                .map(|p| (p as f64 + 1.0) * ((p + j) as f64 * 0.5))
                .sum();
            assert!((c[(0, j)] - (7.0 + want)).abs() < 1e-12);
        }

        let a = DenseMat::from_fn(5, 4, |i, j| (i * 4 + j) as f64);
        let b = DenseMat::from_fn(4, 1, |i, _| i as f64 - 1.5);
        let mut c = DenseMat::zeros(5, 1);
        dgemm_full(&a, &b, 2.0, 0.0, &mut c);
        for i in 0..5 {
            let want: f64 = 2.0
                * (0..4)
                    .map(|p| ((i * 4 + p) as f64) * (p as f64 - 1.5))
                    .sum::<f64>();
            assert!((c[(i, 0)] - want).abs() < 1e-10);
        }

        // k = 0: C is only scaled, for both dgemm and dgemm_update
        let mut c = DenseMat::from_fn(3, 3, |i, j| (i + j) as f64 + 1.0);
        let c0 = c.clone();
        let ldc = c.lda();
        dgemm(3, 3, 0, 1.0, &[], 3, &[], 1, 0.5, c.as_mut_slice(), ldc);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c[(i, j)], 0.5 * c0[(i, j)]);
            }
        }
        let mut c = c0.clone();
        dgemm_update(3, 3, 0, &[], 3, &[], 1, c.as_mut_slice(), ldc);
        assert!(c.sub(&c0).max_abs() == 0.0, "k = 0 update is a no-op");
    }

    #[test]
    fn dgemm_beta_zero_clears_nan() {
        let a = DenseMat::identity(2);
        let b = DenseMat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut c = DenseMat::from_fn(2, 2, |_, _| f64::NAN);
        dgemm_full(&a, &b, 1.0, 0.0, &mut c);
        assert!(c.sub(&b).max_abs() == 0.0);
    }

    #[test]
    fn dgemm_blocked_beta_zero_clears_nan() {
        let n = 16;
        let a = DenseMat::identity(n);
        let b = DenseMat::from_fn(n, n, |i, j| (i * n + j) as f64);
        let mut c = DenseMat::from_fn(n, n, |_, _| f64::NAN);
        dgemm_full(&a, &b, 1.0, 0.0, &mut c);
        assert!(c.sub(&b).max_abs() == 0.0);
    }

    #[test]
    fn dgemm_k_zero_only_scales() {
        let a = DenseMat::zeros(2, 0);
        let b = DenseMat::zeros(0, 2);
        let mut c = DenseMat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        dgemm_full(&a, &b, 1.0, 2.0, &mut c);
        assert_eq!(c[(1, 1)], 8.0);
    }

    #[test]
    fn dgemm_update_subtracts() {
        let a = DenseMat::from_rows(&[vec![1.0], vec![2.0]]);
        let b = DenseMat::from_rows(&[vec![3.0, 4.0]]);
        let mut c = DenseMat::from_rows(&[vec![10.0, 10.0], vec![10.0, 10.0]]);
        let ldc = c.lda();
        dgemm_update(
            2,
            2,
            1,
            a.as_slice(),
            2,
            b.as_slice(),
            1,
            c.as_mut_slice(),
            ldc,
        );
        assert_eq!(c[(0, 0)], 7.0);
        assert_eq!(c[(1, 1)], 2.0);
    }

    #[test]
    fn dgemm_respects_leading_dimensions() {
        // Embed a 2x2 problem in 5x5 storage.
        let mut astore = vec![0.0; 25];
        let mut bstore = vec![0.0; 25];
        let mut cstore = vec![0.0; 25];
        // A = [[1,2],[3,4]] col-major with lda=5
        astore[0] = 1.0;
        astore[1] = 3.0;
        astore[5] = 2.0;
        astore[6] = 4.0;
        // B = I
        bstore[0] = 1.0;
        bstore[6] = 1.0;
        dgemm(2, 2, 2, 1.0, &astore, 5, &bstore, 5, 0.0, &mut cstore, 5);
        assert_eq!(cstore[0], 1.0);
        assert_eq!(cstore[1], 3.0);
        assert_eq!(cstore[5], 2.0);
        assert_eq!(cstore[6], 4.0);
        // cells outside the 2x2 target untouched
        assert_eq!(cstore[2], 0.0);
        assert_eq!(cstore[10], 0.0);
    }

    #[test]
    fn dgemm_blocked_respects_leading_dimensions() {
        // Embed a 12x12 problem (blocked path) in 20x20 storage and verify
        // cells outside the target window stay untouched.
        let (m, n, k, ld) = (12usize, 12usize, 12usize, 20usize);
        let mut astore = vec![0.0; ld * ld];
        let mut bstore = vec![0.0; ld * ld];
        let mut cstore = vec![-1.0; ld * ld];
        for j in 0..k {
            for i in 0..m {
                astore[i + j * ld] = (i * 3 + j) as f64 * 0.1;
            }
        }
        for j in 0..n {
            for i in 0..k {
                bstore[i + j * ld] = (i + j * 5) as f64 * 0.2;
            }
        }
        let mut want = vec![0.0; m * n];
        dgemm_naive(m, n, k, 1.0, &astore, ld, &bstore, ld, 0.0, &mut want, m);
        dgemm(m, n, k, 1.0, &astore, ld, &bstore, ld, 0.0, &mut cstore, ld);
        for j in 0..n {
            for i in 0..m {
                let got = cstore[i + j * ld];
                assert!((got - want[i + j * m]).abs() < 1e-9, "({i},{j})");
            }
        }
        // a row below the window and a column right of it are untouched
        for j in 0..n {
            assert_eq!(cstore[m + j * ld], -1.0);
        }
        assert_eq!(cstore[n * ld], -1.0);
    }

    #[test]
    fn trsm_matches_repeated_trsv() {
        let m = 6;
        let n = 4;
        let l = DenseMat::from_fn(m, m, |i, j| {
            if i > j {
                ((i * 7 + j * 3) % 5) as f64 * 0.25 - 0.5
            } else if i == j {
                1.0
            } else {
                f64::NAN // must not be referenced
            }
        });
        let b0 = DenseMat::from_fn(m, n, |i, j| (i as f64 - j as f64) * 0.5 + 1.0);
        let mut b = b0.clone();
        let ldb = b.lda();
        dtrsm_left_lower_unit(m, n, l.as_slice(), m, b.as_mut_slice(), ldb);
        for j in 0..n {
            let mut x = b0.col(j).to_vec();
            dtrsv_lower_unit(m, l.as_slice(), m, &mut x);
            for i in 0..m {
                assert!((b[(i, j)] - x[i]).abs() < 1e-12);
            }
        }
    }

    /// Exercise the TB-blocked path (m > TB) of both triangular solves.
    #[test]
    fn trsm_blocked_tall_panels_match_trsv() {
        let m = TB * 2 + 7;
        let n = 5;
        let l = DenseMat::from_fn(m, m, |i, j| {
            if i > j {
                (((i * 7 + j * 3) % 9) as f64 - 4.0) * 0.05
            } else if i == j {
                1.0
            } else {
                f64::NAN // must not be referenced
            }
        });
        let b0 = DenseMat::from_fn(m, n, |i, j| ((i + 2 * j) % 11) as f64 * 0.3 - 1.0);
        let mut b = b0.clone();
        let ldb = b.lda();
        dtrsm_left_lower_unit(m, n, l.as_slice(), m, b.as_mut_slice(), ldb);
        for j in 0..n {
            let mut x = b0.col(j).to_vec();
            dtrsv_lower_unit(m, l.as_slice(), m, &mut x);
            for i in 0..m {
                assert!((b[(i, j)] - x[i]).abs() < 1e-9, "L: ({i},{j})");
            }
        }

        let u = DenseMat::from_fn(m, m, |i, j| {
            if i < j {
                (((i * 5 + j * 11) % 7) as f64 - 3.0) * 0.04
            } else if i == j {
                1.5 + ((i % 4) as f64) * 0.25
            } else {
                f64::NAN // must not be referenced
            }
        });
        let mut b = b0.clone();
        dtrsm_left_upper(m, n, u.as_slice(), m, b.as_mut_slice(), ldb);
        for j in 0..n {
            let mut x = b0.col(j).to_vec();
            dtrsv_upper(m, u.as_slice(), m, &mut x);
            for i in 0..m {
                assert!((b[(i, j)] - x[i]).abs() < 1e-9, "U: ({i},{j})");
            }
        }
    }

    #[test]
    fn trsm_upper_matches_repeated_trsv_upper() {
        let m = 6;
        let n = 4;
        let u = DenseMat::from_fn(m, m, |i, j| {
            if i < j {
                ((i * 5 + j * 11) % 7) as f64 * 0.3 - 0.8
            } else if i == j {
                1.5 + (i as f64) * 0.25
            } else {
                f64::NAN // must not be referenced
            }
        });
        let b0 = DenseMat::from_fn(m, n, |i, j| (i as f64 + 2.0 * j as f64) * 0.4 - 1.0);
        let mut b = b0.clone();
        let ldb = b.lda();
        dtrsm_left_upper(m, n, u.as_slice(), m, b.as_mut_slice(), ldb);
        for j in 0..n {
            let mut x = b0.col(j).to_vec();
            dtrsv_upper(m, u.as_slice(), m, &mut x);
            for i in 0..m {
                assert!((b[(i, j)] - x[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn flop_counter_records_blas3() {
        use crate::flops::{thread_count, FlopClass};
        let before = thread_count(FlopClass::Blas3);
        let a = DenseMat::identity(4);
        let b = DenseMat::identity(4);
        let mut c = DenseMat::zeros(4, 4);
        dgemm_full(&a, &b, 1.0, 0.0, &mut c);
        assert_eq!(thread_count(FlopClass::Blas3) - before, 2 * 4 * 4 * 4);
    }

    /// Blocked trsm must not double-count the internal GEMM flops.
    #[test]
    fn flop_counter_trsm_blocked_counts_once() {
        use crate::flops::{thread_count, FlopClass};
        let m = TB + 5;
        let n = 3;
        let l = DenseMat::from_fn(m, m, |i, j| {
            if i > j {
                0.01
            } else if i == j {
                1.0
            } else {
                0.0
            }
        });
        let mut b = DenseMat::from_fn(m, n, |i, j| (i + j) as f64);
        let ldb = b.lda();
        let before = thread_count(FlopClass::Blas3);
        dtrsm_left_lower_unit(m, n, l.as_slice(), m, b.as_mut_slice(), ldb);
        assert_eq!(thread_count(FlopClass::Blas3) - before, (m * m * n) as u64);
    }

    /// The update-stage kernel pair for one product: the fused packed
    /// path on blocked shapes, `dgemm_naive` into a buffer + `scatter_sub`
    /// otherwise. Returns the dropped magnitude.
    #[allow(clippy::too_many_arguments)]
    fn update_sub(
        m: usize,
        n: usize,
        k: usize,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        dest: &mut [f64],
        to: &Scatter,
    ) -> f64 {
        if gemm_uses_blocked_path(m, n, k) {
            let mut ap = vec![f64::NAN; packed_a_len(m, k)];
            let mut bp = vec![f64::NAN; packed_b_len(k, n)];
            pack_a(m, k, a, lda, &mut ap);
            pack_b(k, n, b, ldb, &mut bp);
            dgemm_packed_sub_scatter(m, n, k, &ap, &bp, dest, to)
        } else {
            let mut t = vec![f64::NAN; m * n];
            dgemm_naive(m, n, k, 1.0, a, lda, b, ldb, 0.0, &mut t, m);
            scatter_sub(m, n, &t, m, dest, to)
        }
    }

    /// Destination maps of two kinds inside a taller, wider destination,
    /// as a [`Scatter`]'s `(rows, cols, ld, base)` with `row0 = col0 =
    /// base`: `reversed` puts block-local rows in reverse order and marks
    /// every third row and every fourth column `u32::MAX` (no slot);
    /// otherwise rows run consecutively (whole-column tiles) as global
    /// indices above base 100, except that row 5 has no slot, and only the
    /// second column has none.
    fn scatter_maps(m: usize, n: usize, reversed: bool) -> (Vec<u32>, Vec<u32>, usize, u32) {
        let base = if reversed { 0 } else { 100 };
        let rows = (0..m)
            .map(|r| match reversed {
                true if r % 3 == 2 => u32::MAX,
                true => (m - 1 - r + 2) as u32,
                false if r == 5 => u32::MAX,
                false => (r + 2) as u32 + base,
            })
            .collect();
        let cols = (0..n)
            .map(|c| match reversed {
                true if c % 4 == 3 => u32::MAX,
                false if c == 1 => u32::MAX,
                _ => (2 * c + 1) as u32 + base,
            })
            .collect();
        (rows, cols, m + 5, base)
    }

    /// The fused path is bitwise `dgemm_with` into a buffer followed by an
    /// explicit scatter-subtract, on both sides of the blocked boundary
    /// and across a KC chunk boundary; unmapped slots are never written.
    #[test]
    fn fused_update_matches_dgemm_with_then_scatter_bitwise() {
        let dims: Vec<usize> = (1..=9).chain([25]).collect();
        for &k in &[8usize, 25, KC + 1] {
            for (&m, &n, reversed) in dims
                .iter()
                .flat_map(|m| dims.iter().map(move |n| (m, n)))
                .flat_map(|(m, n)| [(m, n, true), (m, n, false)])
            {
                let a = DenseMat::from_fn(m, k, |i, p| ((i * 7 + p * 13) % 17) as f64 / 7.0 - 1.1);
                let b = DenseMat::from_fn(k, n, |p, j| ((p * 5 + j * 11) % 19) as f64 / 9.0 - 0.9);
                let (rows, cols, ld, base) = scatter_maps(m, n, reversed);
                let to = Scatter {
                    rows: &rows,
                    row0: base,
                    cols: &cols,
                    col0: base,
                    ld,
                };
                let ncols = 2 * n + 1;
                let dest0: Vec<f64> = (0..ld * ncols)
                    .map(|x| (x % 23) as f64 * 0.25 - 2.0)
                    .collect();

                // reference: dgemm_with into a zeroed buffer, then scatter by hand
                let mut prod = vec![0.0; m * n];
                dgemm_with(
                    m,
                    n,
                    k,
                    1.0,
                    a.as_slice(),
                    m,
                    b.as_slice(),
                    k,
                    0.0,
                    &mut prod,
                    m,
                    &mut GemmScratch::new(),
                );
                let mut want = dest0.clone();
                for c in 0..n {
                    for r in 0..m {
                        if rows[r] != u32::MAX && cols[c] != u32::MAX {
                            let (dr, dc) = ((rows[r] - base) as usize, (cols[c] - base) as usize);
                            want[dr + dc * ld] -= prod[r + c * m];
                        }
                    }
                }

                let mut got = dest0.clone();
                let dropped = update_sub(m, n, k, a.as_slice(), m, b.as_slice(), k, &mut got, &to);
                for (x, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "({m},{n},{k}) dest[{x}]: {g:e} vs {w:e}"
                    );
                }
                // untouched slots keep their bits (covered above), and
                // the dropped magnitude is that of the unmapped products
                let mut want_dropped = 0.0f64;
                for c in 0..n {
                    for r in 0..m {
                        if rows[r] == u32::MAX || cols[c] == u32::MAX {
                            want_dropped = want_dropped.max(prod[r + c * m].abs());
                        }
                    }
                }
                assert_eq!(
                    dropped.to_bits(),
                    want_dropped.to_bits(),
                    "({m},{n},{k}) dropped"
                );
            }
        }
    }

    /// Every SIMD copy of the fused kernel gives the same bits: the entry
    /// point (8×4 tiles on an AVX-512 host) against the AVX2 4×4 copy that
    /// hosts without AVX-512 run, across the MC row-block boundary and a KC
    /// chunk boundary.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fused_update_simd_copies_agree_bitwise() {
        if !has_fma() {
            return;
        }
        for &(m, n, k) in &[(8, 8, 8), (25, 25, 25), (13, 9, KC + 1), (MC + 9, 10, 25)] {
            let a = DenseMat::from_fn(m, k, |i, p| ((i * 3 + p * 7) % 11) as f64 / 3.0 - 1.7);
            let b = DenseMat::from_fn(k, n, |p, j| ((p * 5 + j * 2) % 13) as f64 / 5.0 - 1.3);
            let mut ap = vec![0.0; packed_a_len(m, k)];
            let mut bp = vec![0.0; packed_b_len(k, n)];
            pack_a(m, k, a.as_slice(), m, &mut ap);
            pack_b(k, n, b.as_slice(), k, &mut bp);
            let (rows, cols, ld, base) = scatter_maps(m, n, false);
            let to = Scatter {
                rows: &rows,
                row0: base,
                cols: &cols,
                col0: base,
                ld,
            };
            let dest0: Vec<f64> = (0..ld * (2 * n + 1))
                .map(|x| (x % 9) as f64 - 4.0)
                .collect();
            let mut got = dest0.clone();
            dgemm_packed_sub_scatter(m, n, k, &ap, &bp, &mut got, &to);
            let mut avx2 = dest0.clone();
            // SAFETY: guarded by has_fma() above.
            unsafe { x86::packed_sub_scatter_fma(m, n, k, &ap, &bp, &mut avx2, &to) };
            for (x, (g, w)) in got.iter().zip(&avx2).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "({m},{n},{k}) dest[{x}]");
            }
        }
    }

    /// A destination holding only the mapped slots: any write through a
    /// `u32::MAX` row or column would index past it and panic.
    #[test]
    fn fused_update_never_writes_unmapped_slots() {
        let (m, n, k) = (13usize, 10usize, 25usize);
        let a = DenseMat::from_fn(m, k, |i, p| (i + p) as f64);
        let b = DenseMat::from_fn(k, n, |p, j| (p * j + 1) as f64);
        let rows: Vec<u32> = (0..m)
            .map(|r| if r % 2 == 0 { (r / 2) as u32 } else { u32::MAX })
            .collect();
        let cols: Vec<u32> = (0..n)
            .map(|c| if c < 4 { c as u32 } else { u32::MAX })
            .collect();
        let to = Scatter {
            rows: &rows,
            row0: 0,
            cols: &cols,
            col0: 0,
            ld: m.div_ceil(2),
        };
        let mut dest = vec![0.0; m.div_ceil(2) * 4];
        let dropped = update_sub(m, n, k, a.as_slice(), m, b.as_slice(), k, &mut dest, &to);
        assert!(dropped > 0.0);
        assert!(
            dest.iter().all(|v| *v != 0.0),
            "every mapped slot was written"
        );
    }

    /// The fused kernel records its `2·m·n·k` flops exactly once per call.
    #[test]
    fn fused_update_counts_flops_once() {
        use crate::flops::{thread_count, FlopClass};
        let (m, n, k) = (25usize, 9usize, KC + 1);
        let a = DenseMat::from_fn(m, k, |i, p| (i as f64) - p as f64);
        let b = DenseMat::from_fn(k, n, |p, j| (p + j) as f64 * 0.5);
        let mut ap = vec![0.0; packed_a_len(m, k)];
        let mut bp = vec![0.0; packed_b_len(k, n)];
        pack_a(m, k, a.as_slice(), m, &mut ap);
        pack_b(k, n, b.as_slice(), k, &mut bp);
        let rows: Vec<u32> = (0..m as u32).collect();
        let cols: Vec<u32> = (0..n as u32).collect();
        let mut dest = vec![0.0; m * n];
        let to = Scatter {
            rows: &rows,
            row0: 0,
            cols: &cols,
            col0: 0,
            ld: m,
        };
        let before = thread_count(FlopClass::Blas3);
        dgemm_packed_sub_scatter(m, n, k, &ap, &bp, &mut dest, &to);
        assert_eq!(
            thread_count(FlopClass::Blas3) - before,
            (2 * m * n * k) as u64
        );
        let before = thread_count(FlopClass::Blas3);
        scatter_sub(m, n, &ap, m, &mut dest, &to);
        assert_eq!(
            thread_count(FlopClass::Blas3),
            before,
            "a scatter is not a product"
        );
    }
}
