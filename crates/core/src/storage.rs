//! Dense-block storage of the 2D-partitioned matrix.
//!
//! Each column block `J` owns:
//!
//! * the `w × w` **diagonal panel** (L's unit-lower part and U's upper part
//!   packed together, unit diagonal implicit in L),
//! * one **packed L panel**: all present subrows of all L blocks below the
//!   diagonal, concatenated in increasing global-row order (each L block is
//!   a contiguous segment) — `Factor(k)` treats diag + L panel as one tall
//!   dense panel,
//! * one **masked U panel** per U block `(K, J)` above the diagonal:
//!   `width(K)` rows × (present subcolumns), per Theorem 1.
//!
//! The panels are allocated from the pattern's layout
//! ([`BlockPattern::layout`]), built once per pattern, whose index lists
//! every factorization shares. Each input entry's place in them is found
//! by walking its column's ascending rows against the layout; a
//! refactorization of the same pattern keeps that place per entry (a slot
//! map) and only writes the new values through it.
//!
//! Entries inside panels but outside the static pattern are *padding*:
//! they start at exactly `0.0` and — a consequence of the static-structure
//! closure property — remain exactly `0.0` through the whole factorization
//! (every update contribution into them is a product with a structural
//! zero). The pivot search can therefore safely scan whole packed panels,
//! and the structure-safe row interchange ([`BlockMatrix::swap_rows`])
//! asserts this invariant in debug builds.

use splu_sparse::CscMatrix;
pub use splu_symbolic::LSeg;
use splu_symbolic::{BlockPattern, Slot, StorageLayout, UBlockKind};
use std::sync::Arc;

/// One stored U block `(k, j)`: `h × cols.len()` column-major panel.
#[derive(Debug, Clone)]
pub struct UBlockStore {
    /// Row-block index `k` (`< j`).
    pub k: u32,
    /// First global row of block `k`.
    pub lo_k: u32,
    /// Height = width of row block `k`.
    pub h: u32,
    /// Present global column indices (sorted).
    pub cols: Arc<Vec<u32>>,
    /// Dense or column-sparse (all columns present or not).
    pub kind: UBlockKind,
    /// Column-major values, leading dimension `h`.
    pub panel: Vec<f64>,
}

/// One column block's storage.
#[derive(Debug, Clone, Default)]
pub struct ColBlock {
    /// First global column.
    pub lo: u32,
    /// Width.
    pub w: u32,
    /// `w × w` diagonal panel, column-major.
    pub diag: Vec<f64>,
    /// Sorted global rows present in the packed L panel.
    pub lrows: Arc<Vec<u32>>,
    /// Packed L panel, `lrows.len() × w`, column-major (ld = lrows.len()).
    pub lpanel: Vec<f64>,
    /// L block segments within the packed panel.
    pub lsegs: Arc<Vec<LSeg>>,
    /// U blocks above the diagonal, sorted by `k`.
    pub ublocks: Vec<UBlockStore>,
}

/// Where a global row lives inside a given column block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowLoc {
    /// Local row of the diagonal panel.
    Diag(u32),
    /// Packed row of the L panel.
    L(u32),
    /// `(ublock index, local row)` of a U panel.
    U(u32, u32),
    /// No storage for this row in this column block.
    Absent,
}

/// The block matrix under (or after) factorization.
#[derive(Debug, Clone)]
pub struct BlockMatrix {
    /// The block pattern this storage realizes.
    pub pattern: Arc<BlockPattern>,
    /// Per-column-block storage.
    pub cols: Vec<ColBlock>,
    /// Global index → block id.
    pub block_of: Arc<Vec<u32>>,
    /// Matrix order.
    pub n: usize,
}

impl BlockMatrix {
    /// Allocate the block storage for `pattern` from its layout
    /// ([`BlockPattern::layout`]) and scatter the entries of `a` into it
    /// (everything else is zero padding).
    pub fn from_csc(a: &CscMatrix, pattern: Arc<BlockPattern>) -> Self {
        let layout = pattern.layout();
        let mut m = Self::zeroed(pattern.clone(), layout, |_| (true, true));
        m.fill(a, layout, |_| true, |_| true);
        m
    }

    /// One rank's share of a 2D block-cyclic mapping: the column blocks
    /// `owned(j)` store the blocks of the row blocks `rows(i)` and nothing
    /// else. Such a column keeps its diagonal panel when `rows(j)`, its
    /// `L` segments of rows `rows(i)` stacked in one packed panel (leading
    /// dimension = their total rows), and its `U` blocks `(k, j)` with
    /// `rows(k)`. Metadata covers every column, restricted to the same
    /// rows, so a stacked panel received from a rank holding the same
    /// block rows reads with this layout. With both filters always true
    /// this is [`BlockMatrix::from_csc`].
    pub fn from_csc_blocks(
        a: &CscMatrix,
        pattern: Arc<BlockPattern>,
        rows: impl Fn(usize) -> bool,
        owned: impl Fn(usize) -> bool,
    ) -> Self {
        let layout = StorageLayout::build(&pattern, &rows);
        let mut m = Self::zeroed(pattern, &layout, |j| (owned(j) && rows(j), owned(j)));
        m.fill(a, &layout, &rows, owned);
        m
    }

    /// Zeroed storage for `pattern` laid out as `layout`, with every
    /// column's metadata and the panels `panels(j)` = (diagonal, `L` and
    /// `U`) of column block `j`. One `Vec` per panel, allocated column by
    /// column: the `U` panels, then the diagonal, then the `L` panel.
    pub(crate) fn zeroed(
        pattern: Arc<BlockPattern>,
        layout: &StorageLayout,
        panels: impl Fn(usize) -> (bool, bool),
    ) -> Self {
        let zeros = |keep: bool, len: usize| if keep { vec![0.0; len] } else { Vec::new() };
        let cols = layout
            .cols
            .iter()
            .enumerate()
            .map(|(j, c)| {
                let (diag, rest) = panels(j);
                let ublocks = c
                    .ublocks
                    .iter()
                    .map(|u| UBlockStore {
                        k: u.k,
                        lo_k: u.lo_k,
                        h: u.h,
                        cols: u.cols.clone(),
                        kind: u.kind,
                        panel: zeros(rest, u.h as usize * u.cols.len()),
                    })
                    .collect();
                let w = c.w as usize;
                ColBlock {
                    ublocks,
                    diag: zeros(diag, w * w),
                    lpanel: zeros(rest, c.lrows.len() * w),
                    lo: c.lo,
                    w: c.w,
                    lrows: c.lrows.clone(),
                    lsegs: c.lsegs.clone(),
                }
            })
            .collect();
        Self {
            n: pattern.part.n(),
            pattern,
            cols,
            block_of: layout.block_of.clone(),
        }
    }

    /// Scatter the entries of `a` of the row blocks `rows(i)` into the
    /// column blocks `owned(j)`, which hold their panels.
    fn fill(
        &mut self,
        a: &CscMatrix,
        layout: &StorageLayout,
        rows: impl Fn(usize) -> bool,
        owned: impl Fn(usize) -> bool,
    ) {
        assert_eq!(a.ncols(), self.n);
        let (mut panels, values) = (self.panels_mut(), a.values());
        layout.place(a, None, rows, owned, |e, s| {
            panels[s.panel as usize][s.at as usize] = values[e];
        });
    }

    /// Write `values[p]` to `slots[p]` for every `p`.
    pub(crate) fn scatter(&mut self, slots: &[Slot], values: &[f64]) {
        let mut panels = self.panels_mut();
        for (s, &v) in slots.iter().zip(values) {
            panels[s.panel as usize][s.at as usize] = v;
        }
    }

    /// Every panel, numbered as in [`StorageLayout`].
    fn panels_mut(&mut self) -> Vec<&mut [f64]> {
        let mut panels = Vec::with_capacity(self.cols.iter().map(|c| 2 + c.ublocks.len()).sum());
        for cb in &mut self.cols {
            panels.push(&mut cb.diag[..]);
            panels.push(&mut cb.lpanel[..]);
            panels.extend(cb.ublocks.iter_mut().map(|u| &mut u.panel[..]));
        }
        panels
    }

    /// Reassemble a 2D-distributed factorization from the ranks'
    /// shares (see [`BlockMatrix::from_csc_blocks`]): `shares[share_of(r,
    /// j)]` holds column `j`'s blocks of the row blocks `i ≡ r (mod pr)`,
    /// and gives its column up. At `pr = 1` a share's column is the whole
    /// column and moves in unchanged; otherwise the diagonal and `U`
    /// panels move and the `L` panel is built once, a column at a time,
    /// from the shares' stacked segments.
    pub(crate) fn from_shares(
        pattern: Arc<BlockPattern>,
        shares: &mut [BlockMatrix],
        pr: usize,
        share_of: impl Fn(usize, usize) -> usize,
    ) -> Self {
        let (block_of, n) = (shares[0].block_of.clone(), shares[0].n);
        let cols = (0..pattern.nblocks())
            .map(|j| {
                if pr == 1 {
                    return std::mem::take(&mut shares[share_of(0, j)].cols[j]);
                }
                let mut parts: Vec<ColBlock> = (0..pr)
                    .map(|r| std::mem::take(&mut shares[share_of(r, j)].cols[j]))
                    .collect();
                let w = parts[0].w as usize;
                let (lrows, lsegs) = {
                    let c = &pattern.layout().cols[j];
                    (&c.lrows, &c.lsegs)
                };
                // walk each column of the panel through the segments in
                // row order, taking each from the share that holds it
                let mut lpanel = Vec::with_capacity(lrows.len() * w);
                let mut next = vec![0usize; pr];
                for c in 0..w {
                    next.fill(0);
                    for seg in lsegs.iter() {
                        let r = seg.iblock as usize % pr;
                        let part = &parts[r];
                        let s = &part.lsegs[next[r]];
                        debug_assert_eq!(s.iblock, seg.iblock);
                        next[r] += 1;
                        let at = s.start as usize + c * part.lrows.len();
                        lpanel.extend_from_slice(&part.lpanel[at..at + s.len as usize]);
                    }
                }
                let mut ublocks: Vec<UBlockStore> = parts
                    .iter_mut()
                    .flat_map(|p| std::mem::take(&mut p.ublocks))
                    .collect();
                ublocks.sort_unstable_by_key(|u| u.k);
                ColBlock {
                    lo: parts[0].lo,
                    w: w as u32,
                    diag: std::mem::take(&mut parts[j % pr].diag),
                    lrows: lrows.clone(),
                    lpanel,
                    lsegs: lsegs.clone(),
                    ublocks,
                }
            })
            .collect();
        Self {
            pattern,
            cols,
            block_of,
            n,
        }
    }

    /// Block id of a global index.
    #[inline]
    pub fn block_of(&self, g: usize) -> usize {
        self.block_of[g] as usize
    }

    /// Locate global row `g` within column block `j`.
    pub fn row_loc(&self, j: usize, g: usize) -> RowLoc {
        let cb = &self.cols[j];
        let ib = self.block_of(g);
        match ib.cmp(&j) {
            std::cmp::Ordering::Equal => RowLoc::Diag((g as u32) - cb.lo),
            std::cmp::Ordering::Greater => match cb.lrows.binary_search(&(g as u32)) {
                Ok(p) => RowLoc::L(p as u32),
                Err(_) => RowLoc::Absent,
            },
            std::cmp::Ordering::Less => {
                match cb.ublocks.binary_search_by_key(&(ib as u32), |u| u.k) {
                    Ok(b) => RowLoc::U(b as u32, (g as u32) - cb.ublocks[b].lo_k),
                    Err(_) => RowLoc::Absent,
                }
            }
        }
    }

    /// Read one entry (0.0 if no storage). For tests and the solver.
    pub fn get_entry(&self, i: usize, j: usize) -> f64 {
        let jb = self.block_of(j);
        let cb = &self.cols[jb];
        let lc = j - cb.lo as usize;
        match self.row_loc(jb, i) {
            RowLoc::Diag(r) => cb.diag[r as usize + lc * cb.w as usize],
            RowLoc::L(r) => cb.lpanel[r as usize + lc * cb.lrows.len()],
            RowLoc::U(b, r) => {
                let ub = &cb.ublocks[b as usize];
                match ub.cols.binary_search(&(j as u32)) {
                    Ok(cpos) => ub.panel[r as usize + cpos * ub.h as usize],
                    Err(_) => 0.0,
                }
            }
            RowLoc::Absent => 0.0,
        }
    }

    /// Structure-safe interchange of global rows `r1` and `r2` within
    /// column block `j` only (the delayed-pivoting primitive; the caller
    /// applies it to each column block right of the pivot block, and to
    /// the pivot block itself during `Factor`).
    ///
    /// Positions present on one side but not the other are asserted (debug)
    /// to hold exact zeros, per the padding invariant.
    pub fn swap_rows(&mut self, j: usize, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        let loc1 = self.row_loc(j, r1);
        let loc2 = self.row_loc(j, r2);
        let cb = &mut self.cols[j];
        swap_rows_in(cb, loc1, loc2);
    }

    /// Copy global row `g`'s subrow in column block `j` into the
    /// full-width `out`, which the caller zeroed: only stored positions
    /// are written, none when the row has no storage here.
    pub(crate) fn read_row(&self, j: usize, g: usize, out: &mut [f64]) {
        let cb = &self.cols[j];
        let w = cb.w as usize;
        match self.row_loc(j, g) {
            RowLoc::Diag(r) | RowLoc::L(r) => {
                let (p, ld) = full_panel(cb, self.block_of(g) == j);
                for (c, o) in out[..w].iter_mut().enumerate() {
                    *o = p[r as usize + c * ld];
                }
            }
            RowLoc::U(b, r) => {
                let ub = &cb.ublocks[b as usize];
                for (cp, &gc) in ub.cols.iter().enumerate() {
                    out[(gc - cb.lo) as usize] = ub.panel[r as usize + cp * ub.h as usize];
                }
            }
            RowLoc::Absent => {}
        }
    }

    /// Write the full-width `vals` into global row `g` of column block
    /// `j`. Positions without storage — the whole row where it has none
    /// here — must hold zeros (the padding invariant, checked in debug
    /// builds).
    pub(crate) fn write_row(&mut self, j: usize, g: usize, vals: &[f64]) {
        let diag = self.block_of(g) == j;
        let loc = self.row_loc(j, g);
        let cb = &mut self.cols[j];
        let w = cb.w as usize;
        match loc {
            RowLoc::Diag(r) | RowLoc::L(r) => {
                let ld = if diag { w } else { cb.lrows.len() };
                let p = if diag { &mut cb.diag } else { &mut cb.lpanel };
                for (c, &v) in vals[..w].iter().enumerate() {
                    p[r as usize + c * ld] = v;
                }
            }
            RowLoc::U(b, r) => {
                let lo = cb.lo;
                let ub = &mut cb.ublocks[b as usize];
                let mut mask = ub.cols.iter().enumerate().peekable();
                for (c, &v) in vals.iter().enumerate() {
                    let gc = lo + c as u32;
                    match mask.next_if(|&(_, &mc)| mc == gc) {
                        Some((cp, _)) => ub.panel[r as usize + cp * ub.h as usize] = v,
                        None => debug_assert!(v == 0.0, "nonzero outside U mask at col {gc}"),
                    }
                }
            }
            RowLoc::Absent => debug_assert!(
                vals.iter().all(|&v| v == 0.0),
                "nonzero row {g} into column block {j} without storage for it"
            ),
        }
    }
}

/// Full-width row view: (base pointer offset, leading dimension) for
/// Diag/L locations.
fn full_row(cb: &ColBlock, loc: RowLoc) -> Option<(bool, usize, usize)> {
    match loc {
        RowLoc::Diag(r) => Some((true, r as usize, cb.w as usize)),
        RowLoc::L(r) => Some((false, r as usize, cb.lrows.len())),
        _ => None,
    }
}

/// The diagonal panel (`diag`) or the packed `L` panel with its leading
/// dimension.
fn full_panel(cb: &ColBlock, diag: bool) -> (&[f64], usize) {
    if diag {
        (&cb.diag, cb.w as usize)
    } else {
        (&cb.lpanel, cb.lrows.len())
    }
}

fn swap_rows_in(cb: &mut ColBlock, loc1: RowLoc, loc2: RowLoc) {
    use RowLoc::*;
    match (loc1, loc2) {
        (Absent, Absent) => {}
        (Absent, other) | (other, Absent) => {
            // the stored side must be all zeros
            debug_assert!(
                row_is_zero(cb, other),
                "swap with absent row but stored side nonzero"
            );
        }
        (U(b1, r1), U(b2, r2)) if b1 == b2 => {
            let ub = &mut cb.ublocks[b1 as usize];
            let ld = ub.h as usize;
            for c in 0..ub.cols.len() {
                ub.panel.swap(r1 as usize + c * ld, r2 as usize + c * ld);
            }
        }
        (U(b1, r1), U(b2, r2)) => {
            // Rows in two different U panels (pivot row in block k, other
            // candidate in a later row block I with k < I < j): swap over
            // the mask intersection; exclusive mask positions must be zero.
            let cols1 = cb.ublocks[b1 as usize].cols.clone();
            let cols2 = cb.ublocks[b2 as usize].cols.clone();
            let ld1 = cb.ublocks[b1 as usize].h as usize;
            let ld2 = cb.ublocks[b2 as usize].h as usize;
            let (mut p1, mut p2) = (0usize, 0usize);
            while p1 < cols1.len() || p2 < cols2.len() {
                let c1 = cols1.get(p1).copied();
                let c2 = cols2.get(p2).copied();
                match (c1, c2) {
                    (Some(a1), Some(a2)) if a1 == a2 => {
                        let i1 = r1 as usize + p1 * ld1;
                        let i2 = r2 as usize + p2 * ld2;
                        let v1 = cb.ublocks[b1 as usize].panel[i1];
                        let v2 = cb.ublocks[b2 as usize].panel[i2];
                        cb.ublocks[b1 as usize].panel[i1] = v2;
                        cb.ublocks[b2 as usize].panel[i2] = v1;
                        p1 += 1;
                        p2 += 1;
                    }
                    (Some(a1), Some(a2)) if a1 < a2 => {
                        debug_assert!(
                            cb.ublocks[b1 as usize].panel[r1 as usize + p1 * ld1] == 0.0,
                            "swap row nonzero at exclusive mask col {a1}"
                        );
                        p1 += 1;
                    }
                    (Some(_), Some(_)) | (None, Some(_)) => {
                        debug_assert!(
                            cb.ublocks[b2 as usize].panel[r2 as usize + p2 * ld2] == 0.0,
                            "swap row nonzero at exclusive mask col"
                        );
                        p2 += 1;
                    }
                    (Some(_), None) => {
                        debug_assert!(
                            cb.ublocks[b1 as usize].panel[r1 as usize + p1 * ld1] == 0.0,
                            "swap row nonzero at exclusive mask col"
                        );
                        p1 += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
        }
        (a, b) => {
            // at least one full-width side
            let f1 = full_row(cb, a);
            let f2 = full_row(cb, b);
            match (f1, f2) {
                (Some((d1, r1, ld1)), Some((d2, r2, ld2))) => {
                    let w = cb.w as usize;
                    for c in 0..w {
                        let i1 = r1 + c * ld1;
                        let i2 = r2 + c * ld2;
                        if d1 == d2 {
                            let p = if d1 { &mut cb.diag } else { &mut cb.lpanel };
                            p.swap(i1, i2);
                        } else {
                            let (dslot, lslot) = if d1 { (i1, i2) } else { (i2, i1) };
                            std::mem::swap(&mut cb.diag[dslot], &mut cb.lpanel[lslot]);
                        }
                    }
                }
                (Some((dg, rf, ldf)), None) | (None, Some((dg, rf, ldf))) => {
                    // full-width vs U-masked row
                    let uloc = if f1.is_none() { a } else { b };
                    let U(bu, ru) = uloc else { unreachable!() };
                    let lo = cb.lo as usize;
                    // swap masked columns; non-mask columns of the
                    // full-width row must be zero
                    let (ub_cols, ld_u) = {
                        let ub = &cb.ublocks[bu as usize];
                        (ub.cols.clone(), ub.h as usize)
                    };
                    let mut mask_pos = 0usize;
                    for c in 0..cb.w as usize {
                        let gc = (lo + c) as u32;
                        let fidx = rf + c * ldf;
                        if mask_pos < ub_cols.len() && ub_cols[mask_pos] == gc {
                            let uidx = ru as usize + mask_pos * ld_u;
                            let fv = if dg { cb.diag[fidx] } else { cb.lpanel[fidx] };
                            let uv = cb.ublocks[bu as usize].panel[uidx];
                            if dg {
                                cb.diag[fidx] = uv;
                            } else {
                                cb.lpanel[fidx] = uv;
                            }
                            cb.ublocks[bu as usize].panel[uidx] = fv;
                            mask_pos += 1;
                        } else {
                            debug_assert!(
                                (if dg { cb.diag[fidx] } else { cb.lpanel[fidx] }) == 0.0,
                                "full-width row nonzero outside U mask at col {gc}"
                            );
                        }
                    }
                }
                (None, None) => unreachable!("U/U handled above"),
            }
        }
    }
}

fn row_is_zero(cb: &ColBlock, loc: RowLoc) -> bool {
    match loc {
        RowLoc::Absent => true,
        RowLoc::Diag(r) => {
            (0..cb.w as usize).all(|c| cb.diag[r as usize + c * cb.w as usize] == 0.0)
        }
        RowLoc::L(r) => {
            (0..cb.w as usize).all(|c| cb.lpanel[r as usize + c * cb.lrows.len()] == 0.0)
        }
        RowLoc::U(b, r) => {
            let ub = &cb.ublocks[b as usize];
            (0..ub.cols.len()).all(|c| ub.panel[r as usize + c * ub.h as usize] == 0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::gen::{self, ValueModel};
    use splu_symbolic::{amalgamate, partition_supernodes, static_symbolic_factorization};

    fn build(a: &splu_sparse::CscMatrix, r: usize, bsize: usize) -> BlockMatrix {
        let s = static_symbolic_factorization(a);
        let base = partition_supernodes(&s, bsize);
        let part = amalgamate(&s, &base, r, bsize);
        let bp = Arc::new(BlockPattern::build(&s, &part));
        BlockMatrix::from_csc(a, bp)
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let a = gen::random_sparse(70, 4, 0.5, ValueModel::default());
        let m = build(&a, 4, 8);
        for (i, j, v) in a.iter() {
            assert_eq!(m.get_entry(i, j), v, "entry ({i},{j})");
        }
        // a padded position reads zero
        let mut padded_checked = false;
        for i in 0..70 {
            for j in 0..70 {
                if !a.is_stored(i, j) && m.get_entry(i, j) == 0.0 {
                    padded_checked = true;
                }
            }
        }
        assert!(padded_checked);
    }

    #[test]
    fn row_loc_consistency() {
        let a = gen::grid2d(7, 7, 0.3, ValueModel::default());
        let m = build(&a, 4, 6);
        for j in 0..m.pattern.nblocks() {
            let lo = m.pattern.part.start(j);
            let hi = m.pattern.part.starts[j + 1];
            // diagonal rows resolve to Diag
            for g in lo..hi {
                assert_eq!(m.row_loc(j, g), RowLoc::Diag((g - lo) as u32));
            }
            // every packed L row resolves back to L
            for (p, &g) in m.cols[j].lrows.iter().enumerate() {
                assert_eq!(m.row_loc(j, g as usize), RowLoc::L(p as u32));
            }
        }
    }

    #[test]
    fn lsegs_partition_lrows() {
        let a = gen::random_sparse(90, 4, 0.4, ValueModel::default());
        let m = build(&a, 4, 10);
        for cb in &m.cols {
            let mut expect = 0u32;
            for seg in cb.lsegs.iter() {
                assert_eq!(seg.start, expect);
                expect += seg.len;
                // all rows of the segment belong to seg.iblock
                for p in seg.start..seg.start + seg.len {
                    assert_eq!(m.block_of(cb.lrows[p as usize] as usize) as u32, seg.iblock);
                }
            }
            assert_eq!(expect as usize, cb.lrows.len());
        }
    }

    #[test]
    fn swap_full_width_rows() {
        let a = gen::dense_random(12, ValueModel::default());
        let mut m = build(&a, 0, 4);
        let before: Vec<f64> = (0..12).map(|c| m.get_entry(1, c)).collect();
        let before2: Vec<f64> = (0..12).map(|c| m.get_entry(6, c)).collect();
        // swap rows 1 and 6 in every column block
        for j in 0..m.pattern.nblocks() {
            m.swap_rows(j, 1, 6);
        }
        for c in 0..12 {
            assert_eq!(m.get_entry(6, c), before[c]);
            assert_eq!(m.get_entry(1, c), before2[c]);
        }
    }

    #[test]
    fn swap_is_involution_for_candidate_pairs() {
        let a = gen::grid2d(6, 6, 0.3, ValueModel::default());
        let s = static_symbolic_factorization(&a);
        let mut m = build(&a, 4, 5);
        let orig = m.clone();
        // rows 0 and s.lcol(0)[1] are both candidates at step 0, so their
        // static structures agree for all columns — a legal pivot pair.
        let r1 = 0usize;
        let r2 = s.lcol(0)[1] as usize;
        for jj in 0..m.pattern.nblocks() {
            m.swap_rows(jj, r1, r2);
            m.swap_rows(jj, r1, r2);
        }
        for i in 0..36 {
            for c in 0..36 {
                assert_eq!(m.get_entry(i, c), orig.get_entry(i, c));
            }
        }
    }

    #[test]
    fn swap_moves_candidate_row_values() {
        let a = gen::grid2d(5, 5, 0.3, ValueModel::default());
        let s = static_symbolic_factorization(&a);
        let mut m = build(&a, 4, 5);
        let r1 = 0usize;
        let r2 = s.lcol(0)[1] as usize;
        let row1: Vec<f64> = (0..25).map(|c| m.get_entry(r1, c)).collect();
        let row2: Vec<f64> = (0..25).map(|c| m.get_entry(r2, c)).collect();
        for jj in 0..m.pattern.nblocks() {
            m.swap_rows(jj, r1, r2);
        }
        for c in 0..25 {
            assert_eq!(m.get_entry(r1, c), row2[c], "col {c}");
            assert_eq!(m.get_entry(r2, c), row1[c], "col {c}");
        }
    }
}
