//! The storage layout of a block pattern: per column block, the dense
//! panels a numeric factorization allocates and where each stored row
//! and column sits in them.
//!
//! Column block `J` stores a `w × w` diagonal panel, one packed `L` panel
//! (the rows of every `L` block below the diagonal, stacked in ascending
//! order, each block a contiguous segment) and one `U` panel per `U`
//! block `(K, J)` above it (`width(K)` rows × its present columns). All of
//! it is a function of the pattern, so [`BlockPattern::layout`] builds it
//! once, on first use, and every factorization of the pattern allocates
//! its panels from it and shares its index lists.
//!
//! The panels are numbered in column-block order: column block `J`'s
//! diagonal panel is [`ColumnLayout::first_panel`], its `L` panel the next
//! number and its `U` panels the numbers after that, in ascending `K`.
//! [`StorageLayout::place`] finds each stored entry's [`Slot`] by walking
//! its column's ascending rows against the layout: one cursor in the
//! packed `L` rows and one in each `U` block's columns, no search.

use crate::blocks::{BlockPattern, UBlockKind};
use splu_sparse::{CscMatrix, Perm};
use std::sync::Arc;

/// An L-panel segment: one L block's contiguous slice of the packed panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LSeg {
    /// Row-block index `I` (`> J`).
    pub iblock: u32,
    /// Start offset within the packed panel rows.
    pub start: u32,
    /// Number of subrows.
    pub len: u32,
}

/// One `U` block `(k, j)` of a column block's layout: an `h × cols.len()`
/// column-major panel.
#[derive(Debug, Clone)]
pub struct ULayout {
    /// Row-block index `k` (`< j`).
    pub k: u32,
    /// First global row of block `k`.
    pub lo_k: u32,
    /// Height = width of row block `k`.
    pub h: u32,
    /// Present global column indices (sorted).
    pub cols: Arc<Vec<u32>>,
    /// Dense or column-sparse.
    pub kind: UBlockKind,
}

/// One column block's layout.
#[derive(Debug, Clone)]
pub struct ColumnLayout {
    /// First global column.
    pub lo: u32,
    /// Width.
    pub w: u32,
    /// Sorted global rows of the packed `L` panel.
    pub lrows: Arc<Vec<u32>>,
    /// The `L` blocks' segments of `lrows`, by ascending row block.
    pub lsegs: Arc<Vec<LSeg>>,
    /// The `U` blocks above the diagonal, by ascending `k`.
    pub ublocks: Vec<ULayout>,
    /// Number of the diagonal panel (module docs).
    pub first_panel: u32,
}

/// A stored value's place: element `at` of panel `panel`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Slot {
    /// Panel number (module docs).
    pub panel: u32,
    /// Offset in the column-major panel.
    pub at: u32,
}

/// The layout of every column block, restricted to a set of row blocks
/// (all of them for [`BlockPattern::layout`]).
#[derive(Debug, Clone)]
pub struct StorageLayout {
    /// Global index → block id.
    pub block_of: Arc<Vec<u32>>,
    /// Per column block.
    pub cols: Vec<ColumnLayout>,
}

impl StorageLayout {
    /// The layout of `pattern` restricted to the row blocks `rows(i)`: a
    /// column block keeps its `L` segments and `U` blocks in those row
    /// blocks (a 2D rank's share keeps the row blocks of its grid row).
    pub fn build(pattern: &BlockPattern, rows: impl Fn(usize) -> bool) -> Self {
        let nb = pattern.nblocks();
        let part = &pattern.part;
        // the U blocks are listed by row block: transpose them to columns
        let mut ublocks: Vec<Vec<ULayout>> = vec![Vec::new(); nb];
        for k in (0..nb).filter(|&k| rows(k)) {
            for u in &pattern.u_blocks[k] {
                ublocks[u.j as usize].push(ULayout {
                    k: k as u32,
                    lo_k: part.start(k) as u32,
                    h: part.width(k) as u32,
                    cols: Arc::new(u.cols.clone()),
                    kind: u.kind,
                });
            }
        }
        let mut panels = 0u32;
        let cols = ublocks
            .into_iter()
            .enumerate()
            .map(|(j, ublocks)| {
                let (mut lrows, mut lsegs) = (Vec::new(), Vec::new());
                for lb in pattern.l_blocks[j].iter().filter(|l| rows(l.i as usize)) {
                    lsegs.push(LSeg {
                        iblock: lb.i,
                        start: lrows.len() as u32,
                        len: lb.rows.len() as u32,
                    });
                    lrows.extend_from_slice(&lb.rows);
                }
                let first_panel = panels;
                panels += 2 + ublocks.len() as u32;
                ColumnLayout {
                    lo: part.start(j) as u32,
                    w: part.width(j) as u32,
                    lrows: Arc::new(lrows),
                    lsegs: Arc::new(lsegs),
                    ublocks,
                    first_panel,
                }
            })
            .collect();
        Self {
            block_of: Arc::new(part.block_of_index()),
            cols,
        }
    }

    /// Visit `(e, slot)` for each entry `e` of `a` (its position in `a`'s
    /// entry order) that lies in a column block `cols(j)` and a row block
    /// `rows(i)` of the matrix stored, `B = P A Qᵀ` for `pq = Some((P, Q))`
    /// and `a` itself for `None`. The row blocks must be kept by this
    /// layout.
    ///
    /// # Panics
    /// Panics on an entry outside the static block pattern.
    pub fn place(
        &self,
        a: &CscMatrix,
        pq: Option<(&Perm, &Perm)>,
        rows: impl Fn(usize) -> bool,
        cols: impl Fn(usize) -> bool,
        mut visit: impl FnMut(usize, Slot),
    ) {
        let (ptr, ri) = (a.col_ptr(), a.row_indices());
        // (row of B, offset in the column) of one column of B, ascending
        let mut keyed: Vec<u64> = Vec::new();
        // per U block of the column block: the position of the current
        // column in its columns (the columns are walked in ascending order)
        let mut ucols: Vec<usize> = Vec::new();
        for (jb, c) in self.cols.iter().enumerate().filter(|&(jb, _)| cols(jb)) {
            ucols.clear();
            ucols.resize(c.ublocks.len(), 0);
            for j in c.lo as usize..(c.lo + c.w) as usize {
                let lc = j - c.lo as usize;
                let oj = pq.map_or(j, |(_, q)| q.old_of_new(j));
                let at = ptr[oj];
                keyed.clear();
                keyed.extend(ri[at..ptr[oj + 1]].iter().enumerate().map(|(o, &i)| {
                    let i = pq.map_or(i as usize, |(p, _)| p.new_of_old(i as usize));
                    ((i as u64) << 32) | o as u64
                }));
                if pq.is_some() {
                    keyed.sort_unstable();
                }
                let (mut li, mut ub) = (0usize, 0usize);
                for &key in &keyed {
                    let i = (key >> 32) as u32;
                    let ib = self.block_of[i as usize] as usize;
                    if !rows(ib) {
                        continue;
                    }
                    let absent =
                        || -> ! { panic!("entry ({i},{j}) outside the static block pattern") };
                    let (panel, off) = match ib.cmp(&jb) {
                        std::cmp::Ordering::Less => {
                            while c.ublocks.get(ub).is_some_and(|u| (u.k as usize) < ib) {
                                ub += 1;
                            }
                            let u = c.ublocks.get(ub).filter(|u| u.k as usize == ib);
                            let u = u.unwrap_or_else(|| absent());
                            let cp = &mut ucols[ub];
                            while u.cols.get(*cp).is_some_and(|&x| (x as usize) < j) {
                                *cp += 1;
                            }
                            if u.cols.get(*cp) != Some(&(j as u32)) {
                                absent();
                            }
                            (2 + ub, (i - u.lo_k) as usize + *cp * u.h as usize)
                        }
                        std::cmp::Ordering::Equal => (0, (i - c.lo) as usize + lc * c.w as usize),
                        std::cmp::Ordering::Greater => {
                            while c.lrows.get(li).is_some_and(|&x| x < i) {
                                li += 1;
                            }
                            if c.lrows.get(li) != Some(&i) {
                                absent();
                            }
                            (1, li + lc * c.lrows.len())
                        }
                    };
                    let slot = Slot {
                        panel: c.first_panel + panel as u32,
                        at: off as u32,
                    };
                    visit(at + (key as u32) as usize, slot);
                }
            }
        }
    }
}
