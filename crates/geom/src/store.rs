//! Flat, cache-friendly point storage.
//!
//! A [`PointStore`] keeps `n` points of dimensionality `d` in one
//! row-major `Box<[f64]>` with stride `d`: point `i` occupies
//! `data[i*d .. (i+1)*d]`. Compared to `Vec<Vec<f64>>` this removes a
//! pointer chase and a separate heap allocation per record, which is
//! what lets the r-skyband screen loop (the filtering hot path of
//! every UTK query) read candidate coordinates as contiguous slices
//! with zero per-test allocations.
//!
//! # Layout contract
//!
//! * `data.len() == len * dim` always; `dim >= 1` unless the store is
//!   empty (an empty store may carry any nominal `dim`).
//! * Rows are immutable after construction: a store is built once
//!   (from rows, from a flat buffer, by [`PointStore::spliced`] from
//!   another store, or through [`PointStoreBuilder`]) and then only
//!   read. Sharing a store therefore never requires locking.
//! * Indexing yields `&[f64]` slices of length `dim`, so call sites
//!   written against `Vec<Vec<f64>>` (`&points[i]`) keep working
//!   unchanged.

/// Row-major, fixed-stride point storage. See the [module
/// docs](self) for the layout contract.
#[derive(Debug, Clone, PartialEq)]
pub struct PointStore {
    data: Box<[f64]>,
    dim: usize,
}

impl PointStore {
    /// Builds a store from row vectors.
    ///
    /// # Panics
    /// Panics if rows disagree on dimensionality.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in rows {
            assert_eq!(row.len(), dim, "ragged rows in PointStore::from_rows");
            data.extend_from_slice(row);
        }
        Self {
            data: data.into_boxed_slice(),
            dim,
        }
    }

    /// Wraps an existing flat buffer (length must be a multiple of
    /// `dim`).
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`, or `dim` is
    /// zero while data is non-empty.
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Self {
        assert!(
            (dim > 0 && data.len().is_multiple_of(dim)) || data.is_empty(),
            "flat buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        Self {
            data: data.into_boxed_slice(),
            dim,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Point dimensionality (the row stride).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow of point `i` as a `dim`-length slice.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole backing buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Iterates over the rows as slices.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// The store with the rows flagged in `deleted` removed (survivors
    /// keep their order) and `inserts` appended: each run of surviving
    /// rows is copied with one `extend_from_slice`, so the cost is one
    /// flat copy with no per-row allocation.
    ///
    /// # Panics
    /// Panics if `deleted.len() != self.len()` or an insert has the
    /// wrong dimensionality.
    pub fn spliced(&self, deleted: &[bool], inserts: &[Vec<f64>]) -> PointStore {
        assert_eq!(deleted.len(), self.len(), "one delete flag per row");
        let d = self.dim;
        let kept = deleted.iter().filter(|&&gone| !gone).count();
        let mut data = Vec::with_capacity((kept + inserts.len()) * d);
        let mut run_start = 0;
        for (i, &gone) in deleted.iter().enumerate() {
            if gone {
                data.extend_from_slice(&self.data[run_start * d..i * d]);
                run_start = i + 1;
            }
        }
        data.extend_from_slice(&self.data[run_start * d..]);
        for row in inserts {
            assert_eq!(row.len(), d, "wrong-dimension insert");
            data.extend_from_slice(row);
        }
        PointStore::from_flat(data, d)
    }

    /// Heap bytes held by the store (the live-memory accounting used
    /// by the engine's byte-budgeted caches).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.data.len() * std::mem::size_of::<f64>()
    }
}

impl std::ops::Index<usize> for PointStore {
    type Output = [f64];

    #[inline]
    fn index(&self, i: usize) -> &[f64] {
        self.point(i)
    }
}

impl From<&[Vec<f64>]> for PointStore {
    fn from(rows: &[Vec<f64>]) -> Self {
        Self::from_rows(rows)
    }
}

/// Indexed read access to equal-length records, nested
/// (`[Vec<f64>]`) or flat ([`PointStore`]): lets one algorithm read a
/// caller's row vectors and the engine's flat store without copying
/// either into the other layout.
pub trait Rows {
    /// Number of records.
    fn len(&self) -> usize;

    /// Record `i` as a `d`-length slice.
    fn row(&self, i: usize) -> &[f64];

    /// True when there are no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<P: AsRef<[f64]>> Rows for [P] {
    fn len(&self) -> usize {
        <[P]>::len(self)
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        self[i].as_ref()
    }
}

impl<P: AsRef<[f64]>> Rows for Vec<P> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        self[i].as_ref()
    }
}

impl Rows for PointStore {
    fn len(&self) -> usize {
        PointStore::len(self)
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        self.point(i)
    }
}

/// Lane count of a [`ScorePanel`] member block. Eight `f64` lanes fill
/// one AVX-512 register (two AVX2 registers / four NEON registers) —
/// wide enough for the compiler to auto-vectorize the blocked dominance
/// sweep, small enough that the padding waste of a partial final block
/// stays negligible.
pub const SCORE_LANES: usize = 8;

/// Rounds `x` to the nearest `f32` **not below** it (directed rounding
/// toward `+∞`). Used to quantize member scores so the `f32` prefilter
/// bound can only overestimate the true `f64` score delta.
#[inline]
pub fn f32_up(x: f64) -> f32 {
    let y = x as f32; // round-to-nearest; ±inf saturates, NaN stays NaN
    if (y as f64) < x {
        y.next_up()
    } else {
        y
    }
}

/// Rounds `x` to the nearest `f32` **not above** it (directed rounding
/// toward `−∞`) — the probe-side mirror of [`f32_up`].
#[inline]
pub fn f32_down(x: f64) -> f32 {
    let y = x as f32;
    if (y as f64) > x {
        y.next_down()
    } else {
        y
    }
}

/// Structure-of-arrays score storage for the blocked r-skyband screen:
/// per-vertex score lanes stored column-major in member blocks of
/// [`SCORE_LANES`], grown incrementally as members are admitted.
///
/// # Layout contract
///
/// Member `m` lives in block `m / SCORE_LANES`, lane `m % SCORE_LANES`.
/// Within block `b`, the scores are vertex-major:
/// `data[(b*nv + v)*SCORE_LANES + lane]` is the member's score at
/// region vertex `v` — so the blocked kernel reads one contiguous
/// `SCORE_LANES`-wide row per vertex, the shape rustc auto-vectorizes.
///
/// Alongside the exact `f64` panel sits an `f32` panel holding each
/// score rounded **up** ([`f32_up`], toward dominance): an upper bound
/// on the member side of every delta, which is what lets the prefilter
/// reject lanes without ever producing a false reject (see
/// `utk_core::rdominance::prefilter_reject_mask`).
///
/// Unoccupied lanes of the final block are padded with
/// `NEG_INFINITY` in both panels: a `−∞` member score can never
/// witness a positive delta, so padding lanes never classify as
/// dominating and are trivially rejectable by the prefilter.
#[derive(Debug, Clone, Default)]
pub struct ScorePanel {
    data: Vec<f64>,
    upper: Vec<f32>,
    nv: usize,
    len: usize,
}

impl ScorePanel {
    /// An empty panel for members scored at `nv` region vertices.
    pub fn new(nv: usize) -> Self {
        Self {
            data: Vec::new(),
            upper: Vec::new(),
            nv,
            len: 0,
        }
    }

    /// Vertices per member (the row count of each block).
    pub fn vertices(&self) -> usize {
        self.nv
    }

    /// Members pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated member blocks (`ceil(len / SCORE_LANES)`).
    pub fn blocks(&self) -> usize {
        self.len.div_ceil(SCORE_LANES)
    }

    /// Appends one member's vertex scores (next free lane; a fresh
    /// `−∞`-padded block is allocated on lane wrap-around).
    ///
    /// # Panics
    /// Panics if `scores.len() != vertices()`.
    pub fn push(&mut self, scores: &[f64]) {
        assert_eq!(scores.len(), self.nv, "wrong-arity score push");
        let lane = self.len % SCORE_LANES;
        if lane == 0 {
            self.data.extend(std::iter::repeat_n(
                f64::NEG_INFINITY,
                self.nv * SCORE_LANES,
            ));
            self.upper.extend(std::iter::repeat_n(
                f32::NEG_INFINITY,
                self.nv * SCORE_LANES,
            ));
        }
        let base = (self.len / SCORE_LANES) * self.nv * SCORE_LANES;
        for (v, &s) in scores.iter().enumerate() {
            self.data[base + v * SCORE_LANES + lane] = s;
            self.upper[base + v * SCORE_LANES + lane] = f32_up(s);
        }
        self.len += 1;
    }

    /// The exact `f64` block `b`: `nv * SCORE_LANES` values, vertex-major.
    #[inline]
    pub fn block_f64(&self, b: usize) -> &[f64] {
        let w = self.nv * SCORE_LANES;
        &self.data[b * w..(b + 1) * w]
    }

    /// The rounded-up `f32` block `b`, same layout as [`Self::block_f64`].
    #[inline]
    pub fn block_f32(&self, b: usize) -> &[f32] {
        let w = self.nv * SCORE_LANES;
        &self.upper[b * w..(b + 1) * w]
    }

    /// The exact score of member `m` at vertex `v`.
    #[inline]
    pub fn member_score(&self, m: usize, v: usize) -> f64 {
        debug_assert!(m < self.len && v < self.nv);
        self.data[((m / SCORE_LANES) * self.nv + v) * SCORE_LANES + (m % SCORE_LANES)]
    }

    /// Gathers member `m`'s vertex scores into `out` (cleared first) —
    /// the row view the scalar oracle classifies against.
    pub fn gather_member(&self, m: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.nv).map(|v| self.member_score(m, v)));
    }

    /// Heap bytes held by the panel (both precision levels).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.data.len() * std::mem::size_of::<f64>()
            + self.upper.len() * std::mem::size_of::<f32>()
    }
}

/// Incremental construction of a [`PointStore`] when the row count is
/// not known up front (e.g. admitting r-skyband members one by one).
#[derive(Debug, Clone, Default)]
pub struct PointStoreBuilder {
    data: Vec<f64>,
    dim: usize,
}

impl PointStoreBuilder {
    /// An empty builder for `dim`-dimensional points.
    pub fn new(dim: usize) -> Self {
        Self {
            data: Vec::new(),
            dim,
        }
    }

    /// Appends one point.
    ///
    /// # Panics
    /// Panics if `p.len() != dim`.
    pub fn push(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.dim, "wrong-dimension push");
        self.data.extend_from_slice(p);
    }

    /// Number of points pushed so far.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of point `i` pushed earlier.
    #[inline]
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Finalizes into an immutable store.
    pub fn finish(self) -> PointStore {
        PointStore::from_flat(self.data, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spliced_drops_flagged_rows_and_appends_inserts() {
        let rows = vec![
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
        ];
        let store = PointStore::from_rows(&rows);
        let next = store.spliced(&[true, false, true, false], &[vec![9.0, 10.0]]);
        assert_eq!(next.as_flat(), &[3.0, 4.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(store.spliced(&[false; 4], &[]), store);
        let emptied = store.spliced(&[true; 4], &[]);
        assert!(emptied.is_empty());
        assert_eq!(emptied.dim(), 2);
    }

    #[test]
    fn rows_reads_nested_and_flat_alike() {
        fn sum<R: Rows + ?Sized>(r: &R) -> f64 {
            (0..r.len()).map(|i| r.row(i).iter().sum::<f64>()).sum()
        }
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let store = PointStore::from_rows(&rows);
        assert_eq!(sum(&rows), 10.0);
        assert_eq!(sum(rows.as_slice()), 10.0);
        assert_eq!(sum(&store), 10.0);
        assert!(!Rows::is_empty(&store));
    }

    #[test]
    fn round_trips_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let store = PointStore::from_rows(&rows);
        assert_eq!(store.len(), 3);
        assert_eq!(store.dim(), 2);
        assert_eq!(&store[1], &[3.0, 4.0][..]);
        assert!(store.iter().eq(rows.iter().map(Vec::as_slice)));
        assert_eq!(store.iter().count(), 3);
    }

    #[test]
    fn empty_store() {
        let store = PointStore::from_rows(&[]);
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        assert_eq!(store.iter().count(), 0);
    }

    #[test]
    fn builder_accumulates() {
        let mut b = PointStoreBuilder::new(3);
        assert!(b.is_empty());
        b.push(&[1.0, 2.0, 3.0]);
        b.push(&[4.0, 5.0, 6.0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.point(1), &[4.0, 5.0, 6.0]);
        let store = b.finish();
        assert_eq!(store.len(), 2);
        assert_eq!(&store[0], &[1.0, 2.0, 3.0][..]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_rejected() {
        PointStore::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn bytes_track_buffer() {
        let store = PointStore::from_rows(&vec![vec![0.0; 4]; 10]);
        assert!(store.approx_bytes() >= 40 * 8);
    }

    #[test]
    fn directed_rounding_brackets_the_double() {
        for &x in &[
            0.0,
            -0.0,
            1.0,
            0.1,
            -0.1,
            1e-12,
            -1e-12,
            1.0 + 1e-12,
            f64::MAX,
            f64::MIN,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let up = f32_up(x);
            let down = f32_down(x);
            assert!(up as f64 >= x, "f32_up({x}) = {up} not an upper bound");
            assert!(down as f64 <= x, "f32_down({x}) = {down} not a lower bound");
        }
        assert!(f32_up(f64::NAN).is_nan());
        assert!(f32_down(f64::NAN).is_nan());
    }

    #[test]
    fn panel_layout_round_trips() {
        let nv = 3;
        let mut panel = ScorePanel::new(nv);
        assert!(panel.is_empty());
        let members: Vec<Vec<f64>> = (0..SCORE_LANES + 3)
            .map(|m| (0..nv).map(|v| (m * 10 + v) as f64 / 7.0).collect())
            .collect();
        for scores in &members {
            panel.push(scores);
        }
        assert_eq!(panel.len(), SCORE_LANES + 3);
        assert_eq!(panel.blocks(), 2);
        let mut row = Vec::new();
        for (m, scores) in members.iter().enumerate() {
            panel.gather_member(m, &mut row);
            assert_eq!(&row, scores, "member {m}");
            for (v, &s) in scores.iter().enumerate() {
                assert_eq!(panel.member_score(m, v), s);
                assert!(
                    panel.block_f32(m / SCORE_LANES)[(v * SCORE_LANES) + m % SCORE_LANES] as f64
                        >= s
                );
            }
        }
        // Padding lanes of the partial block are −∞ in both panels.
        for v in 0..nv {
            for lane in 3..SCORE_LANES {
                assert_eq!(
                    panel.block_f64(1)[v * SCORE_LANES + lane],
                    f64::NEG_INFINITY
                );
                assert_eq!(
                    panel.block_f32(1)[v * SCORE_LANES + lane],
                    f32::NEG_INFINITY
                );
            }
        }
        assert!(panel.approx_bytes() >= 2 * nv * SCORE_LANES * (8 + 4));
    }
}
