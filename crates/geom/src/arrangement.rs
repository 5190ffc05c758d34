//! The half-space arrangement index (§4.5 of the paper).
//!
//! Cells (the paper's *partitions*) are kept implicitly: each cell
//! records the ids of the inserted half-spaces that cover it and the
//! ids it lies outside of, plus the explicit constraint list and a
//! cached interior point. Inserting a half-space walks the live cells
//! and splits those it straddles — the binary-subdivision scheme of
//! Tang et al. \[45\] that the paper adopts, in its "many small,
//! disposable indices" flavour: RSA/JAA build one `Arrangement` per
//! `Verify`/`Partition` call and discard it when recursion descends
//! into a promising sub-cell.

use crate::halfspace::{Constraint, Halfspace};
use crate::region::Region;
use crate::tol::INTERIOR_EPS;

/// Identifier of a cell within one [`Arrangement`].
pub type CellId = usize;

/// Lifecycle of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// Participates in future insertions.
    Live,
    /// Was split; superseded by its two children.
    Split,
    /// Retired by the caller (e.g. its count reached `k` in kSPR);
    /// never split again, skipped by iteration over live cells.
    Pruned,
}

/// Where a cell ended up relative to an inserted half-space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellPosition {
    /// The half-space covers the cell entirely.
    Inside,
    /// The cell lies entirely outside the half-space.
    Outside,
    /// The half-space cut the cell in two (ids of the children).
    Split(CellId, CellId),
}

/// One cell of the arrangement.
#[derive(Debug, Clone)]
pub struct Cell {
    region: Region,
    covered: Vec<u32>,
    outside: Vec<u32>,
    interior: Vec<f64>,
    slack: f64,
    state: CellState,
}

impl Cell {
    /// Number of inserted half-spaces covering this cell — the
    /// paper's per-partition *count*.
    #[inline]
    pub fn count(&self) -> usize {
        self.covered.len()
    }

    /// Ids (tags) of the half-spaces covering the cell.
    pub fn covered(&self) -> &[u32] {
        &self.covered
    }

    /// Ids (tags) of the half-spaces the cell lies outside of.
    pub fn outside(&self) -> &[u32] {
        &self.outside
    }

    /// The cell's geometry (base region plus side constraints).
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// A cached interior point of the cell.
    pub fn interior(&self) -> &[f64] {
        &self.interior
    }

    /// Interior slack (radius of a ball that fits inside).
    pub fn slack(&self) -> f64 {
        self.slack
    }

    /// Current lifecycle state.
    pub fn state(&self) -> CellState {
        self.state
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.region.approx_bytes()
            + (self.covered.capacity() + self.outside.capacity()) * 4
            + self.interior.capacity() * 8
    }
}

/// An incrementally-built arrangement of half-spaces inside a convex
/// base region.
#[derive(Debug, Clone)]
pub struct Arrangement {
    base: Region,
    halfspaces: Vec<Halfspace>,
    tags: Vec<u32>,
    cells: Vec<Cell>,
    lp: LpWork,
}

/// The linear programs an [`Arrangement`] has solved: the root
/// interior point (when [`Arrangement::new`] found it) plus every
/// cell-versus-half-space interior test of an insertion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpWork {
    /// LPs solved.
    pub solves: usize,
    /// Constraint rows summed over those LPs.
    pub rows: usize,
}

impl LpWork {
    fn solved(&mut self, rows: usize) {
        self.solves += 1;
        self.rows += rows;
    }
}

impl Arrangement {
    /// Starts an arrangement over `base`. Returns `None` if the base
    /// region has no interior (degenerate query region).
    pub fn new(base: Region) -> Option<Self> {
        let (interior, slack) = base.interior_point()?;
        if slack <= INTERIOR_EPS {
            return None;
        }
        let mut arr = Self::with_interior(base, interior, slack);
        arr.lp.solved(arr.base.constraints().len());
        Some(arr)
    }

    /// Starts an arrangement over `base` reusing a known interior
    /// point (skips one LP; the caller vouches for the point).
    pub fn with_interior(base: Region, interior: Vec<f64>, slack: f64) -> Self {
        let root = Cell {
            region: base.clone(),
            covered: Vec::new(),
            outside: Vec::new(),
            interior,
            slack,
            state: CellState::Live,
        };
        Self {
            base,
            halfspaces: Vec::new(),
            tags: Vec::new(),
            cells: vec![root],
            lp: LpWork::default(),
        }
    }

    /// The base region the arrangement subdivides.
    pub fn base(&self) -> &Region {
        &self.base
    }

    /// Preference-domain dimensionality.
    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// The linear programs solved so far.
    pub fn lp_work(&self) -> LpWork {
        self.lp
    }

    /// Number of half-spaces inserted so far.
    pub fn num_halfspaces(&self) -> usize {
        self.halfspaces.len()
    }

    /// The `idx`-th inserted half-space.
    pub fn halfspace(&self, idx: u32) -> &Halfspace {
        &self.halfspaces[idx as usize]
    }

    /// The caller-supplied tag of the `idx`-th half-space.
    pub fn tag(&self, idx: u32) -> u32 {
        self.tags[idx as usize]
    }

    /// Inserts a half-space, splitting every live cell it straddles.
    /// The `tag` is an arbitrary caller id (e.g. a record index)
    /// retrievable via [`Arrangement::tag`]. Returns the internal id.
    pub fn insert(&mut self, hs: Halfspace, tag: u32) -> u32 {
        debug_assert_eq!(hs.dim(), self.dim());
        let id = self.halfspaces.len() as u32;

        if hs.is_degenerate() {
            let covers = hs.degenerate_covers_all();
            for cell in &mut self.cells {
                if cell.state == CellState::Live {
                    if covers {
                        cell.covered.push(id);
                    } else {
                        cell.outside.push(id);
                    }
                }
            }
            self.halfspaces.push(hs);
            self.tags.push(tag);
            return id;
        }

        let n = self.cells.len();
        for ci in 0..n {
            if self.cells[ci].state != CellState::Live {
                continue;
            }
            self.classify_and_split(ci, &hs, id);
        }
        self.halfspaces.push(hs);
        self.tags.push(tag);
        id
    }

    /// Whether cell `ci` keeps a full-dimensional part under the extra
    /// constraint `c` (one counted LP).
    fn probe(&mut self, ci: CellId, c: &Constraint) -> Option<(Vec<f64>, f64)> {
        let region = &self.cells[ci].region;
        self.lp.solved(region.constraints().len() + 1);
        region.has_interior_with(c)
    }

    /// Decides the position of cell `ci` relative to `hs` and applies
    /// the outcome (cover/outside marking or a split).
    fn classify_and_split(&mut self, ci: CellId, hs: &Halfspace, id: u32) -> CellPosition {
        let val = hs.eval(&self.cells[ci].interior);
        // The side holding the cached interior point is non-empty
        // whenever the point clears the hyperplane by a safe margin.
        let margin = INTERIOR_EPS;
        let (in_side, out_side) = if val > margin {
            // Interior point is inside; probe the outside part.
            let out = self.probe(ci, &hs.outside_constraint());
            match out {
                None => {
                    self.cells[ci].covered.push(id);
                    return CellPosition::Inside;
                }
                Some(o) => {
                    let inn = (self.cells[ci].interior.clone(), self.cells[ci].slack);
                    (inn, o)
                }
            }
        } else if val < -margin {
            let inn = self.probe(ci, &hs.inside_constraint());
            match inn {
                None => {
                    self.cells[ci].outside.push(id);
                    return CellPosition::Outside;
                }
                Some(i) => {
                    let out = (self.cells[ci].interior.clone(), self.cells[ci].slack);
                    (i, out)
                }
            }
        } else {
            // Interior point sits (numerically) on the hyperplane:
            // probe both sides.
            let inn = self.probe(ci, &hs.inside_constraint());
            let out = self.probe(ci, &hs.outside_constraint());
            match (inn, out) {
                (Some(i), Some(o)) => (i, o),
                (Some(_), None) => {
                    self.cells[ci].covered.push(id);
                    return CellPosition::Inside;
                }
                (None, Some(_)) => {
                    self.cells[ci].outside.push(id);
                    return CellPosition::Outside;
                }
                (None, None) => {
                    // Degenerate sliver; classify by the point's side.
                    if val >= 0.0 {
                        self.cells[ci].covered.push(id);
                        return CellPosition::Inside;
                    }
                    self.cells[ci].outside.push(id);
                    return CellPosition::Outside;
                }
            }
        };

        // Split: both sides are full-dimensional.
        let parent = &self.cells[ci];
        let mut inside_cell = Cell {
            region: parent.region.with_constraint(hs.inside_constraint()),
            covered: parent.covered.clone(),
            outside: parent.outside.clone(),
            interior: in_side.0,
            slack: in_side.1,
            state: CellState::Live,
        };
        inside_cell.covered.push(id);
        let mut outside_cell = Cell {
            region: parent.region.with_constraint(hs.outside_constraint()),
            covered: parent.covered.clone(),
            outside: parent.outside.clone(),
            interior: out_side.0,
            slack: out_side.1,
            state: CellState::Live,
        };
        outside_cell.outside.push(id);

        self.cells[ci].state = CellState::Split;
        let a = self.cells.len();
        self.cells.push(inside_cell);
        let b = self.cells.len();
        self.cells.push(outside_cell);
        CellPosition::Split(a, b)
    }

    /// Marks a cell as retired: it stays in the arrangement (and in
    /// [`Arrangement::all_cells`]) but is skipped by insertion and by
    /// [`Arrangement::live_cells`].
    pub fn prune(&mut self, id: CellId) {
        debug_assert_eq!(self.cells[id].state, CellState::Live);
        self.cells[id].state = CellState::Pruned;
    }

    /// Iterates over the live (splittable) cells.
    pub fn live_cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.state == CellState::Live)
    }

    /// Iterates over live *and* pruned cells — together they tile the
    /// base region.
    pub fn leaf_cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.state != CellState::Split)
    }

    /// All cells ever created (including split ancestors).
    pub fn all_cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Cell accessor.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id]
    }

    /// Number of live cells.
    pub fn num_live(&self) -> usize {
        self.live_cells().count()
    }

    /// Rough live-memory estimate (Figure 13(b) space accounting).
    /// The [`LpWork`] counters are bookkeeping, not index, so they are
    /// left out.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<LpWork>()
            + self
                .halfspaces
                .iter()
                .map(|h| std::mem::size_of::<Halfspace>() + h.coef.capacity() * 8)
                .sum::<usize>()
            + self.tags.capacity() * 4
            + self.cells.iter().map(Cell::approx_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::halfspace::Halfspace;

    fn unit_box() -> Region {
        Region::hyperrect(vec![0.0, 0.0], vec![1.0, 1.0])
    }

    #[test]
    fn root_cell_spans_base() {
        let arr = Arrangement::new(unit_box()).unwrap();
        assert_eq!(arr.num_live(), 1);
        let (_, cell) = arr.live_cells().next().unwrap();
        assert_eq!(cell.count(), 0);
        assert!(cell.region().contains(&[0.5, 0.5]));
    }

    #[test]
    fn degenerate_base_rejected() {
        let flat = Region::hyperrect(vec![0.3, 0.0], vec![0.3, 1.0]);
        assert!(Arrangement::new(flat).is_none());
    }

    #[test]
    fn straddling_halfspace_splits_root() {
        let mut arr = Arrangement::new(unit_box()).unwrap();
        // w1 ≥ 0.5 cuts the box in half.
        arr.insert(Halfspace::ge(vec![1.0, 0.0], 0.5), 7);
        assert_eq!(arr.num_live(), 2);
        let counts: Vec<usize> = arr.live_cells().map(|(_, c)| c.count()).collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
        for (_, c) in arr.live_cells() {
            if c.count() == 1 {
                assert!(c.interior()[0] > 0.5);
                assert_eq!(arr.tag(c.covered()[0]), 7);
            } else {
                assert!(c.interior()[0] < 0.5);
            }
        }
    }

    #[test]
    fn covering_halfspace_increments_without_split() {
        let mut arr = Arrangement::new(unit_box()).unwrap();
        // w1 + w2 ≥ −1 covers everything.
        arr.insert(Halfspace::ge(vec![1.0, 1.0], -1.0), 0);
        assert_eq!(arr.num_live(), 1);
        assert_eq!(arr.live_cells().next().unwrap().1.count(), 1);
    }

    #[test]
    fn counts_every_lp_and_its_rows() {
        let mut arr = Arrangement::new(unit_box()).unwrap();
        // The root interior point: one LP over the box's 4 rows.
        assert_eq!(arr.lp_work(), LpWork { solves: 1, rows: 4 });
        // The root's centre sits on w1 = 0.5, so both sides are probed
        // (4 + 1 rows each) before the split.
        arr.insert(Halfspace::ge(vec![1.0, 0.0], 0.5), 0);
        assert_eq!(
            arr.lp_work(),
            LpWork {
                solves: 3,
                rows: 14
            }
        );
        // A covering half-space costs one probe per live cell, each over
        // the cell's 5 rows plus the probe's own.
        arr.insert(Halfspace::ge(vec![1.0, 1.0], -1.0), 1);
        assert_eq!(
            arr.lp_work(),
            LpWork {
                solves: 5,
                rows: 26
            }
        );
        // A caller-supplied interior point skips the root LP.
        let seeded = Arrangement::with_interior(unit_box(), vec![0.5, 0.5], 0.5);
        assert_eq!(seeded.lp_work(), LpWork::default());
    }

    #[test]
    fn missing_halfspace_marks_outside() {
        let mut arr = Arrangement::new(unit_box()).unwrap();
        // w1 ≥ 3 misses the box.
        arr.insert(Halfspace::ge(vec![1.0, 0.0], 3.0), 0);
        assert_eq!(arr.num_live(), 1);
        let (_, c) = arr.live_cells().next().unwrap();
        assert_eq!(c.count(), 0);
        assert_eq!(c.outside(), &[0]);
    }

    #[test]
    fn two_crossing_halfspaces_make_four_cells() {
        let mut arr = Arrangement::new(unit_box()).unwrap();
        arr.insert(Halfspace::ge(vec![1.0, 0.0], 0.5), 0);
        arr.insert(Halfspace::ge(vec![0.0, 1.0], 0.5), 1);
        assert_eq!(arr.num_live(), 4);
        let mut counts: Vec<usize> = arr.live_cells().map(|(_, c)| c.count()).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![0, 1, 1, 2]);
    }

    #[test]
    fn counts_match_pointwise_membership() {
        // Counts derived from covering sets must agree with evaluating
        // every half-space at the cell's interior point.
        let mut arr = Arrangement::new(unit_box()).unwrap();
        let hss = [
            Halfspace::ge(vec![1.0, 0.2], 0.4),
            Halfspace::ge(vec![-0.3, 1.0], 0.1),
            Halfspace::ge(vec![1.0, -1.0], 0.0),
            Halfspace::ge(vec![0.5, 0.5], 0.6),
        ];
        for (i, h) in hss.iter().enumerate() {
            arr.insert(h.clone(), i as u32);
        }
        for (_, cell) in arr.live_cells() {
            let direct = hss.iter().filter(|h| h.contains(cell.interior())).count();
            assert_eq!(cell.count(), direct, "cell at {:?}", cell.interior());
        }
    }

    #[test]
    fn pruned_cells_are_not_split() {
        let mut arr = Arrangement::new(unit_box()).unwrap();
        arr.insert(Halfspace::ge(vec![1.0, 0.0], 0.5), 0);
        let pruned: CellId = arr
            .live_cells()
            .find(|(_, c)| c.count() == 1)
            .map(|(id, _)| id)
            .unwrap();
        arr.prune(pruned);
        assert_eq!(arr.num_live(), 1);
        // This would split both halves if the pruned one were live.
        arr.insert(Halfspace::ge(vec![0.0, 1.0], 0.5), 1);
        assert_eq!(arr.num_live(), 2);
        assert_eq!(arr.cell(pruned).state(), CellState::Pruned);
        assert_eq!(arr.cell(pruned).count(), 1);
        // Leaf cells = 2 live + 1 pruned.
        assert_eq!(arr.leaf_cells().count(), 3);
    }

    #[test]
    fn tangent_halfspace_does_not_split() {
        let mut arr = Arrangement::new(unit_box()).unwrap();
        // w1 ≥ 1 touches only the box boundary: outside (open cells).
        arr.insert(Halfspace::ge(vec![1.0, 0.0], 1.0), 0);
        assert_eq!(arr.num_live(), 1);
        assert_eq!(arr.live_cells().next().unwrap().1.count(), 0);
    }

    #[test]
    fn interior_points_satisfy_their_regions() {
        let mut arr = Arrangement::new(unit_box()).unwrap();
        for (i, h) in [
            Halfspace::ge(vec![1.0, 1.0], 0.8),
            Halfspace::ge(vec![1.0, -0.5], 0.2),
            Halfspace::ge(vec![-1.0, 1.0], -0.1),
        ]
        .into_iter()
        .enumerate()
        {
            arr.insert(h, i as u32);
        }
        for (_, cell) in arr.live_cells() {
            assert!(cell.region().contains(cell.interior()));
            for &id in cell.covered() {
                assert!(arr.halfspace(id).contains(cell.interior()));
            }
            for &id in cell.outside() {
                assert!(!arr.halfspace(id).contains(cell.interior()));
            }
        }
    }

    #[test]
    fn approx_bytes_grows_with_cells() {
        let mut arr = Arrangement::new(unit_box()).unwrap();
        let before = arr.approx_bytes();
        arr.insert(Halfspace::ge(vec![1.0, 0.0], 0.5), 0);
        assert!(arr.approx_bytes() > before);
    }

    #[test]
    fn leaf_cells_tile_the_base_region() {
        // Random sample points of the base must each fall in at least
        // one leaf cell, and all containing leaves must agree on the
        // covering count (disagreement would mean overlap).
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut arr = Arrangement::new(unit_box()).unwrap();
        let hss: Vec<Halfspace> = (0..5)
            .map(|_| {
                Halfspace::ge(
                    vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)],
                    rng.gen_range(-0.3..0.6),
                )
            })
            .collect();
        for (i, h) in hss.iter().enumerate() {
            arr.insert(h.clone(), i as u32);
        }
        for _ in 0..200 {
            let w = [rng.gen_range(0.001..0.999), rng.gen_range(0.001..0.999)];
            let holders: Vec<usize> = arr
                .leaf_cells()
                .filter(|(_, c)| c.region().contains(&w))
                .map(|(_, c)| c.count())
                .collect();
            assert!(!holders.is_empty(), "uncovered point {w:?}");
            let direct = hss.iter().filter(|h| h.contains(&w)).count();
            // Points on cell boundaries may sit in several cells; all
            // must be within one half-space of the true count (the
            // boundary hyperplane itself).
            for c in holders {
                assert!(
                    (c as isize - direct as isize).abs() <= 1,
                    "count {c} vs {direct} at {w:?}"
                );
            }
        }
    }

    #[test]
    fn deep_subdivision_stays_consistent() {
        // A fan of hyperplanes through one point: many thin cells.
        let mut arr = Arrangement::new(unit_box()).unwrap();
        for i in 0..8 {
            let angle = std::f64::consts::PI * (i as f64 + 0.5) / 9.0;
            let h = Halfspace::ge(
                vec![angle.cos(), angle.sin()],
                0.5 * (angle.cos() + angle.sin()),
            );
            arr.insert(h, i);
        }
        assert!(arr.num_live() >= 9, "a fan of 8 lines makes ≥ 9 cells");
        for (_, cell) in arr.live_cells() {
            assert!(cell.region().contains(cell.interior()));
            assert!(cell.slack() > 0.0);
        }
    }
}
