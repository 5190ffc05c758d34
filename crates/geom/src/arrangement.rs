//! The half-space arrangement index (§4.5 of the paper).
//!
//! Cells (the paper's *partitions*) are kept implicitly: each cell
//! records the ids of the inserted half-spaces that cover it and the
//! ids it lies outside of, plus its geometry ([`CellGeom`]): the
//! explicit constraint list, a cached interior point and, while it can
//! be tracked, the cell's vertex list. Inserting a half-space walks the
//! live cells and splits those it straddles — the binary-subdivision
//! scheme of Tang et al. \[45\] that the paper adopts, in its "many
//! small, disposable indices" flavour: RSA/JAA build one `Arrangement`
//! per `Verify`/`Partition` call and discard it when recursion descends
//! into a promising sub-cell.
//!
//! Most (half-space, cell) pairs of an insertion leave the cell whole:
//! the half-space covers it or misses it. A cell with a vertex list
//! settles those pairs from the signs of the half-space at its
//! vertices — a *vertex certificate* — and solves a Chebyshev LP only
//! when the vertices straddle the hyperplane or come within the
//! certificate margin of it. Splits always solve the LP, so cell
//! interiors do not depend on whether a list was tracked. The list is
//! seeded from the base region's corners (boxes) or listed vertices,
//! clipped at every split, and dropped — for the cell and all its
//! descendants — when it outgrows `VERTEX_CAP` or a clip cannot bound
//! its own error. Invariant: a certificate implies the LP would have
//! found no interior on the certified-away side. Debug builds re-solve
//! that LP for every certificate and assert it; the
//! `certificate_agrees_with_lp` proptest in `crates/geom/tests` guards
//! release builds.

use crate::halfspace::{Constraint, Halfspace};
use crate::region::Region;
use crate::tol::INTERIOR_EPS;

/// Identifier of a cell within one [`Arrangement`].
pub type CellId = usize;

/// Most vertices a cell's list may hold before it is dropped and the
/// cell (and its descendants) fall back to LPs. Also the corner cap for
/// seeding: boxes of more than 8 dimensions start without a list.
const VERTEX_CAP: usize = 256;

/// A vertex within this distance of the hyperplane (in units of the
/// half-space's `coef·w − rhs`) lies on it and goes to both children
/// of a split. It bounds the rounding error of evaluating a normalized
/// half-space at a preference-domain point, with room to spare.
const SIDE_EPS: f64 = 1e-13;

/// A constraint is tight at a vertex when the vertex satisfies it with
/// equality up to this residual. Generous on purpose: a missed tight
/// constraint could lose an edge (and a child vertex), while a spurious
/// one only adds a point on a segment inside the cell.
const TIGHT_EPS: f64 = 1e-10;

/// Error budget of a vertex list: the ∞-norm distance by which the
/// cell may reach beyond the hull of its list, summed over the splits
/// that produced it. A list whose bound would pass this is dropped.
const VERTEX_ERR: f64 = 1e-9;

/// How far every vertex must clear the hyperplane, beyond the list's
/// own error, for a certificate. It covers the rounding of the
/// evaluation itself.
const CERT_MARGIN: f64 = 1e-9;

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

/// The geometry of one convex cell: its region, a cached interior
/// point with the slack around it, and, when known, its vertex list.
/// A [`Cell`] yields it and an [`Arrangement`] is built from it, so a
/// recursion that descends into a cell carries all of it as one value.
#[derive(Debug, Clone)]
pub struct CellGeom {
    region: Region,
    interior: Vec<f64>,
    slack: f64,
    vertices: Option<Vertices>,
}

/// A cell's vertex list, row-major with stride `dim`.
#[derive(Debug, Clone)]
struct Vertices {
    coords: Box<[f64]>,
    /// Bound on how far (∞-norm) the cell may reach beyond the hull of
    /// `coords`; at most [`VERTEX_ERR`].
    err: f64,
}

impl CellGeom {
    /// The geometry of `region` with a known interior point (the
    /// caller vouches for it). The vertex list is seeded from the
    /// region's box corners or listed vertices, when it has at most
    /// 256 of them.
    pub fn new(region: Region, interior: Vec<f64>, slack: f64) -> Self {
        let vertices = region.vertex_store(VERTEX_CAP).map(|s| Vertices {
            coords: s.as_flat().into(),
            err: 0.0,
        });
        Self {
            region,
            interior,
            slack,
            vertices,
        }
    }

    /// The cell's region (base region plus side constraints).
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// A point strictly inside the cell.
    pub fn interior(&self) -> &[f64] {
        &self.interior
    }

    /// Interior slack (radius of a ball around [`CellGeom::interior`]
    /// that fits inside).
    pub fn slack(&self) -> f64 {
        self.slack
    }

    /// The tracked vertices, one row each.
    pub fn vertices(&self) -> Option<impl Iterator<Item = &[f64]>> {
        let dim = self.region.dim();
        self.vertices.as_ref().map(|v| v.coords.chunks_exact(dim))
    }

    /// Settles the cell against `hs` from its vertices alone:
    /// `Inside` or `Outside` when every vertex clears the hyperplane by
    /// the margin on the same side, `None` when an LP must decide.
    pub fn certify(&self, hs: &Halfspace) -> Option<CellPosition> {
        let list = self.vertices.as_ref()?;
        let l1: f64 = hs.coef.iter().map(|c| c.abs()).sum();
        let margin = CERT_MARGIN + l1 * list.err;
        let mut rows = list.coords.chunks_exact(self.region.dim());
        let first = hs.eval(rows.next()?);
        if first > margin {
            rows.all(|v| hs.eval(v) > margin)
                .then_some(CellPosition::Inside)
        } else if first < -margin {
            rows.all(|v| hs.eval(v) < -margin)
                .then_some(CellPosition::Outside)
        } else {
            None
        }
    }

    /// The two sides of a split by `hs`, given each side's interior
    /// point and slack (from the LP that found them). The vertex list
    /// moves to the children: a split cell is never classified again.
    fn split(
        &mut self,
        hs: &Halfspace,
        inside: (Vec<f64>, f64),
        outside: (Vec<f64>, f64),
    ) -> (CellGeom, CellGeom) {
        let (in_list, out_list) = match self.vertices.take() {
            Some(list) => list.clip(self.region.dim(), self.region.constraints(), hs),
            None => (None, None),
        };
        let side = |c: Constraint, (interior, slack): (Vec<f64>, f64), vertices| CellGeom {
            region: self.region.with_constraint(c),
            interior,
            slack,
            vertices,
        };
        (
            side(hs.inside_constraint(), inside, in_list),
            side(hs.outside_constraint(), outside, out_list),
        )
    }

    fn approx_bytes(&self) -> usize {
        self.region.approx_bytes()
            + self.interior.capacity() * 8
            + self.vertices.as_ref().map_or(0, |v| v.coords.len() * 8)
    }
}

impl Vertices {
    /// The lists of the two sides of a cut by `hs`, for the cell
    /// bounded by `constraints`: the inside list, then the outside one.
    ///
    /// Each side keeps its own vertices, and vertices on the
    /// hyperplane go to both. Every pair `u` strictly inside, `w`
    /// strictly outside that shares at least `dim − 1` constraints
    /// tight at both adds its crossing point to both sides. Every edge
    /// of the cell is such a pair, so every vertex of each side is
    /// produced; any other pair's segment lies inside the cell, so an
    /// extra point never enlarges a side's hull.
    ///
    /// A crossing's position along its segment is known to
    /// `SIDE_EPS · |w − u|∞ / (h(u) − h(w))`; the same bound covers a
    /// vertex on the hyperplane standing in for the crossing next to
    /// it. The worst of these is added to the list's error, and both
    /// lists are dropped when it passes [`VERTEX_ERR`]. A side is also
    /// dropped when it has more than [`VERTEX_CAP`] points or too few
    /// to span a full-dimensional cell.
    fn clip(
        &self,
        dim: usize,
        constraints: &[Constraint],
        hs: &Halfspace,
    ) -> (Option<Self>, Option<Self>) {
        let rows: Vec<&[f64]> = self.coords.chunks_exact(dim).collect();
        let h: Vec<f64> = rows.iter().map(|v| hs.eval(v)).collect();
        let side: Vec<i8> = h
            .iter()
            .map(|&x| {
                if x > SIDE_EPS {
                    1
                } else if x < -SIDE_EPS {
                    -1
                } else {
                    0
                }
            })
            .collect();

        // Tight constraints per vertex, as bitsets of `words` words.
        let words = constraints.len().div_ceil(64);
        let mut tight = vec![0u64; rows.len() * words];
        for (v, bits) in rows.iter().zip(tight.chunks_exact_mut(words.max(1))) {
            for (j, c) in constraints.iter().enumerate() {
                if c.eval(v).abs() <= TIGHT_EPS {
                    bits[j / 64] |= 1 << (j % 64);
                }
            }
        }
        let shared = |i: usize, j: usize| -> usize {
            (0..words)
                .map(|w| (tight[i * words + w] & tight[j * words + w]).count_ones() as usize)
                .sum()
        };

        let mut crossings = Vec::new();
        let mut split_err = 0.0_f64;
        for i in (0..rows.len()).filter(|&i| side[i] >= 0) {
            for j in (0..rows.len()).filter(|&j| side[j] <= 0) {
                if (side[i] == 0 && side[j] == 0) || shared(i, j) + 1 < dim {
                    continue;
                }
                let (u, w) = (rows[i], rows[j]);
                let delta = h[i] - h[j];
                let span = u
                    .iter()
                    .zip(w)
                    .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
                split_err = split_err.max(SIDE_EPS * span / delta);
                if side[i] > 0 && side[j] < 0 {
                    let t = h[i] / delta;
                    crossings.extend(u.iter().zip(w).map(|(a, b)| a + t * (b - a)));
                }
            }
        }
        let err = self.err + split_err;
        if err.is_nan() || err > VERTEX_ERR {
            return (None, None);
        }
        let keep = |want: i8| -> Option<Self> {
            let own = side.iter().filter(|&&s| s == 0 || s == want).count();
            let count = own + crossings.len() / dim;
            if count <= dim || count > VERTEX_CAP {
                return None;
            }
            let mut coords = Vec::with_capacity(count * dim);
            for (v, &s) in rows.iter().zip(&side) {
                if s == 0 || s == want {
                    coords.extend_from_slice(v);
                }
            }
            coords.extend_from_slice(&crossings);
            Some(Self {
                coords: coords.into_boxed_slice(),
                err,
            })
        };
        (keep(1), keep(-1))
    }
}

/// One cell of the arrangement.
#[derive(Debug, Clone)]
pub struct Cell {
    geom: CellGeom,
    covered: Vec<u32>,
    outside: Vec<u32>,
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

    /// The cell's geometry: region, interior point, slack and vertex
    /// list, as one value a new [`Arrangement`] can be built from.
    pub fn geom(&self) -> &CellGeom {
        &self.geom
    }

    /// The cell's geometry (base region plus side constraints).
    pub fn region(&self) -> &Region {
        &self.geom.region
    }

    /// A cached interior point of the cell.
    pub fn interior(&self) -> &[f64] {
        &self.geom.interior
    }

    /// Current lifecycle state.
    pub fn state(&self) -> CellState {
        self.state
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.geom.approx_bytes()
            + (self.covered.capacity() + self.outside.capacity()) * 4
    }
}

/// An incrementally-built arrangement of half-spaces inside a convex
/// base region.
#[derive(Debug, Clone)]
pub struct Arrangement {
    halfspaces: Vec<Halfspace>,
    tags: Vec<u32>,
    /// Every cell ever created; the root (the base region) is first.
    cells: Vec<Cell>,
    lp: LpWork,
}

/// The linear programs an [`Arrangement`] has solved: the root
/// interior point (when [`Arrangement::new`] found it) plus every
/// cell-versus-half-space interior test of an insertion. Vertex
/// certificates solve nothing and are not counted.
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
        let rows = base.constraints().len();
        let mut arr = Self::from_geom(CellGeom::new(base, interior, slack));
        arr.lp.solved(rows);
        Some(arr)
    }

    /// Starts an arrangement over a known cell geometry — typically a
    /// cell of an earlier arrangement, whose interior point and vertex
    /// list carry over (skips the root LP).
    pub fn from_geom(root: CellGeom) -> Self {
        Self {
            halfspaces: Vec::new(),
            tags: Vec::new(),
            cells: vec![Cell {
                geom: root,
                covered: Vec::new(),
                outside: Vec::new(),
                state: CellState::Live,
            }],
            lp: LpWork::default(),
        }
    }

    /// The base region the arrangement subdivides.
    pub fn base(&self) -> &Region {
        &self.cells[0].geom.region
    }

    /// Preference-domain dimensionality.
    pub fn dim(&self) -> usize {
        self.base().dim()
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
        let region = &self.cells[ci].geom.region;
        self.lp.solved(region.constraints().len() + 1);
        region.has_interior_with(c)
    }

    /// Records that half-space `id` covers cell `ci` (`covers`) or
    /// misses it.
    fn mark(&mut self, ci: CellId, id: u32, covers: bool) -> CellPosition {
        let cell = &mut self.cells[ci];
        if covers {
            cell.covered.push(id);
            CellPosition::Inside
        } else {
            cell.outside.push(id);
            CellPosition::Outside
        }
    }

    /// Decides the position of cell `ci` relative to `hs` and applies
    /// the outcome (cover/outside marking or a split).
    fn classify_and_split(&mut self, ci: CellId, hs: &Halfspace, id: u32) -> CellPosition {
        if let Some(pos) = self.cells[ci].geom.certify(hs) {
            #[cfg(debug_assertions)]
            {
                // The certified-away side must have no interior: the
                // LP the certificate replaced would have said so too.
                let away = match pos {
                    CellPosition::Inside => hs.outside_constraint(),
                    _ => hs.inside_constraint(),
                };
                let region = &self.cells[ci].geom.region;
                assert!(
                    region.has_interior_with(&away).is_none(),
                    "vertex certificate {pos:?} contradicts the LP for {hs:?} over {region:?}"
                );
            }
            return self.mark(ci, id, pos == CellPosition::Inside);
        }

        let val = hs.eval(&self.cells[ci].geom.interior);
        // The side holding the cached interior point is non-empty
        // whenever the point clears the hyperplane by a safe margin.
        let margin = INTERIOR_EPS;
        let keep_parent = |cell: &Cell| (cell.geom.interior.clone(), cell.geom.slack);
        let (in_side, out_side) = if val > margin {
            // Interior point is inside; probe the outside part.
            match self.probe(ci, &hs.outside_constraint()) {
                None => return self.mark(ci, id, true),
                Some(o) => (keep_parent(&self.cells[ci]), o),
            }
        } else if val < -margin {
            match self.probe(ci, &hs.inside_constraint()) {
                None => return self.mark(ci, id, false),
                Some(i) => (i, keep_parent(&self.cells[ci])),
            }
        } else {
            // Interior point sits (numerically) on the hyperplane:
            // probe both sides.
            let inn = self.probe(ci, &hs.inside_constraint());
            let out = self.probe(ci, &hs.outside_constraint());
            match (inn, out) {
                (Some(i), Some(o)) => (i, o),
                (Some(_), None) => return self.mark(ci, id, true),
                (None, Some(_)) => return self.mark(ci, id, false),
                // Degenerate sliver; classify by the point's side.
                (None, None) if val >= 0.0 => return self.mark(ci, id, true),
                (None, None) => return self.mark(ci, id, false),
            }
        };

        // Split: both sides are full-dimensional.
        let (in_geom, out_geom) = self.cells[ci].geom.split(hs, in_side, out_side);
        let parent = &self.cells[ci];
        let mut inside_cell = Cell {
            geom: in_geom,
            covered: parent.covered.clone(),
            outside: parent.outside.clone(),
            state: CellState::Live,
        };
        inside_cell.covered.push(id);
        let mut outside_cell = Cell {
            geom: out_geom,
            covered: parent.covered.clone(),
            outside: parent.outside.clone(),
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

    /// Rough live-memory estimate (Figure 13(b) space accounting),
    /// vertex lists included. The [`LpWork`] counters are bookkeeping,
    /// not index, so they are left out.
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
        // A covering half-space clears every vertex of both halves:
        // their vertex certificates settle it without an LP.
        arr.insert(Halfspace::ge(vec![1.0, 1.0], -1.0), 1);
        assert_eq!(
            arr.lp_work(),
            LpWork {
                solves: 3,
                rows: 14
            }
        );
        // A caller-supplied interior point skips the root LP.
        let seeded = Arrangement::from_geom(CellGeom::new(unit_box(), vec![0.5, 0.5], 0.5));
        assert_eq!(seeded.lp_work(), LpWork::default());
    }

    #[test]
    fn vertexless_cells_settle_by_lp() {
        // The same box given by constraints alone has no vertex list:
        // the covering half-space costs one probe per live cell, each
        // over the cell's 5 rows plus the probe's own.
        let raw = Region::from_constraints(2, unit_box().constraints().to_vec());
        let mut arr = Arrangement::new(raw).unwrap();
        assert!(arr.cell(0).geom().vertices().is_none());
        arr.insert(Halfspace::ge(vec![1.0, 0.0], 0.5), 0);
        arr.insert(Halfspace::ge(vec![1.0, 1.0], -1.0), 1);
        assert_eq!(
            arr.lp_work(),
            LpWork {
                solves: 5,
                rows: 26
            }
        );
    }

    #[test]
    fn splits_clip_vertex_lists() {
        let mut arr = Arrangement::new(unit_box()).unwrap();
        // w1 ≥ 0.5 halves the box: each half has its own two corners
        // plus the two crossings (0.5, 0) and (0.5, 1).
        arr.insert(Halfspace::ge(vec![1.0, 0.0], 0.5), 0);
        for (_, cell) in arr.live_cells() {
            let mut vs: Vec<Vec<f64>> = cell
                .geom()
                .vertices()
                .unwrap()
                .map(<[f64]>::to_vec)
                .collect();
            vs.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
            let x = if cell.count() == 1 { 1.0 } else { 0.0 };
            let mut want: Vec<Vec<f64>> =
                vec![vec![0.5, 0.0], vec![0.5, 1.0], vec![x, 0.0], vec![x, 1.0]];
            want.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
            assert_eq!(vs, want);
        }
        // A cut through the corner (0.5, 0) of the right half and its
        // edge point (1, 0.5) keeps that corner on both sides: a
        // triangle and a quadrilateral.
        arr.insert(Halfspace::ge(vec![1.0, -1.0], 0.5), 1);
        let right: Vec<_> = arr
            .live_cells()
            .filter(|(_, c)| c.interior()[0] > 0.5)
            .map(|(_, c)| c.geom().vertices().unwrap().count())
            .collect();
        assert_eq!(right.len(), 2);
        assert!(right.contains(&3) && right.contains(&4));
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
            assert!(cell.geom().slack() > 0.0);
        }
    }
}
