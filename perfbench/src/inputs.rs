// utk-lint: class=bench
//! Seeded inputs: datasets, query regions, zoom sessions and dataset
//! mutations. Everything here is a pure function of the workload seed,
//! so one seed always yields the same inputs.

use utk_data::csv::write_csv;
use utk_data::synthetic::{generate, Distribution};

/// The rank bound of every query (paper Table 1 default).
pub const K: usize = 10;
/// Dimensionality of every dataset (paper Table 1 default).
pub const D: usize = 4;

/// Callers ask UTK2 about a region only when its UTK1 answer has at
/// most this many records. UTK2's partition grows steeply with the
/// answer: on ANTI at n = 400,000 and σ = 1%, a region with 52 UTK1
/// records took 10.5 s, one with 35 took 4.2 s and ones with 21–30
/// took 80–700 ms, while 90% of regions have at most 16. Without the
/// cap a single region can outlast a whole run; with it about 3% of
/// `paper_anti` regions skip UTK2.
pub const UTK2_MAX_RECORDS: usize = 20;

/// Region coordinates live on a grid of this many steps per axis, so a
/// printed query line parses back to exactly the box that was drawn
/// and nested zoom boxes stay contained after printing.
const GRID: u64 = 1_000_000;
/// Keep boxes this far (in grid steps) inside the simplex face
/// `Σ w = 1`, clear of rounding in the engine's domain check.
const SIMPLEX_MARGIN: u64 = 1_000;

/// SplitMix64: a tiny, dependency-free, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x7574_6b62_656e_6368) // "utkbench"
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A generated `n × D` dataset as unlabeled CSV text: the file the
/// server loads, and the text every local engine parses.
pub fn dataset_csv(dist: Distribution, n: usize, seed: u64) -> String {
    write_csv(&generate(dist, n, D, seed), None)
}

/// An axis-parallel box in the `D − 1`-dimensional preference domain,
/// in grid steps.
#[derive(Debug, Clone, PartialEq)]
pub struct QBox {
    lo: Vec<u64>,
    hi: Vec<u64>,
}

impl QBox {
    /// A cube of side `sigma` (a fraction of the axis), placed
    /// uniformly at random inside the preference simplex — the paper's
    /// §7 query regions.
    pub fn random(rng: &mut Rng, sigma: f64) -> QBox {
        let side = (sigma * GRID as f64).round() as u64;
        let dp = D - 1;
        loop {
            let lo: Vec<u64> = (0..dp).map(|_| rng.below(GRID - side)).collect();
            let hi: Vec<u64> = lo.iter().map(|l| l + side).collect();
            if hi.iter().sum::<u64>() <= GRID - SIMPLEX_MARGIN {
                return QBox { lo, hi };
            }
        }
    }

    /// A box of half this one's side, placed uniformly inside it.
    pub fn zoom(&self, rng: &mut Rng) -> QBox {
        let side = (self.hi[0] - self.lo[0]) / 2;
        let lo: Vec<u64> = self.lo.iter().map(|l| l + rng.below(side + 1)).collect();
        let hi = lo.iter().map(|l| l + side).collect();
        QBox { lo, hi }
    }

    /// A weight vector (reduced `D − 1` form) inside the box.
    pub fn inner_weights(&self, rng: &mut Rng) -> String {
        let w: Vec<u64> = self
            .lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| l + rng.below(h - l + 1))
            .collect();
        coords(&w)
    }

    /// The `--lo … --hi …` flags of a query line.
    pub fn flags(&self) -> String {
        format!("--lo {} --hi {}", coords(&self.lo), coords(&self.hi))
    }
}

fn coords(v: &[u64]) -> String {
    let parts: Vec<String> = v
        .iter()
        .map(|&x| format!("{}", x as f64 / GRID as f64))
        .collect();
    parts.join(",")
}

/// The query line of one UTK1 or UTK2 query over `region`.
pub fn utk_line(kind: &str, region: &QBox) -> String {
    format!("{kind} --k {K} {}", region.flags())
}

/// One step of an exploration session: a region and the query lines
/// asked about it.
#[derive(Debug, Clone)]
pub struct Step {
    pub utk1: String,
    pub utk2: String,
    pub topk: String,
}

/// An exploration session: `steps` nested zooms starting from `base`.
/// Each step asks UTK1, UTK2 and a top-k at weights inside the zoom.
pub fn zoom_session(rng: &mut Rng, base: &QBox, steps: usize) -> Vec<Step> {
    let mut region = base.clone();
    let mut out = Vec::with_capacity(steps);
    for i in 0..steps {
        if i > 0 {
            region = region.zoom(rng);
        }
        out.push(Step {
            utk1: utk_line("utk1", &region),
            utk2: utk_line("utk2", &region),
            topk: format!("topk --k {K} --weights {}", region.inner_weights(rng)),
        });
    }
    out
}

/// One dataset mutation: ids to delete (against the dataset as it is
/// when the mutation applies) and rows to append.
#[derive(Debug, Clone, PartialEq)]
pub struct Mutation {
    pub deletes: Vec<u32>,
    pub inserts: Vec<Vec<f64>>,
}

/// Deletes 1–2 distinct ids of an `n`-record dataset and inserts 1–2
/// fresh rows drawn from `dist`.
pub fn mutation(rng: &mut Rng, n: usize, dist: Distribution) -> Mutation {
    let mut deletes = vec![rng.below(n as u64) as u32];
    if rng.below(2) == 1 {
        let second = rng.below(n as u64) as u32;
        if second != deletes[0] {
            deletes.push(second);
        }
    }
    let rows = 1 + rng.below(2) as usize;
    let inserts = generate(dist, rows, D, rng.next_u64()).points;
    Mutation { deletes, inserts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let base_a = QBox::random(&mut a, 0.02);
        let base_b = QBox::random(&mut b, 0.02);
        assert_eq!(base_a, base_b);
        let sa: Vec<String> = zoom_session(&mut a, &base_a, 4)
            .into_iter()
            .map(|s| s.topk)
            .collect();
        let sb: Vec<String> = zoom_session(&mut b, &base_b, 4)
            .into_iter()
            .map(|s| s.topk)
            .collect();
        assert_eq!(sa, sb);
        assert_ne!(QBox::random(&mut Rng::new(8), 0.02), base_a);
    }

    #[test]
    fn zooms_nest_and_stay_in_the_simplex() {
        let mut rng = Rng::new(1);
        for _ in 0..200 {
            let mut outer = QBox::random(&mut rng, 0.02);
            assert!(outer.hi.iter().sum::<u64>() <= GRID - SIMPLEX_MARGIN);
            for _ in 0..3 {
                let inner = outer.zoom(&mut rng);
                for i in 0..D - 1 {
                    assert!(outer.lo[i] <= inner.lo[i] && inner.hi[i] <= outer.hi[i]);
                }
                outer = inner;
            }
        }
    }

    #[test]
    fn mutations_name_distinct_live_ids() {
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            let m = mutation(&mut rng, 5, Distribution::Anti);
            assert!(m.deletes.iter().all(|&id| id < 5));
            assert!(m.deletes.len() < 2 || m.deletes[0] != m.deletes[1]);
            assert!((1..=2).contains(&m.inserts.len()));
            assert!(m.inserts.iter().all(|r| r.len() == D));
        }
    }
}
