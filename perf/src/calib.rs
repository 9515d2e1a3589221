//! The calibrated clock.
//!
//! The sandbox's speed moves by 20 % and more while a run is under way
//! (README, "Why the clock is calibrated"): the CPU flips between two
//! speed levels every few seconds, and neighbours' memory traffic comes
//! and goes. Identical work cannot tell a slow program from a slow
//! machine, so before every unit the harness times a fixed *reference
//! pair* that lives here and nowhere in the system under test:
//!
//! * [`ref_alu`] — a dependent xorshift chain: sees the CPU's speed level
//!   and nothing else;
//! * [`ref_mem`] — hash-map churn plus small-object churn: sees the speed
//!   level *and* cache and memory contention, as the workloads do.
//!
//! Each unit's time is divided by its own pair's factor, a weighted
//! geometric mean of how much slower than nominal the two kernels ran;
//! every end-to-end time is the median of those calibrated unit times.
//! Calibrating unit by unit (not run by run) matters because the two
//! speed levels make raw unit times bimodal, and the median of a bimodal
//! sample jumps between modes from run to run.
//!
//! The kernels, the weights and the nominal constants are part of the
//! benchmark's definition: changing any of them re-bases every
//! end-to-end time.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Time of [`ref_alu`] on the sizing sandbox at its slower (and more
/// common) speed level; the faster level reads 1.27 ms.
pub const ALU_NOMINAL_NS: f64 = 1_530_000.0;
/// Time of [`ref_mem`] on the sizing sandbox at that level with quiet
/// neighbours; under contention it reads up to 6 ms and more.
pub const MEM_NOMINAL_NS: f64 = 4_650_000.0;
/// Weight of the ALU kernel in the factor. Measured, not assumed:
/// regressing the runs' raw median unit time on the two kernels' median
/// times (20 runs of 30 s per workload) gave exponents of 0.20–0.24 for
/// `ref_alu` and 0.71–0.85 for `ref_mem` on both pipeline workloads and
/// on reach; a later set of 20 runs gave 0.12 and 1.06 for the checker,
/// inside the scatter of the other three in that set (README).
pub const ALU_WEIGHT: f64 = 0.2;
/// Weight of the memory kernel.
pub const MEM_WEIGHT: f64 = 1.0 - ALU_WEIGHT;

const ALU_ITERS: u32 = 800_000;

/// ALU reference: a dependent xorshift64* chain. No memory traffic, no
/// allocation, nothing the optimizer can shorten.
pub fn ref_alu() -> u64 {
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut acc = 0u64;
    for _ in 0..ALU_ITERS {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_f491_4f6c_dd1d));
    }
    black_box(acc);
    t.elapsed().as_nanos() as u64
}

/// Memory reference, two halves timed as one: the diet the engine, the
/// stores and the checker live on.
pub fn ref_mem() -> u64 {
    let t = Instant::now();
    map_churn();
    object_churn();
    t.elapsed().as_nanos() as u64
}

const MAP_OPS: u64 = 20_000;
/// At most `MAP_KEYS` live values of at most 1 KiB: under 4 MiB.
const MAP_KEYS: u64 = 4_000;

/// Insert / look up / clone / remove on a `HashMap<u64, Vec<u8>>`: SipHash
/// probes, variable-size allocation, copying.
fn map_churn() {
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut sum = 0usize;
    for i in 0..MAP_OPS {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let key = x % MAP_KEYS;
        match map.get(&key) {
            Some(v) => {
                let copy = v.clone();
                sum += copy.len() + usize::from(copy[0]);
                if i % 4 == 0 {
                    map.remove(&key);
                }
            }
            None => {
                let len = 64 + (x >> 40) as usize % 960;
                map.insert(key, vec![i as u8; len]);
            }
        }
    }
    black_box((sum, map.len()));
}

/// A site-shaped record: what a runner clone copies and a digest hashes.
#[derive(Clone, Hash)]
struct SiteLike {
    state: u32,
    inbox: Vec<(usize, u32)>,
    log: Vec<u8>,
    view: Vec<bool>,
}

const OBJECT_ROUNDS: u64 = 3_500;

/// Fork a small vector of records, mutate one, hash the lot, count it in a
/// dedup map, read-modify-write a `BTreeMap<Vec<u8>, Vec<u8>>` store and
/// keep a 32-deep event heap: many small allocations, short copies and
/// pointer-chasing compares.
fn object_churn() {
    let base: Vec<SiteLike> = (0..4)
        .map(|i| SiteLike {
            state: i,
            inbox: vec![(1, 2); 3],
            log: vec![7u8; 60],
            view: vec![true; 4],
        })
        .collect();
    let mut store: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut seen: HashMap<u64, u32> = HashMap::new();
    let mut x = 0x9e37_79b9u64;
    let mut acc = 0u64;
    for i in 0..OBJECT_ROUNDS {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let mut fork = base.clone();
        let site = &mut fork[(x % 4) as usize];
        site.state = i as u32;
        site.log.extend_from_slice(&x.to_le_bytes());
        let mut h = DefaultHasher::new();
        fork.hash(&mut h);
        *seen.entry(h.finish() % 3_000).or_insert(0) += 1;
        let key = format!("acct{:06}", x % 512).into_bytes();
        let old = store.get(&key).map_or(0, |v| v.len() as u64);
        store.insert(key, (old + i).to_le_bytes().to_vec());
        heap.push(std::cmp::Reverse((i + x % 7, i)));
        if heap.len() > 32 {
            acc += heap.pop().map_or(0, |r| r.0 .1);
        }
    }
    black_box((acc, seen.len(), store.len()));
}

/// The calibration factor of one reference pair: the weighted geometric
/// mean of the kernels' slowdowns against nominal. 1.0 on the sizing
/// sandbox; 1.2 means "the machine was 20 % slower when this ran".
pub fn cal_factor(alu_ns: f64, mem_ns: f64) -> f64 {
    (alu_ns / ALU_NOMINAL_NS).powf(ALU_WEIGHT) * (mem_ns / MEM_NOMINAL_NS).powf(MEM_WEIGHT)
}

/// Samples on each side of a pair that [`RefClock::factor`] looks at.
const SMOOTH: usize = 2;

/// Reference-pair samples collected over a run, in time order.
#[derive(Default)]
pub struct RefClock {
    alu_ns: Vec<f64>,
    mem_ns: Vec<f64>,
    factors: Vec<f64>,
}

impl RefClock {
    /// Time the pair once, just before whatever it is to calibrate, and
    /// return the sample's index.
    pub fn sample(&mut self) -> usize {
        let (a, m) = (ref_alu() as f64, ref_mem() as f64);
        self.alu_ns.push(a);
        self.mem_ns.push(m);
        self.factors.push(cal_factor(a, m));
        self.factors.len() - 1
    }

    /// A clock with the given factors already sampled (for tests).
    #[cfg(test)]
    pub fn of_factors(factors: Vec<f64>) -> Self {
        Self { factors, ..Self::default() }
    }

    /// The calibration factor of sample `ix`: the median of the five
    /// factors around it (two before, its own, two after; fewer at the
    /// ends). A single 5 ms pair can be hit by a burst that the 100 ms
    /// unit after it barely feels — factors of 3 and 4 occur under heavy
    /// contention — and the speed levels last seconds, so the median of
    /// the neighbourhood is the better reading of the machine's state.
    pub fn factor(&self, ix: usize) -> f64 {
        let lo = ix.saturating_sub(SMOOTH);
        let hi = (ix + SMOOTH + 1).min(self.factors.len());
        median(&self.factors[lo..hi])
    }

    /// Number of pairs sampled.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Median kernel times `(alu, mem)` in nanoseconds.
    pub fn medians(&self) -> (f64, f64) {
        (median(&self.alu_ns), median(&self.mem_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_factor_arithmetic() {
        assert_eq!(cal_factor(ALU_NOMINAL_NS, MEM_NOMINAL_NS), 1.0);
        // Both kernels 21 % slow: the factor is 1.21, and a 121 ms raw
        // unit reads as 100 ms.
        let f = cal_factor(ALU_NOMINAL_NS * 1.21, MEM_NOMINAL_NS * 1.21);
        assert!((f - 1.21).abs() < 1e-12);
        assert!((121.0 / f - 100.0).abs() < 1e-9);
        // Weighted geometric mean: only the memory kernel 50 % slow.
        let f = cal_factor(ALU_NOMINAL_NS, MEM_NOMINAL_NS * 1.5);
        assert!((f - 1.5f64.powf(0.8)).abs() < 1e-12);
        let f = cal_factor(ALU_NOMINAL_NS * 1.5, MEM_NOMINAL_NS);
        assert!((f - 1.5f64.powf(0.2)).abs() < 1e-12);
        // A faster machine gives a factor below one.
        assert!(cal_factor(ALU_NOMINAL_NS * 0.5, MEM_NOMINAL_NS * 0.5) < 1.0);
        assert_eq!(ALU_WEIGHT + MEM_WEIGHT, 1.0, "a pure speed change must scale the factor 1:1");
    }

    #[test]
    fn the_clock_keeps_every_pair_in_order() {
        let mut clock = RefClock::default();
        assert_eq!(clock.sample(), 0);
        assert_eq!(clock.sample(), 1);
        assert_eq!(clock.len(), 2);
        assert!(clock.factor(0) > 0.0 && clock.factor(1).is_finite());
        let (a, m) = clock.medians();
        assert!(a > 0.0 && m > 0.0);
    }

    #[test]
    fn a_factor_is_the_median_of_its_neighbourhood() {
        // One burst-hit pair (4.8) among steady ones must move nothing.
        let clock = RefClock::of_factors(vec![1.0, 4.8, 1.0, 1.0, 1.0, 1.25, 1.25, 1.25]);
        assert_eq!(clock.factor(1), 1.0);
        assert_eq!(clock.factor(0), 1.0, "the ends use the samples there are");
        // A change of level shows once it holds the majority of the window.
        assert_eq!(clock.factor(4), 1.0);
        assert_eq!(clock.factor(5), 1.25);
        assert_eq!(clock.factor(7), 1.25);
    }
}
