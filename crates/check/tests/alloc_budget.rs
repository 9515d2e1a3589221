//! The allocation budget of the walk, so the recycled fork cannot regress
//! silently between benchmark runs: in steady state a generated successor
//! is copied into a runner the worker already owns and judged in scratch
//! the worker already owns, so a check allocates for its dedup maps, its
//! per-plan set-up and little else. At commit 1bc5d01 these walks
//! allocated 35 to 40 times per distinct state — a runner's worth of
//! vectors per fork, freed again by two forks in three.
//!
//! This file is its own test binary with a single test, so nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nbc_check::{run_check, CheckOptions};
use nbc_core::protocols::central_3pc;
use nbc_core::Protocol;
use nbc_paxos::paxos_commit;

/// Pass-through to the system allocator that counts allocation calls.
struct Counting;

// A statistic only: it publishes no other data, so `Relaxed`.
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller vouched for.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls per distinct state a walk may make, `run_check` whole:
/// the analysis, the theorem checks, the per-plan stores and the thread
/// spawn are in, which is why this is an absolute bound with room above
/// the readings below rather than a margin on them — a growth-policy
/// change in `std` must not fail it, one allocation per generated
/// successor (3.5 per distinct state) must. The parent's 28 to 45 fail it
/// ten times over.
const BUDGET_PER_STATE: f64 = 3.0;

/// One walk: its name, protocol and options, and the distinct states it
/// must report.
struct Row {
    name: &'static str,
    protocol: Protocol,
    options: CheckOptions,
    states: usize,
}

#[test]
fn an_exhaustive_walk_stays_within_its_allocation_budget() {
    let all_yes = |p: &Protocol| Some(vec![true; p.n_sites()]);
    let paxos = paxos_commit(2, 1);
    let rows = [
        // Reads 0.96 per distinct state: about the allocations the walk
        // made for 4 676 states under sleep sets alone (0.69 each), over
        // the 3 290 persistent sets leave. 0.82 under fusion, for 4 402
        // states; 0.88 when this budget was set.
        Row {
            name: "central 3PC n=3, all plans",
            protocol: central_3pc(3),
            options: CheckOptions::default(),
            states: 3_290,
        },
        // Reads 0.30 (0.16 under sleep sets alone, for 6 517 states; 0.16
        // under fusion, for 6 514); 0.18 when the budget was set. A runner
        // the walk makes rather than recycles also allocates its box.
        Row {
            name: "paxos:1 n=2, all-yes",
            options: CheckOptions { vote_plan: all_yes(&paxos), ..CheckOptions::default() },
            protocol: paxos,
            states: 3_220,
        },
        // Reads 2.05 (1.71 under sleep sets alone, for 62 392 states; 2.09
        // under fusion, for 62 133); 2.13 when the budget was set. A recovery replays the site's log (`Wal::recover`
        // decodes it into records, `summarize` groups them) in the engine
        // and again in the recovery oracle, and an ordered set copied into a
        // fork that held another one is rebuilt node by node: dearer, and
        // reported as it is.
        Row {
            name: "central 3PC n=3, all plans, --recoveries 1",
            protocol: central_3pc(3),
            options: CheckOptions { recoveries: 1, ..CheckOptions::default() },
            states: 42_533,
        },
    ];
    for row in rows {
        let options = CheckOptions { threads: 1, ..row.options };
        let before = CALLS.load(Ordering::Relaxed);
        let report = run_check(&row.protocol, options).expect("catalog protocols analyse");
        let calls = CALLS.load(Ordering::Relaxed) - before;

        assert!(report.ok() && !report.stats.truncated, "{}: {}", row.name, report.render());
        assert_eq!(report.stats.distinct_states, row.states, "{}", row.name);
        let per_state = calls as f64 / row.states as f64;
        println!("{}: {per_state:.2} allocation calls per distinct state", row.name);
        assert!(
            per_state <= BUDGET_PER_STATE,
            "{}: {per_state:.2} allocations per distinct state, budget {BUDGET_PER_STATE}",
            row.name,
        );
    }
}
