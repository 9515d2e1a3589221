//! The benchmark's tables — workloads, end-to-end metrics, per-layer
//! metrics — and `BENCHMARK.json` rendered from them. The runner emits
//! through the same tables ([`crate::report::Metrics`] rejects a name that
//! is not listed here), so the manifest cannot drift from what runs.

use nbc_obs::json;

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 30;

/// The command the driver runs (it appends `--workload … --seed … --seconds
/// … --trace …`).
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["perf"];

/// A workload and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why this workload (which layers it loads, which it leaves idle).
    pub why: &'static str,
}

/// An end-to-end metric.
pub struct E2eDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric (no bound).
pub struct LayerDef {
    /// Metric name; the prefix before the first dot is the layer (crate).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

/// The four workloads. Load model for all: closed loop, one client, one
/// process, one thread; constant 1-tick simulated network, so latency is
/// processor time only.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "pipeline-steady",
        why: "fault-free Pipeline::run, 4 sites, 4096 accounts, 2PC/3PC/Paxos at in-flight 1/8/64: \
              scheduler, engine step, simnet, WAL and locks on the happy path; check and core idle",
    },
    WorkloadDef {
        name: "pipeline-faulty",
        why: "same driver, 32 hot accounts, 10% coordinator crashes: termination, elections, reaping \
              and wait-die, so a steady-path win that costs the failure path shows",
    },
    WorkloadDef {
        name: "check-exhaustive",
        why: "run_check at one thread (no random input) on 3PC n=3, all plans, and paxos:1 n=2: Runner \
              clone/digest and the dedup store dominate; pipeline, txn and the scheduler do nothing",
    },
    WorkloadDef {
        name: "reach-analysis",
        why: "nbc-core only (no random input): Analysis::build at n=7 retained and streaming, \
              theorem, verify, synthesis; the control no engine, pipeline or checker change should move",
    },
];

/// The four end-to-end metrics, reported on every workload. All times are
/// calibrated (raw / `proc.cal_factor`).
pub const END_TO_END: &[E2eDef] = &[
    E2eDef { name: "setup_s", unit: "s", better: "lower", bound: 0.10 },
    E2eDef { name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.10 },
    E2eDef { name: "unit_ms_p50", unit: "ms", better: "lower", bound: 0.10 },
    E2eDef { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.10 },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> LayerDef {
    LayerDef { name, unit, better }
}

/// Per-layer metrics; every traced run emits every one of them.
pub const PER_LAYER: &[LayerDef] = &[
    // pipeline
    layer("pipeline.txns_per_s.c2pc-if8", "1/s", "higher"),
    layer("pipeline.txns_per_s.c3pc-if8", "1/s", "higher"),
    layer("pipeline.txns_per_s.c3pc-if1", "1/s", "higher"),
    layer("pipeline.txns_per_s.c3pc-if64", "1/s", "higher"),
    layer("pipeline.txns_per_s.paxos1-if8", "1/s", "higher"),
    layer("pipeline.txns_per_s.c2pc-crash10", "1/s", "higher"),
    layer("pipeline.txns_per_s.c3pc-crash10", "1/s", "higher"),
    layer("pipeline.sim_ticks_per_op", "ticks", "lower"),
    layer("pipeline.sim_latency_p50_ticks", "ticks", "lower"),
    layer("pipeline.sim_latency_p99_ticks", "ticks", "lower"),
    layer("pipeline.commit_share", "share", "higher"),
    layer("pipeline.blocked_share", "share", "lower"),
    layer("pipeline.deferrals_per_op", "count", "lower"),
    layer("pipeline.reaps_per_op", "count", "lower"),
    layer("pipeline.decision_wall_us_p50", "us", "lower"),
    layer("pipeline.sched_est_share", "share", "lower"),
    // engine
    layer("engine.round_us.c2pc-5", "us", "lower"),
    layer("engine.round_us.c3pc-5", "us", "lower"),
    layer("engine.round_us.d3pc-4", "us", "lower"),
    layer("engine.round_us.paxos1-3", "us", "lower"),
    layer("engine.round_us.c3pc-5-crash", "us", "lower"),
    layer("engine.runner.new_ns", "ns", "lower"),
    layer("engine.runner.step_ns", "ns", "lower"),
    layer("engine.runner.clone_ns", "ns", "lower"),
    layer("engine.runner.digest_ns", "ns", "lower"),
    layer("engine.runner.pending_events_ns", "ns", "lower"),
    layer("engine.runner.fire_ns", "ns", "lower"),
    layer("engine.clone_est_share", "share", "lower"),
    layer("engine.digest_est_share", "share", "lower"),
    layer("engine.events_per_op", "count", "lower"),
    layer("engine.elections_per_op", "count", "lower"),
    layer("engine.sweep.rounds_per_s", "1/s", "higher"),
    // simnet
    layer("simnet.send_ns", "ns", "lower"),
    layer("simnet.next_event_ns", "ns", "lower"),
    layer("simnet.msgs_per_op", "count", "lower"),
    layer("simnet.dropped_per_op", "count", "lower"),
    layer("simnet.est_share", "share", "lower"),
    // storage
    layer("storage.wal.append_ns", "ns", "lower"),
    layer("storage.wal.sync_batched_ns", "ns", "lower"),
    layer("storage.wal.full_image_ns", "ns", "lower"),
    layer("storage.wal.recover_mb_s", "MiB/s", "higher"),
    layer("storage.kv.redo_records_per_s", "1/s", "higher"),
    layer("storage.crc32.mb_s", "MiB/s", "higher"),
    layer("storage.wal.appends_per_op", "count", "lower"),
    layer("storage.wal.bytes_per_op", "count", "lower"),
    layer("storage.wal.forces_per_op", "count", "lower"),
    layer("storage.wal.syncs_saved_share", "share", "higher"),
    layer("storage.est_share", "share", "lower"),
    // txn
    layer("txn.locks.request_ns", "ns", "lower"),
    layer("txn.locks.release_all_ns", "ns", "lower"),
    layer("txn.locks.est_share", "share", "lower"),
    // paxos
    layer("paxos.msgs_per_op", "count", "lower"),
    layer("paxos.stable_writes_per_op", "count", "lower"),
    // check
    layer("check.states_per_s.c2pc-4", "1/s", "higher"),
    layer("check.states_per_s.c3pc-3", "1/s", "higher"),
    layer("check.states_per_s.paxos1-2", "1/s", "higher"),
    layer("check.distinct_states", "count", "lower"),
    layer("check.actions_per_state", "count", "lower"),
    layer("check.fused_share", "share", "higher"),
    layer("check.replay_strict_us", "us", "lower"),
    layer("check.shrink_ms", "ms", "lower"),
    layer("check.states_per_s.c3pc-4-t2", "1/s", "higher"),
    layer("check.states_per_s.c3pc-4-spill64k", "1/s", "higher"),
    layer("check.speedup_t2", "x", "higher"),
    layer("check.spill_slowdown", "x", "lower"),
    // core
    layer("core.reach.states_per_s.c2pc-7", "1/s", "higher"),
    layer("core.reach.states_per_s.c3pc-7-stream", "1/s", "higher"),
    layer("core.reach.states_per_s.d3pc-5", "1/s", "higher"),
    layer("core.reach.edges_per_state", "count", "lower"),
    layer("core.reach.peak_resident_share", "share", "lower"),
    layer("core.analysis.from_graph_ms", "ms", "lower"),
    layer("core.theorem.check_us", "us", "lower"),
    layer("core.verify.ms", "ms", "lower"),
    layer("core.synthesis.ms", "ms", "lower"),
    layer("core.fingerprint128_ns", "ns", "lower"),
    // obs / spec
    layer("obs.trace_overhead_share", "share", "lower"),
    layer("obs.events_per_op", "count", "lower"),
    layer("obs.export.jsonl_events_per_s", "1/s", "higher"),
    layer("obs.analyze.parse_events_per_s", "1/s", "higher"),
    layer("spec.parse_us", "us", "lower"),
    // proc
    layer("proc.cal_factor", "x", "lower"),
    layer("proc.raw_ops_per_s", "1/s", "higher"),
    layer("proc.unit_ms_p90", "ms", "lower"),
    layer("proc.units", "count", "higher"),
    layer("proc.cpu_util", "share", "higher"),
    layer("proc.allocs_per_op", "count", "lower"),
    layer("proc.alloc_bytes_per_op", "count", "lower"),
    layer("proc.bench_self_share", "share", "lower"),
];

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>, indent: &str| {
        format!("[\n{indent}  {}\n{indent}]", items.join(&format!(",\n{indent}  ")))
    };
    let strings = |xs: &[&str]| xs.iter().map(|s| json::string(s)).collect::<Vec<_>>().join(", ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            // The table wraps long reasons across source lines.
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            format!("{{\"name\": {}, \"why\": {}}}", json::string(w.name), json::string(&why))
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(COMMAND),
        strings(PATHS),
        list(workloads, "  "),
        list(end_to_end, "  "),
        list(per_layer, "  "),
    )
}

/// Check the tables against the driver's contract. Returns every breach.
pub fn validate() -> Vec<String> {
    let mut errs = Vec::new();
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    };
    let better_ok = |b: &str| b == "higher" || b == "lower";
    if !(2..=8).contains(&WORKLOADS.len()) {
        errs.push(format!("{} workloads, need 2 to 8", WORKLOADS.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        errs.push(format!("{} end-to-end metrics, need 1 to 16", END_TO_END.len()));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        errs.push(format!("{} per-layer metrics, need 1 to 128", PER_LAYER.len()));
    }
    if !(1..=60).contains(&RUN_SECONDS) {
        errs.push(format!("run_seconds {RUN_SECONDS} outside 1..=60"));
    }
    let mut names: Vec<&str> = Vec::new();
    for w in WORKLOADS {
        names.push(w.name);
        let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        if why.len() > 200 || why.is_empty() {
            errs.push(format!("workload {}: why has {} characters", w.name, why.len()));
        }
    }
    for m in END_TO_END {
        names.push(m.name);
        if !unit_ok(m.unit) || !better_ok(m.better) {
            errs.push(format!("{}: bad unit or direction", m.name));
        }
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            errs.push(format!("{}: bound {} outside (0, 0.25]", m.name, m.bound));
        }
    }
    for m in PER_LAYER {
        names.push(m.name);
        if !unit_ok(m.unit) || !better_ok(m.better) {
            errs.push(format!("{}: bad unit or direction", m.name));
        }
    }
    for n in &names {
        if !name_ok(n) {
            errs.push(format!("name {n:?} is outside [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"));
        }
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    for pair in sorted.windows(2) {
        if pair[0] == pair[1] {
            errs.push(format!("name {:?} is used twice", pair[0]));
        }
    }
    match END_TO_END.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == "lower" => {
            if END_TO_END.iter().any(|o| o.bound > m.bound) {
                errs.push("setup_s must carry the largest bound".to_string());
            }
        }
        _ => errs.push("end_to_end needs setup_s in s, lower is better".to_string()),
    }
    if COMMAND.len() + 8 > 32 || COMMAND.iter().any(|c| c.len() > 200) {
        errs.push("command too long".to_string());
    }
    if benchmark_json().len() > 64 * 1024 {
        errs.push("BENCHMARK.json exceeds 64 KiB".to_string());
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_meet_the_driver_contract() {
        let errs = validate();
        assert!(errs.is_empty(), "{errs:#?}");
        assert_eq!(WORKLOADS.len(), 4);
        assert_eq!(END_TO_END.len(), 4);
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json drifted from perf/src/manifest.rs; regenerate it with `perf manifest`"
        );
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let json::Value::Obj(fields) = json::parse(&benchmark_json()).expect("valid JSON") else {
            panic!("BENCHMARK.json must be an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
    }
}
