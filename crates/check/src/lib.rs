//! # nbc-check — a schedule-exploring model checker for the engine
//!
//! `nbc-core` *predicts* how a commit protocol behaves (reachable state
//! graph, concurrency sets, the fundamental nonblocking theorem);
//! `nbc-engine` *executes* it. This crate drives the real engine
//! [`Runner`] through **every** interleaving of
//! message delivery, message loss, site crash, site recovery and
//! imperfect-detector suspicion (including *false* suspicion of live
//! sites, and its revocation) within configurable budgets, and
//! cross-validates the two against each other with four oracles:
//!
//! 1. **consistency** — no execution mixes commit and abort;
//! 2. **prediction** — every local state a site operationally occupies is
//!    analytically reachable, and (at full depth, over all vote plans)
//!    every analytically reachable state is operationally witnessed;
//! 3. **nonblocking** — protocols the theorem certifies nonblocking never
//!    leave an operational site blocked within their resilience bound,
//!    while blocking protocols must yield a blocking witness;
//! 4. **recovery** — at every crash-recovery point the WAL replays
//!    cleanly into a position compatible with the already-taken decision.
//!
//! Witnesses and violations are shrunk to 1-minimal schedules and emitted
//! as replayable JSONL (see [`Schedule`]) that `nbc simulate --schedule`
//! re-executes byte-for-byte. The whole pipeline is deterministic: the
//! same protocol and options produce the same report, byte for byte, *at
//! any thread count and any traversal seed* — the parallel sweep only
//! flags order-independent facts, concrete witnesses come from the same
//! walk run alone in canonical order, and a `--max-states`-truncated
//! plan is redone by that same run so even truncated counts are
//! schedule-independent (see [`explore`]). Setting a
//! [`mem_budget`](CheckOptions::mem_budget) spills the fingerprint store
//! to sorted disk runs without changing a byte of the report either.

pub mod explore;
mod oracle;
mod schedule;
mod shrink;

use nbc_core::{resilience, theorem, Analysis, Protocol, ProtocolError, ReachOptions, SpillStats};
use nbc_engine::{Runner, TerminationRule};

use explore::ExploreStats;
use schedule::ReplayError;
use shrink::drain;

pub use explore::{CheckOptions, CheckProgress};
pub use oracle::Oracles;
pub use schedule::{replay_lenient, replay_strict, Schedule, Step};
pub use shrink::shrink;

/// The CLI name of a termination rule (shared vocabulary with `nbc run
/// --rule` and schedule headers).
pub fn rule_name(rule: TerminationRule) -> &'static str {
    match rule {
        TerminationRule::Skeen => "skeen",
        TerminationRule::NaiveCs => "naive",
        TerminationRule::Cooperative => "cooperative",
        TerminationRule::QuorumSkeen => "quorum",
    }
}

/// Parse a termination rule name (inverse of [`rule_name`]).
pub fn rule_from_name(name: &str) -> Option<TerminationRule> {
    use TerminationRule::{Cooperative, NaiveCs, QuorumSkeen, Skeen};
    [Skeen, NaiveCs, Cooperative, QuorumSkeen].into_iter().find(|&rule| rule_name(rule) == name)
}

/// Re-execute a counterexample [`Schedule`] with a flight recorder
/// attached and return the recorder's JSONL dump — the causal event tail
/// that ships next to the counterexample file so `nbc trace` can
/// reconstruct what led up to the violation. [`shrink`] materialised the
/// schedule, so every step applies (one that does not is an error). After
/// it, the run is drained to quiescence so the dump captures the
/// aftermath, not just the injected steps.
pub fn replay_flight_dump(
    protocol: &Protocol,
    sched: &Schedule,
    capacity: usize,
) -> Result<String, CheckError> {
    use nbc_obs::{FlightRecorder, SharedSink, Tracer};
    let rule =
        rule_from_name(&sched.rule).ok_or_else(|| CheckError::UnknownRule(sched.rule.clone()))?;
    // The runner reads facts, never a graph: stream the analysis.
    let analysis = Analysis::build_with(protocol, ReachOptions::default().with_streaming(true))?;
    let rec = SharedSink::new(FlightRecorder::new(capacity));
    let cfg = explore::plan_config(sched.n, &sched.votes, rule);
    let mut runner = Runner::with_tracer(protocol, &analysis, cfg, Tracer::to_sink(rec.clone()));
    replay_strict(&mut runner, &sched.steps).map_err(CheckError::Replay)?;
    drain(&mut runner, &mut Vec::new());
    Ok(rec.with(|r| r.dump_jsonl()))
}

/// Why a check could not run at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The protocol failed validation or analysis.
    Protocol(ProtocolError),
    /// [`CheckOptions::vote_plan`] does not name one vote per site of the
    /// protocol (acceptors included: `paxos:1` at n=2 has 5 sites).
    VotePlanLength {
        /// The protocol's site count.
        expected: usize,
        /// The plan's length.
        got: usize,
    },
    /// [`CheckOptions::threads`] asks for more workers than
    /// [`explore::MAX_THREADS`].
    TooManyThreads {
        /// The limit.
        max: usize,
        /// The count asked for.
        got: usize,
    },
    /// A schedule names a termination rule [`rule_from_name`] does not read.
    UnknownRule(String),
    /// A schedule [`replay_flight_dump`] re-executes has a step that does
    /// not apply.
    Replay(ReplayError),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Protocol(e) => e.fmt(f),
            Self::VotePlanLength { expected, got } => {
                write!(f, "vote plan names {got} sites, protocol has {expected}")
            }
            Self::TooManyThreads { max, got } => {
                write!(f, "{got} worker threads asked for, at most {max} are run")
            }
            Self::UnknownRule(rule) => write!(f, "unknown termination rule {rule:?}"),
            Self::Replay(e) => write!(f, "replay failed at {e}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<ProtocolError> for CheckError {
    fn from(e: ProtocolError) -> Self {
        Self::Protocol(e)
    }
}

/// One oracle failure, with its shrunk, strictly replayable counterexample.
#[derive(Debug)]
pub struct OracleFailure {
    /// Which oracle: `consistency`, `prediction`, `nonblocking`, `recovery`.
    pub oracle: &'static str,
    /// What went wrong.
    pub detail: String,
    /// Shrunk counterexample, when the failure has one (coverage-style
    /// failures like an unwitnessed slot do not).
    pub counterexample: Option<Schedule>,
}

/// The complete result of one check run.
pub struct CheckReport {
    /// Protocol name.
    pub(crate) protocol: String,
    /// Site count.
    pub(crate) n: usize,
    /// Options the check ran under.
    pub options: CheckOptions,
    /// Did the fundamental nonblocking theorem certify the protocol?
    pub certified_nonblocking: bool,
    /// The k-resiliency bound from the theorem's per-site conditions.
    pub(crate) max_tolerated_failures: usize,
    /// Was the fault budget within the certified resilience bound (and
    /// the network assumption unviolated)? Only then does the theorem
    /// promise no blocking. For quorum-based protocols this is instead
    /// the quorum's own bound: at most `f` acceptor crashes, no drops.
    pub within_resilience: bool,
    /// `Some(f)` for quorum-based protocols (2f+1 acceptors, nonblocking
    /// promised for up to `f` acceptor crashes); `None` otherwise.
    pub quorum_f: Option<usize>,
    /// Exploration counters.
    pub stats: ExploreStats,
    /// Analytic `(site, state)` slot names never operationally witnessed.
    /// Meaningful only for an untruncated all-plans exploration.
    pub unwitnessed: Vec<String>,
    /// Prediction completeness: exploration was exhaustive over all vote
    /// plans and every analytic slot was witnessed.
    pub prediction_complete: bool,
    /// Shrunk path to a quiescent state with a blocked operational site,
    /// if one exists. For a blocking protocol this is the *expected*
    /// theorem witness; for a certified protocol within resilience it is
    /// also listed under `failures`.
    pub blocking_witness: Option<Schedule>,
    /// All oracle failures (empty for a fully passing check).
    pub failures: Vec<OracleFailure>,
    /// External-memory activity of the fingerprint stores (all zero when
    /// no [`CheckOptions::mem_budget`] is set). Deliberately excluded
    /// from [`CheckReport::render`] and [`CheckReport::to_json`] so those
    /// stay byte-identical with and without a budget; the CLI reports it
    /// on stderr instead.
    pub spill: SpillStats,
}

impl CheckReport {
    /// Did every oracle pass?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Deterministic human-readable report.
    pub fn render(&self) -> String {
        let o = &self.options;
        let mut out = String::new();
        out.push_str(&format!(
            "nbc-check: {} (n={}, rule={})\n",
            self.protocol,
            self.n,
            rule_name(o.rule)
        ));
        out.push_str(&format!(
            "  theorem: {} (tolerates {} simultaneous failure{})\n",
            if self.certified_nonblocking { "NONBLOCKING" } else { "BLOCKING" },
            self.max_tolerated_failures,
            if self.max_tolerated_failures == 1 { "" } else { "s" },
        ));
        if let Some(f) = self.quorum_f {
            out.push_str(&format!(
                "  quorum: f={f} ({} acceptors; nonblocking promised for <= {f} acceptor \
                 crash{})\n",
                2 * f + 1,
                if f == 1 { "" } else { "es" },
            ));
        }
        out.push_str(&format!(
            "  budgets: depth={} faults={} recoveries={} drops={} suspicions={} seed={}\n",
            o.depth,
            o.faults,
            o.recoveries,
            o.drops,
            o.suspicions,
            o.seed.map_or("none".to_string(), |s| s.to_string()),
        ));
        out.push_str(&format!(
            "  explored: {} vote plan{}, {} distinct states, {} actions, {}\n",
            self.stats.plans,
            if self.stats.plans == 1 { "" } else { "s" },
            self.stats.distinct_states,
            self.stats.actions,
            if self.stats.truncated { "TRUNCATED" } else { "exhaustive" },
        ));
        let failed = |oracle: &str| self.failures.iter().any(|f| f.oracle == oracle);
        out.push_str(&format!(
            "  oracle consistency: {}\n",
            if failed("consistency") { "FAIL" } else { "PASS" }
        ));
        let prediction = if failed("prediction") {
            "FAIL".to_string()
        } else if self.prediction_complete {
            "PASS (sound and complete: every analytic state witnessed)".to_string()
        } else if !self.unwitnessed.is_empty() {
            format!("PASS (sound; {} analytic slots unwitnessed)", self.unwitnessed.len())
        } else {
            "PASS (sound)".to_string()
        };
        out.push_str(&format!("  oracle prediction: {prediction}\n"));
        let nonblocking = if failed("nonblocking") {
            "FAIL".to_string()
        } else if let Some(f) = self.quorum_f {
            if self.within_resilience {
                format!("PASS (no blocking with <= {f} acceptor crashes)")
            } else {
                match &self.blocking_witness {
                    Some(_) => "PASS (blocked beyond quorum resilience, as permitted)".to_string(),
                    None => "PASS (no blocking even beyond quorum resilience)".to_string(),
                }
            }
        } else if !self.certified_nonblocking {
            match &self.blocking_witness {
                Some(w) => format!("PASS (blocking confirmed; witness of {} steps)", w.steps.len()),
                None => "PASS (blocking; no witness within budgets)".to_string(),
            }
        } else if !self.within_resilience {
            match &self.blocking_witness {
                Some(_) => "PASS (blocked beyond resilience bound, as permitted)".to_string(),
                None => "PASS (no blocking even beyond resilience bound)".to_string(),
            }
        } else {
            "PASS (no operational site ever blocked)".to_string()
        };
        out.push_str(&format!("  oracle nonblocking: {nonblocking}\n"));
        out.push_str(&format!(
            "  oracle recovery: {}\n",
            if failed("recovery") { "FAIL" } else { "PASS" }
        ));
        for slot in &self.unwitnessed {
            out.push_str(&format!("  unwitnessed: {slot}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAILURE [{}]: {}\n", f.oracle, f.detail));
        }
        if let Some(w) = &self.blocking_witness {
            out.push_str("  blocking witness (replayable with `nbc simulate --schedule`):\n");
            for line in w.to_jsonl().lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        for f in &self.failures {
            if let Some(cx) = &f.counterexample {
                out.push_str(&format!("  counterexample [{}]:\n", f.oracle));
                for line in cx.to_jsonl().lines() {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
        out.push_str(&format!("  verdict: {}\n", if self.ok() { "OK" } else { "FAIL" }));
        out
    }

    /// Deterministic single-line JSON summary (schedules reported by step
    /// count; the full JSONL goes to `--counterexample` files).
    pub fn to_json(&self) -> String {
        use nbc_obs::json::{array, string, Obj};
        let o = &self.options;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let steps = |s: Option<&Schedule>| opt(s.map(|s| s.steps.len() as u64));
        let failures = self.failures.iter().map(|f| {
            Obj::new()
                .str("oracle", f.oracle)
                .str("detail", &f.detail)
                .raw("counterexample_steps", &steps(f.counterexample.as_ref()))
                .build()
        });
        Obj::new()
            .str("protocol", &self.protocol)
            .num("n", self.n as u64)
            .str("rule", rule_name(o.rule))
            .num("depth", o.depth.into())
            .num("faults", o.faults.into())
            .num("recoveries", o.recoveries.into())
            .num("drops", o.drops.into())
            .num("suspicions", o.suspicions.into())
            .raw("seed", &opt(o.seed))
            .bool("certified_nonblocking", self.certified_nonblocking)
            .num("max_tolerated_failures", self.max_tolerated_failures as u64)
            .raw("quorum_f", &opt(self.quorum_f.map(|f| f as u64)))
            .bool("within_resilience", self.within_resilience)
            .num("plans", self.stats.plans as u64)
            .num("distinct_states", self.stats.distinct_states as u64)
            .num("actions", self.stats.actions)
            .bool("truncated", self.stats.truncated)
            .bool("prediction_complete", self.prediction_complete)
            .raw("unwitnessed", &array(self.unwitnessed.iter().map(|s| string(s))))
            .raw("blocking_witness_steps", &steps(self.blocking_witness.as_ref()))
            .raw("failures", &array(failures))
            .bool("ok", self.ok())
            .build()
    }
}

/// A shrink predicate: does the runner (after lenient replay + drain)
/// still exhibit the violation? The flag reports whether some `Recover`
/// step failed its recovery-oracle check during replay.
type ShrinkPredicate<'a> = Box<dyn Fn(&Runner<'_>, bool) -> bool + 'a>;

/// Run the full check: build the analysis, explore every schedule within
/// the budgets, evaluate the four oracles, and shrink whatever witnesses
/// or violations turned up.
pub fn run_check(protocol: &Protocol, options: CheckOptions) -> Result<CheckReport, CheckError> {
    if let Some(plan) = &options.vote_plan {
        if plan.len() != protocol.n_sites() {
            return Err(CheckError::VotePlanLength {
                expected: protocol.n_sites(),
                got: plan.len(),
            });
        }
    }
    if options.threads > explore::MAX_THREADS {
        return Err(CheckError::TooManyThreads { max: explore::MAX_THREADS, got: options.threads });
    }
    // The theorem, the oracles and the runners read facts, never a graph;
    // the fold runs on the workers the walk was given.
    let reach = ReachOptions::default()
        .with_streaming(true)
        .with_threads(explore::resolved_threads(options.threads));
    let analysis = Analysis::build_with(protocol, reach)?;
    let theorem = theorem::check_with(protocol, &analysis);
    let resil = resilience::resilience_with(protocol, &theorem);
    let certified = theorem.nonblocking();
    // The theorem's resilience bound assumes Skeen's termination rule.
    // The quorum variant deliberately trades availability for partition
    // safety: it only promises progress while a majority survives, so
    // beyond that the nonblocking oracle must not expect termination —
    // and it makes no termination promise at all under an *imperfect*
    // detector (a false suspicion can always stall a round; the quorum
    // rule's contract there is safety, which the consistency oracle
    // verifies). Skeen's own rule, by contrast, claims nonblocking
    // unconditionally given its fault bound, so suspicions deliberately
    // do NOT relax `within_resilience` for it: the termination livelock
    // under repeated false suspicion is reported as a genuine
    // nonblocking failure — the FLP boundary made operational.
    let rule_tolerates = match options.rule {
        TerminationRule::QuorumSkeen => {
            let n = protocol.n_sites();
            (options.faults as usize) < n - n / 2 && options.suspicions == 0
        }
        _ => true,
    };
    // A quorum-based protocol's nonblocking guarantee is conditional on
    // its own fault model — at most f *acceptor* crashes on a reliable
    // network — not on the theorem's unconditional resilience bound.
    let quorum = protocol.quorum();
    let within_resilience = match quorum {
        Some(q) => options.faults as usize <= q.f && options.drops == 0,
        None => resil.tolerates(options.faults as usize) && rule_tolerates && options.drops == 0,
    };

    let exploration = explore::explore(protocol, &analysis, &options);
    let stats = exploration.stats.clone();
    let all_plans = options.vote_plan.is_none();

    let mut failures = Vec::new();

    // Hard per-state / per-recovery oracle violations, shrunk with the
    // predicate that re-detects the same class of violation.
    if let Some((oracle, detail, votes, path)) = &exploration.violation {
        let predicate: ShrinkPredicate<'_> = match *oracle {
            "consistency" => Box::new(|r: &Runner<'_>, _| Oracles::mixed_decisions(r).is_some()),
            "prediction" => Box::new(|r: &Runner<'_>, _| {
                Oracles::unpredicted(&analysis, r, |_, _| {}).is_some()
            }),
            _ => Box::new(|_: &Runner<'_>, recovery_failed| recovery_failed),
        };
        let shrunk = shrink::shrink(protocol, &analysis, &options, votes, path, predicate);
        failures.push(OracleFailure {
            oracle,
            detail: detail.clone(),
            counterexample: Some(shrunk),
        });
    }

    // The blocking witness, shrunk to its minimal schedule.
    let blocking_witness = exploration.blocking_witness.as_ref().map(|(votes, path)| {
        shrink::shrink(protocol, &analysis, &options, votes, path, |r, _| Oracles::any_blocked(r))
    });

    // Nonblocking oracle verdicts.
    if let Some(q) = quorum {
        // The theorem (correctly) calls the protocol BLOCKING under
        // unrestricted crashes; what the oracle verifies instead is the
        // quorum guarantee: no blocking while at most f acceptors crash.
        // Beyond f, blocking is permitted and no witness is demanded.
        if within_resilience {
            if let Some(w) = &blocking_witness {
                failures.push(OracleFailure {
                    oracle: "nonblocking",
                    detail: format!(
                        "quorum protocol blocked an operational site with at most f={} \
                         acceptor crashes ({} steps)",
                        q.f,
                        w.steps.len()
                    ),
                    counterexample: Some(w.clone()),
                });
            }
        }
    } else if certified && within_resilience {
        if let Some(w) = &blocking_witness {
            failures.push(OracleFailure {
                oracle: "nonblocking",
                detail: format!(
                    "theorem-certified protocol blocked an operational site within its \
                     resilience bound ({} steps)",
                    w.steps.len()
                ),
                counterexample: Some(w.clone()),
            });
        }
    } else if !certified
        && blocking_witness.is_none()
        && options.faults >= 1
        && all_plans
        && !stats.truncated
    {
        failures.push(OracleFailure {
            oracle: "nonblocking",
            detail: "theorem says BLOCKING but exhaustive exploration found no blocked \
                     operational site"
                .to_string(),
            counterexample: None,
        });
    }

    // Prediction completeness (only judged for exhaustive all-plan runs).
    let unwitnessed: Vec<String> = exploration
        .oracles
        .unwitnessed()
        .into_iter()
        .map(|(site, state)| exploration.oracles.slot_name(site, state))
        .collect();
    let prediction_complete = all_plans && !stats.truncated && unwitnessed.is_empty();
    if all_plans && !stats.truncated && !unwitnessed.is_empty() {
        failures.push(OracleFailure {
            oracle: "prediction",
            detail: format!(
                "analytic slots never witnessed operationally at full depth: {}",
                unwitnessed.join(", ")
            ),
            counterexample: None,
        });
    }

    Ok(CheckReport {
        protocol: protocol.name.clone(),
        n: protocol.n_sites(),
        options,
        certified_nonblocking: certified,
        max_tolerated_failures: resil.max_tolerated_failures,
        quorum_f: quorum.map(|q| q.f),
        within_resilience,
        stats,
        unwitnessed,
        prediction_complete,
        blocking_witness,
        failures,
        spill: exploration.spill,
    })
}
