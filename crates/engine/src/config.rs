//! Run configuration: vote plans, crash schedules, termination rules.

use nbc_simnet::{LatencyModel, Time};

/// How far a crashing site got through the state transition it was
/// executing — the paper's non-atomic-transition failure model ("a site may
/// only partially complete a transition before failing", "only part of the
/// messages that should be sent during a transition are actually
/// transmitted").
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransitionProgress {
    /// Crash before the write-ahead record is durable: the site never left
    /// its previous state.
    BeforeLog,
    /// The transition's progress record is durable and the first `n`
    /// outgoing messages were sent; the rest are lost with the site.
    AfterMsgs(u32),
}

/// When a site crashes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// At an absolute simulation time (between transitions).
    AtTime(Time),
    /// While executing its `ordinal`-th state transition (1-based count of
    /// transition attempts at that site), at the given progress point.
    OnTransition {
        /// 1-based transition attempt number at the crashing site.
        ordinal: u32,
        /// Progress through the transition.
        progress: TransitionProgress,
    },
}

/// One scheduled crash (and optional recovery).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// The site that crashes.
    pub site: usize,
    /// When it crashes.
    pub point: CrashPoint,
    /// If set, the site restarts at this time and runs the recovery
    /// protocol.
    pub recover_at: Option<Time>,
}

/// Which decision rule the termination protocol applies.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TerminationRule {
    /// The paper's backup-coordinator rule, applied *per state class* (the
    /// canonical form in which the paper presents the 3PC decision table:
    /// commit iff the class is committable everywhere and never concurrent
    /// with an abort). Class-based application is what makes the rule
    /// consistent across heterogeneous coordinator/slave automata and
    /// across cascading backup handoffs. For blocking protocols the rule
    /// can yield `Blocked`.
    Skeen,
    /// The paper's rule applied verbatim to the backup's own local state
    /// ("commit iff the concurrency set contains a commit state") with *no*
    /// blocking case. Safe only for nonblocking protocols; running it on
    /// 2PC demonstrates the atomicity violation the theorem predicts —
    /// that demonstration is an experiment, not a recommendation.
    NaiveCs,
    /// Cooperative termination: phase-1 acks carry each operational site's
    /// state class and the decision considers all of them. Equivalent to
    /// `Skeen` for nonblocking protocols; for 2PC it blocks exactly when
    /// every operational site is in its wait state.
    Cooperative,
    /// Quorum-gated class rule (the direction of Skeen's follow-up work,
    /// "A Quorum-Based Commit Protocol", cited by the paper): the backup
    /// applies the class rule only while a strict majority of all sites is
    /// operational in its view; a minority group blocks instead of
    /// deciding. Sacrifices minority-side availability to stay safe even
    /// when a partition masquerades as site failures — see experiment X4.
    QuorumSkeen,
}

/// Configuration of the timeout-based (imperfect) failure detector.
///
/// When set on a [`RunConfig`], the run replaces the paper's perfect
/// failure detector with [`nbc_simnet::Suspicion`]: sites *suspect* peers
/// after `timeout` units of silence, with per-check heartbeat latency
/// sampled uniformly from `jitter` (inclusive). A spec whose worst-case
/// heartbeat latency fits inside the timeout ([`DetectorSpec::is_accurate`])
/// can never falsely suspect, and the engine then degenerates — by
/// construction — to the legacy perfect-detection path, byte for byte.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DetectorSpec {
    /// Silence timeout: suspect a peer after this long without evidence
    /// of life. Must be positive.
    pub timeout: Time,
    /// Inclusive `(lo, hi)` bounds of the heartbeat-latency distribution.
    pub jitter: (Time, Time),
    /// Seed of the heartbeat-latency stream (determinism).
    pub seed: u64,
}

impl DetectorSpec {
    /// True when the detector can never falsely suspect: every heartbeat
    /// lands within the timeout, so only genuine silence (crash or cut
    /// link) trips a suspicion.
    pub fn is_accurate(&self) -> bool {
        self.jitter.1 <= self.timeout
    }
}

/// A scheduled network partition — a deliberate violation of the paper's
/// "network never fails" assumption, for the `x3` demonstration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// When the partition happens.
    pub at: Time,
    /// `groups[i]` = partition group of site `i`.
    pub groups: Vec<usize>,
}

/// Full configuration of one simulated transaction run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Per-site vote: `votes[i]` is whether site `i` votes yes. (For the
    /// central-site paradigm, `votes[0]` is the coordinator's own vote.)
    pub votes: Vec<bool>,
    /// Crash schedule.
    pub crashes: Vec<CrashSpec>,
    /// Optional network partition (demonstration of assumption violation).
    pub partition: Option<PartitionSpec>,
    /// Termination decision rule.
    pub rule: TerminationRule,
    /// Network latency model.
    pub latency: LatencyModel,
    /// Failure-detection delay.
    pub detect_delay: Time,
    /// Timeout-based failure detection. `None` (and any accurate spec)
    /// uses the paper's perfect detector; an inaccurate spec replaces it
    /// with suspicion timers that can falsely suspect live sites.
    pub detector: Option<DetectorSpec>,
    /// Safety valve: abort the run after this many network events.
    pub max_events: usize,
    /// Record a human-readable execution trace into the report.
    pub record_trace: bool,
    /// Transaction id stamped on every WAL record of the run. Single-shot
    /// runs use the default (`1`); the pipeline gives each concurrent
    /// round its own id so one site log can carry many interleaved rounds.
    pub txn_id: u64,
    /// Simulation time at which the run begins (client stimuli are
    /// injected at this instant). The pipeline admits rounds mid-
    /// simulation; single-shot runs start at `0`.
    pub start_at: Time,
}

impl RunConfig {
    /// All-yes votes, no crashes, Skeen rule, constant latency 1 and
    /// detection delay 5 — the happy path.
    pub fn happy(n: usize) -> Self {
        Self {
            votes: vec![true; n],
            crashes: Vec::new(),
            partition: None,
            rule: TerminationRule::Skeen,
            latency: LatencyModel::constant(1),
            detect_delay: 5,
            detector: None,
            max_events: 200_000,
            record_trace: false,
            txn_id: crate::run::TXN,
            start_at: 0,
        }
    }

    /// Happy path with one no-voter.
    pub fn one_no(n: usize, no_voter: usize) -> Self {
        let mut c = Self::happy(n);
        c.votes[no_voter] = false;
        c
    }

    /// Add a crash.
    pub fn with_crash(mut self, spec: CrashSpec) -> Self {
        self.crashes.push(spec);
        self
    }

    /// Set the termination rule.
    pub fn with_rule(mut self, rule: TerminationRule) -> Self {
        self.rule = rule;
        self
    }

    /// Drive failure detection by timeout-based suspicion.
    pub fn with_detector(mut self, spec: DetectorSpec) -> Self {
        self.detector = Some(spec);
        self
    }

    /// Tag the run's WAL records with a transaction id.
    pub fn with_txn_id(mut self, txn_id: u64) -> Self {
        self.txn_id = txn_id;
        self
    }

    /// Start the run at a mid-simulation instant.
    pub fn with_start_at(mut self, at: Time) -> Self {
        self.start_at = at;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn happy_config_shape() {
        let c = RunConfig::happy(4);
        assert_eq!(c.votes, vec![true; 4]);
        assert!(c.crashes.is_empty());
        assert_eq!(c.rule, TerminationRule::Skeen);
    }

    #[test]
    fn builders_compose() {
        let c = RunConfig::one_no(3, 2)
            .with_crash(CrashSpec { site: 0, point: CrashPoint::AtTime(10), recover_at: None })
            .with_rule(TerminationRule::Cooperative);
        assert!(!c.votes[2]);
        assert_eq!(c.crashes.len(), 1);
        assert_eq!(c.rule, TerminationRule::Cooperative);
    }
}
