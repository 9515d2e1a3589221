//! Run outcomes and the invariant auditor.

use std::fmt;

use nbc_obs::json::{array, string, Obj};
use nbc_simnet::Time;

/// The fate of one site at the end of a run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SiteOutcome {
    /// Operational and committed.
    Committed,
    /// Operational and aborted.
    Aborted,
    /// Operational but blocked by the termination protocol.
    Blocked,
    /// Operational, neither decided nor blocked (should not happen in a
    /// quiescent run; indicates a truncated run).
    InProgress,
    /// Crashed with a durable commit in its log.
    DownCommitted,
    /// Crashed with a durable abort in its log.
    DownAborted,
    /// Crashed without a durable decision.
    DownUndecided,
}

impl SiteOutcome {
    /// The decision this outcome implies, if any.
    pub fn decision(self) -> Option<bool> {
        match self {
            Self::Committed | Self::DownCommitted => Some(true),
            Self::Aborted | Self::DownAborted => Some(false),
            _ => None,
        }
    }

    /// True if the site is up (not crashed) at the end of the run.
    pub fn operational(self) -> bool {
        matches!(self, Self::Committed | Self::Aborted | Self::Blocked | Self::InProgress)
    }
}

impl fmt::Display for SiteOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Committed => "committed",
            Self::Aborted => "aborted",
            Self::Blocked => "blocked",
            Self::InProgress => "in-progress",
            Self::DownCommitted => "down(committed)",
            Self::DownAborted => "down(aborted)",
            Self::DownUndecided => "down(undecided)",
        })
    }
}

/// The audited result of one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-site outcomes.
    pub outcomes: Vec<SiteOutcome>,
    /// **Atomicity invariant**: no two sites (operational or crashed with a
    /// durable log) decided differently. This must hold for every run of a
    /// correct protocol+termination-rule combination; the `NaiveCs` rule on
    /// 2PC deliberately violates it.
    pub consistent: bool,
    /// True if any operational site ended blocked.
    pub any_blocked: bool,
    /// **Nonblocking verdict**: every operational site reached a decision
    /// (none blocked, none stuck in progress).
    pub all_operational_decided: bool,
    /// Total messages sent on the network.
    pub msgs_sent: u64,
    /// Simulation time of the last processed event.
    pub finished_at: Time,
    /// Events processed.
    pub events: usize,
    /// True if the run hit the event limit (results incomplete).
    pub truncated: bool,
    /// Backup elections entered during the run (termination-protocol
    /// round count). Maintained by an engine counter, so it is populated
    /// whether or not tracing is on.
    pub elections: u64,
}

impl RunReport {
    /// Audit the outcomes and assemble the report.
    pub(crate) fn assemble(
        outcomes: Vec<SiteOutcome>,
        msgs_sent: u64,
        finished_at: Time,
        events: usize,
        truncated: bool,
    ) -> Self {
        let mut commit_seen = false;
        let mut abort_seen = false;
        let mut any_blocked = false;
        let mut all_operational_decided = true;
        for o in &outcomes {
            match o.decision() {
                Some(true) => commit_seen = true,
                Some(false) => abort_seen = true,
                None => {}
            }
            if *o == SiteOutcome::Blocked {
                any_blocked = true;
            }
            if o.operational() && o.decision().is_none() {
                all_operational_decided = false;
            }
        }
        Self {
            outcomes,
            consistent: !(commit_seen && abort_seen),
            any_blocked,
            all_operational_decided,
            msgs_sent,
            finished_at,
            events,
            truncated,
            elections: 0,
        }
    }

    /// The unanimous decision, if one exists.
    pub fn decision(&self) -> Option<bool> {
        if !self.consistent {
            return None;
        }
        self.outcomes.iter().find_map(|o| o.decision())
    }

    /// Count of sites that committed (operational or down).
    pub fn committed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.decision() == Some(true)).count()
    }

    /// Encode the report as a JSON object (for `--json` CLI output).
    pub fn to_json(&self) -> String {
        self.json().build()
    }

    /// The report's fields as an open JSON object, for a caller that
    /// appends its own after them.
    pub fn json(&self) -> Obj {
        let outcomes = array(self.outcomes.iter().map(|o| string(&o.to_string())));
        let o = Obj::new()
            .raw("outcomes", &outcomes)
            .bool("consistent", self.consistent)
            .bool("any_blocked", self.any_blocked)
            .bool("all_operational_decided", self.all_operational_decided)
            .num("msgs_sent", self.msgs_sent)
            .num("finished_at", self.finished_at)
            .num("events", self.events as u64)
            .bool("truncated", self.truncated)
            .num("elections", self.elections);
        match self.decision() {
            Some(commit) => o.bool("decision", commit),
            None => o.raw("decision", "null"),
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "site{i}={o}")?;
        }
        write!(
            f,
            "] consistent={} blocked={} msgs={} t={}",
            self.consistent, self.any_blocked, self.msgs_sent, self.finished_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_flags_inconsistency() {
        let r = RunReport::assemble(
            vec![SiteOutcome::Committed, SiteOutcome::Aborted],
            10,
            5,
            3,
            false,
        );
        assert!(!r.consistent);
        assert_eq!(r.decision(), None);
    }

    #[test]
    fn down_durable_decisions_count_for_atomicity() {
        let r = RunReport::assemble(
            vec![SiteOutcome::DownCommitted, SiteOutcome::Aborted],
            0,
            0,
            0,
            false,
        );
        assert!(!r.consistent);
    }

    #[test]
    fn blocked_is_not_inconsistent() {
        let r = RunReport::assemble(
            vec![SiteOutcome::Blocked, SiteOutcome::Blocked, SiteOutcome::DownUndecided],
            0,
            0,
            0,
            false,
        );
        assert!(r.consistent);
        assert!(r.any_blocked);
        assert!(!r.all_operational_decided);
        assert_eq!(r.decision(), None);
    }

    #[test]
    fn unanimous_commit_reported() {
        let r = RunReport::assemble(
            vec![SiteOutcome::Committed, SiteOutcome::Committed, SiteOutcome::DownUndecided],
            7,
            9,
            4,
            false,
        );
        assert!(r.consistent);
        assert_eq!(r.decision(), Some(true));
        assert_eq!(r.committed_count(), 2);
        assert!(r.all_operational_decided);
    }

    #[test]
    fn display_is_compact() {
        let r = RunReport::assemble(vec![SiteOutcome::Committed], 1, 2, 3, false);
        let s = r.to_string();
        assert!(s.contains("site0=committed"));
        assert!(s.contains("consistent=true"));
    }

    #[test]
    fn json_roundtrips_structure() {
        let r = RunReport::assemble(
            vec![SiteOutcome::Committed, SiteOutcome::DownUndecided],
            7,
            9,
            4,
            false,
        );
        let j = r.to_json();
        nbc_obs::json::validate(&j).unwrap();
        assert!(j.contains("\"outcomes\":[\"committed\",\"down(undecided)\"]"), "{j}");
        assert!(j.contains("\"decision\":true"), "{j}");
        let extended = r.json().raw("trace", "[]").build();
        assert_eq!(extended, format!("{},\"trace\":[]}}", &j[..j.len() - 1]));

        let blocked = RunReport::assemble(vec![SiteOutcome::Blocked], 0, 0, 0, false);
        let j = blocked.to_json();
        nbc_obs::json::validate(&j).unwrap();
        assert!(j.contains("\"decision\":null"), "{j}");
    }
}
