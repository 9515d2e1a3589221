//! The four cross-validation oracles.
//!
//! Each oracle states one way the *operational* engine and the paper's
//! *analytic* state-graph machinery must agree:
//!
//! 1. **Consistency** — no execution mixes commit and abort. A site's
//!    `outcome` field is set if and only if a decision record is durable
//!    in its WAL (the engine logs with `append_sync` before setting it,
//!    and a crash preserves it), so scanning outcomes covers durable
//!    decisions of down sites too.
//! 2. **Prediction soundness** — every local state a site *ever occupies*
//!    (the `visited` monitors, which catch states passed through inside a
//!    single pump) is occupied in the reachable state graph. Site states
//!    change only through genuine FSA transitions or WAL restore, so an
//!    operational state outside the analytic occupancy bitset means the
//!    engine and the analysis disagree about the protocol.
//! 3. **Nonblocking** — evaluated by the explorer from quiescent states:
//!    an operational (up, undecided, not mid-recovery) site at network
//!    quiescence is blocked — nothing will ever arrive to unblock it.
//!    The paper's theorem promises this never happens for certified
//!    protocols within their resilience bound; for blocking protocols the
//!    explorer must *find* such a witness.
//! 4. **Recovery** — at every recovery point, the WAL must replay cleanly
//!    and the summarized local position must be compatible with the
//!    globally decided outcome (see [`Oracles::check_recovery`]).
//!
//! The recovery compatibility conditions are deliberately class-level,
//! not concurrency-set-level: a commit decision requires the recovered
//! state to be *yes-voted* (commit implies all sites voted yes —
//! §"Committable States"), **not** that its concurrency set contains a
//! commit state. The central-site 3PC coordinator can crash in its
//! prepared state, whose concurrency set contains no commit state, and
//! still correctly learn "committed" from the termination protocol that
//! finished without it.

use nbc_core::{Analysis, Protocol, SiteId, StateId};
use nbc_engine::site::{Mode, SiteRt};
use nbc_engine::Runner;
use nbc_storage::recovery::{class_codes, summarize, TxnOutcome};
use nbc_storage::Wal;

/// A witnessed-state bitmap: `0[i][s]` means site `i` occupied local
/// state `s` in some explored execution (union of the runners' visited
/// monitors). Kept separate from [`Oracles`] so the parallel explorer can
/// accumulate one bitmap *per vote plan* and replace a state-cap-truncated
/// plan's bitmap wholesale with the one the walk run alone produces — the
/// merged union stays deterministic even when the sweep's coverage was not.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct Witnessed(Vec<Vec<bool>>);

impl Witnessed {
    /// An all-false bitmap sized for `protocol`.
    pub fn for_protocol(protocol: &Protocol) -> Self {
        Self(protocol.fsas().iter().map(|f| vec![false; f.state_count()]).collect())
    }

    /// OR `other` into this bitmap (commutative, associative, idempotent —
    /// merge order cannot change the result).
    pub fn merge(&mut self, other: &Witnessed) {
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            for (m, &t) in mine.iter_mut().zip(theirs) {
                *m |= t;
            }
        }
    }
}

/// Accumulated oracle state across one whole exploration (all vote plans).
pub struct Oracles<'a> {
    protocol: &'a Protocol,
    analysis: &'a Analysis,
    txn: u64,
    /// Union of every explored execution's visited monitors.
    witnessed: Witnessed,
}

impl<'a> Oracles<'a> {
    /// Fresh oracle accumulators for `protocol` / `analysis`.
    pub fn new(protocol: &'a Protocol, analysis: &'a Analysis, txn: u64) -> Self {
        Self { protocol, analysis, txn, witnessed: Witnessed::for_protocol(protocol) }
    }

    /// Fold one explored global state's visited monitors into `witnessed`
    /// (a caller-held bitmap: the explorer keeps one per vote plan) and
    /// check the per-state oracles (consistency, prediction soundness).
    /// Returns the first violation found, as `(oracle, detail)`.
    pub fn observe_state(
        &self,
        witnessed: &mut Witnessed,
        runner: &Runner<'_>,
    ) -> Result<(), (&'static str, String)> {
        let mut commit: Option<usize> = None;
        let mut abort: Option<usize> = None;
        for (i, s) in runner.sites().iter().enumerate() {
            match s.outcome {
                Some(true) => commit = commit.or(Some(i)),
                Some(false) => abort = abort.or(Some(i)),
                None => {}
            }
            for (state, &seen) in s.visited.iter().enumerate() {
                if seen {
                    witnessed.0[i][state] = true;
                    if !self.analysis.occupied(SiteId(i as u32), StateId(state as u32)) {
                        let name =
                            &self.protocol.fsa(SiteId(i as u32)).state(StateId(state as u32)).name;
                        return Err((
                            "prediction",
                            format!(
                                "site{i} occupied local state {name:?} which is unreachable in \
                                 the analytic state graph"
                            ),
                        ));
                    }
                }
            }
        }
        if let (Some(c), Some(a)) = (commit, abort) {
            return Err((
                "consistency",
                format!("site{c} decided commit while site{a} decided abort"),
            ));
        }
        Ok(())
    }

    /// Is `site` *blocked*, assuming network quiescence: up, undecided,
    /// and not mid-recovery? A site still in [`Mode::Recovering`] at
    /// quiescence is waiting on information only a peer's recovery can
    /// supply — the paper's nonblocking property covers operational sites,
    /// not recovering ones, so it is exempt. The exemption is scoped to
    /// sites that actually went down: a live site that was merely
    /// (falsely) suspected never lost state, is fully operational in the
    /// paper's sense, and stays accountable.
    fn is_blocked(site: &SiteRt) -> bool {
        site.is_up() && site.outcome.is_none() && (site.mode != Mode::Recovering || !site.ever_down)
    }

    /// The operational sites that are blocked in `runner`, assuming
    /// network quiescence.
    pub fn blocked_sites(runner: &Runner<'_>) -> Vec<usize> {
        let sites = runner.sites().iter().enumerate();
        sites.filter(|(_, s)| Self::is_blocked(s)).map(|(i, _)| i).collect()
    }

    /// Is any operational site blocked in `runner`, assuming network
    /// quiescence? [`Oracles::blocked_sites`] without the list.
    pub fn any_blocked(runner: &Runner<'_>) -> bool {
        runner.sites().iter().any(|s| Self::is_blocked(s))
    }

    /// The globally decided outcome, if any site has durably decided.
    /// (The consistency oracle guarantees all decisions agree.)
    pub fn global_decision(runner: &Runner<'_>) -> Option<bool> {
        runner.sites().iter().find_map(|s| s.outcome)
    }

    /// The recovery oracle, evaluated *at the moment* `site` is about to
    /// restart: its durable WAL must replay without error, and the
    /// summarized position must not contradict the already-taken global
    /// decision `d`:
    ///
    /// * durable `Committed` forbids `d = abort`; durable `Aborted` and
    ///   never-voted positions (`AbortOnRecovery`, empty log) forbid
    ///   `d = commit`;
    /// * `MustAsk { state, .. }` with `d = commit` requires `state` to be
    ///   yes-voted in the analysis (commit implies all sites voted yes);
    ///   with `d = abort` it requires `state` not to be of the committed
    ///   class;
    /// * a durable termination alignment to the committed (aborted) class
    ///   forbids `d = abort` (`d = commit`).
    ///
    /// Acceptors of a quorum-based protocol are exempt from the
    /// never-voted conditions: a commit is justified by the surviving
    /// quorum, not by this acceptor's (nonexistent) vote, so an acceptor
    /// may recover with an empty or pre-relay log after the transaction
    /// committed through the other acceptors. Its durable *decisions*
    /// still must not contradict the global one.
    pub fn check_recovery(&self, runner: &Runner<'_>, site: usize) -> Result<(), String> {
        let s = &runner.sites()[site];
        let records = Wal::recover(s.wal.as_bytes())
            .map_err(|e| format!("site{site} WAL replay failed on recovery: {e:?}"))?;
        let d = Self::global_decision(runner);
        let acceptor = self.protocol.is_acceptor(site);
        let Some(txn) = summarize(&records).into_iter().find(|t| t.txn == self.txn) else {
            // Nothing durable: the site never began, so it never voted
            // yes, so a global commit would be unjustified.
            if d == Some(true) && !acceptor {
                return Err(format!(
                    "site{site} recovers with an empty log while the transaction committed"
                ));
            }
            return Ok(());
        };
        match txn.outcome {
            TxnOutcome::Committed => {
                if d == Some(false) {
                    return Err(format!(
                        "site{site} recovers with a durable commit while the transaction aborted"
                    ));
                }
            }
            TxnOutcome::Aborted => {
                if d == Some(true) {
                    return Err(format!(
                        "site{site} recovers with a durable abort while the transaction committed"
                    ));
                }
            }
            TxnOutcome::AbortOnRecovery => {
                if d == Some(true) && !acceptor {
                    return Err(format!(
                        "site{site} recovers not having voted yes while the transaction committed"
                    ));
                }
            }
            TxnOutcome::MustAsk { state, class, aligned_class } => {
                if d == Some(true)
                    && !acceptor
                    && !self.analysis.yes_voted(SiteId(site as u32), StateId(state))
                {
                    return Err(format!(
                        "site{site} recovers in a non-yes-voted state (id {state}) while the \
                         transaction committed"
                    ));
                }
                if d == Some(false) && class == class_codes::COMMITTED {
                    return Err(format!(
                        "site{site} recovers in a committed-class state while the transaction \
                         aborted"
                    ));
                }
                match aligned_class {
                    Some(c) if c == class_codes::COMMITTED && d == Some(false) => {
                        return Err(format!(
                            "site{site} durably aligned to the committed class while the \
                             transaction aborted"
                        ));
                    }
                    Some(c) if c == class_codes::ABORTED && d == Some(true) => {
                        return Err(format!(
                            "site{site} durably aligned to the aborted class while the \
                             transaction committed"
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// OR a per-plan [`Witnessed`] bitmap into this accumulator. The union
    /// is order-independent, so it is identical at any thread count.
    pub fn absorb(&mut self, witnessed: &Witnessed) {
        self.witnessed.merge(witnessed);
    }

    /// Analytically occupied `(site, state)` slots never witnessed by any
    /// explored execution — empty exactly when the operational engine
    /// covered the full reachable state graph (prediction completeness,
    /// meaningful only after an untruncated exploration of all vote
    /// plans).
    pub fn unwitnessed(&self) -> Vec<(SiteId, StateId)> {
        let mut out = Vec::new();
        for (i, fsa) in self.protocol.fsas().iter().enumerate() {
            for s in 0..fsa.state_count() {
                let (site, state) = (SiteId(i as u32), StateId(s as u32));
                if self.analysis.occupied(site, state) && !self.witnessed.0[i][s] {
                    out.push((site, state));
                }
            }
        }
        out
    }

    /// Human-readable name of a slot, for reports.
    pub fn slot_name(&self, site: SiteId, state: StateId) -> String {
        format!("site{}:{}", site.index(), self.protocol.fsa(site).state(state).name)
    }
}
