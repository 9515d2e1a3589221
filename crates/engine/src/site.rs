//! Per-site runtime state: the FSA interpreter, inbox, WAL, and the mode
//! machine (normal execution / termination / blocked / recovering).

use std::cell::Cell;
use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

use nbc_core::{Consume, Fp128, Fsa, MsgKind, MultisetFp, SiteId, StateId, Vote};
use nbc_storage::recovery::{class_codes, summarize, TxnOutcome};
use nbc_storage::Wal;

use crate::class_map::encode_class;

/// What a site is currently doing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Executing the commit protocol normally.
    Normal,
    /// Running the termination protocol.
    Terminating {
        /// The backup coordinator this site currently recognizes.
        backup: usize,
    },
    /// Termination blocked: waiting for a crashed site to recover.
    Blocked,
    /// Crashed (not running).
    Down,
    /// Restarted, running the recovery protocol (asking around).
    Recovering,
    /// Finished: reached a final state or adopted a decision.
    Done,
}

/// Backup-coordinator bookkeeping (only meaningful on the backup itself).
#[derive(Debug, Default)]
pub struct BackupState {
    /// Sites whose phase-1 ack is still pending.
    pub pending_acks: BTreeSet<usize>,
    /// Collected `(site, pre-alignment class)` pairs from acks.
    pub(crate) collected: Vec<(usize, u8)>,
    /// True once phase 1 has been broadcast.
    pub(crate) phase1_sent: bool,
}

/// `to.clone_from(from)` for a site's small ordered sets.
/// `BTreeSet::clone_from` builds the copy node by node and frees the old
/// tree; a fork's target is most often a sibling of its source that holds
/// the same set already (usually the empty one), and telling so costs a
/// length comparison.
fn copy_set(to: &mut BTreeSet<usize>, from: &BTreeSet<usize>) {
    if to != from {
        to.clone_from(from);
    }
}

impl BackupState {
    /// Back to the default — no acks pending or collected, phase 1 not
    /// sent — keeping `collected`'s allocation.
    pub(crate) fn clear(&mut self) {
        let Self { pending_acks, collected, phase1_sent } = self;
        pending_acks.clear();
        collected.clear();
        *phase1_sent = false;
    }
}

impl Clone for BackupState {
    fn clone(&self) -> Self {
        let mut copy = Self::default();
        copy.clone_from(self);
        copy
    }

    fn clone_from(&mut self, source: &Self) {
        let Self { pending_acks, collected, phase1_sent } = self;
        copy_set(pending_acks, &source.pending_acks);
        collected.clone_from(&source.collected);
        *phase1_sent = source.phase1_sent;
    }
}

/// One simulated site.
#[derive(Debug)]
pub struct SiteRt {
    /// This site's index.
    pub id: usize,
    /// Current local FSA state.
    pub(crate) state: StateId,
    /// Unconsumed protocol messages: multiset of `(src, kind)`.
    pub(crate) inbox: Vec<(usize, MsgKind)>,
    /// The write-ahead log.
    pub wal: Wal,
    /// Current mode.
    pub mode: Mode,
    /// Which sites this site believes operational (updated by the failure
    /// detector). Recovered sites are *not* re-added here for the purposes
    /// of backup election; they interact through the recovery protocol.
    pub view: Vec<bool>,
    /// Class aligned to by termination phase 1, if any.
    pub(crate) aligned_class: Option<u8>,
    /// Backup bookkeeping (when acting as backup).
    pub backup_state: BackupState,
    /// Adopted outcome, if decided (`true` = commit).
    pub outcome: Option<bool>,
    /// Number of transition attempts made (for crash-point matching).
    pub(crate) transitions_attempted: u32,
    /// Recovery protocol: queries from recovering sites awaiting an answer.
    pub(crate) pending_queries: Vec<usize>,
    /// Recovery protocol (asker side): replies collected, `(site, outcome,
    /// class)`.
    pub recovery_replies: Vec<(usize, Option<bool>, u8)>,
    /// Sites known (via recovery notices) to be up again.
    pub recovered_peers: BTreeSet<usize>,
    /// Peers this site currently *suspects* have failed (timeout-based
    /// detection only; empty under the perfect detector). Unlike `view`,
    /// a suspicion is revocable: an unsuspicion restores `view[peer]`.
    pub suspects: BTreeSet<usize>,
    /// Monitor only: true once this site has ever actually crashed. The
    /// checker's blocking oracle uses it to scope the `Recovering`
    /// exemption to sites that really went down — a falsely-suspected
    /// live site gets no such pass.
    pub ever_down: bool,
    /// Monitor only: `visited[s]` is true once this site has occupied local
    /// state `s` at any point of the run (including states passed through
    /// inside one delivery's transition cascade). The model checker's
    /// prediction oracle compares this against the analytic (site, state)
    /// occupancy; it is not part of the behavioral state.
    pub visited: Vec<bool>,
}

impl Clone for SiteRt {
    fn clone(&self) -> Self {
        let mut copy = Self::empty(self.id, self.state);
        copy.clone_from(self);
        copy
    }

    /// Copy `source` into this site's storage: the inbox, WAL buffer, view
    /// and monitors keep their allocations, so copying over a site that
    /// has run as far allocates nothing. Destructured in full, like
    /// `SiteRt::reset`, so a new field cannot be left out of a fork.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            id,
            state,
            inbox,
            wal,
            mode,
            view,
            aligned_class,
            backup_state,
            outcome,
            transitions_attempted,
            pending_queries,
            recovery_replies,
            recovered_peers,
            suspects,
            ever_down,
            visited,
        } = self;
        *id = source.id;
        *state = source.state;
        inbox.clone_from(&source.inbox);
        wal.clone_from(&source.wal);
        mode.clone_from(&source.mode);
        view.clone_from(&source.view);
        *aligned_class = source.aligned_class;
        backup_state.clone_from(&source.backup_state);
        *outcome = source.outcome;
        *transitions_attempted = source.transitions_attempted;
        pending_queries.clone_from(&source.pending_queries);
        recovery_replies.clone_from(&source.recovery_replies);
        copy_set(recovered_peers, &source.recovered_peers);
        copy_set(suspects, &source.suspects);
        *ever_down = source.ever_down;
        visited.clone_from(&source.visited);
    }
}

/// One site slot of a [`Runner`](crate::Runner): the site's runtime
/// state, the cached fingerprint of it, and a stamp naming it.
///
/// Reads go through `Deref` and cost nothing. The *only* way to reach
/// `&mut SiteRt` is `DerefMut`, which drops the cached fingerprint and the
/// stamp — so a mutation cannot leave a stale cache or a stale name
/// behind, by construction rather than by convention at each call site. A
/// fork copies the state, the cache and the stamp together, so what a step
/// does not touch is never hashed again.
///
/// A nonzero stamp is a process-unique name for the contents it was given
/// to, when a fork was taken from them. Contents and stamp are only ever
/// copied together, and any change zeroes the stamp, so two slots holding
/// the same nonzero stamp hold equal contents. [`Clone::clone_from`] skips
/// the copy when they do — a sibling re-forked from its frame copies the
/// one site the previous sibling dirtied, not all of them.
pub struct SiteCell {
    rt: SiteRt,
    /// [`SiteRt::digest`] of `rt`, once computed. A `Cell` keeps
    /// [`Runner::digest`](crate::Runner::digest) a `&self` call; it makes
    /// a runner `Send` but not `Sync`, which is all a fork handed to
    /// another thread needs.
    digest: Cell<Option<u128>>,
    /// 0, or the name of exactly these contents. A `Cell` for the same
    /// reason: the source of a fork is stamped through `&self`.
    stamp: Cell<u64>,
}

impl Clone for SiteCell {
    fn clone(&self) -> Self {
        Self { rt: self.rt.clone(), digest: self.digest.clone(), stamp: self.stamp.clone() }
    }

    /// Overwrite this slot with `source`'s state, fingerprint and stamp —
    /// never keeping this slot's own cache, which describes the state being
    /// overwritten — unless both carry the same nonzero stamp, when the
    /// contents are equal already and only a missing cache is taken over.
    fn clone_from(&mut self, source: &Self) {
        let Self { rt, digest, stamp } = self;
        let name = source.stamp.get();
        if name == 0 || name != stamp.get() {
            rt.clone_from(&source.rt);
            digest.set(source.digest.get());
            stamp.set(name);
        } else if digest.get().is_none() {
            digest.set(source.digest.get());
        }
    }
}

impl SiteCell {
    pub(crate) fn new(rt: SiteRt) -> Self {
        Self { rt, digest: Cell::new(None), stamp: Cell::new(0) }
    }

    /// Name this slot's contents, unless they have a name already: the
    /// source side of a fork, so the fork carries the name with the copy.
    pub(crate) fn stamp(&self) {
        if self.stamp.get() == 0 {
            self.stamp.set(fresh_stamp());
        }
    }

    /// The site's behavioral fingerprint ([`SiteRt::digest`]), computed at
    /// most once between mutations.
    pub fn digest(&self) -> u128 {
        if let Some(d) = self.digest.get() {
            return d;
        }
        let d = self.rt.digest();
        self.digest.set(Some(d));
        d
    }

    /// A copy with no cached fingerprint: the reference the
    /// cache-coherence tests compare against.
    #[cfg(test)]
    pub(crate) fn deep_copy(&self) -> Self {
        Self::new(self.rt.clone())
    }
}

impl Deref for SiteCell {
    type Target = SiteRt;

    #[inline]
    fn deref(&self) -> &SiteRt {
        &self.rt
    }
}

impl DerefMut for SiteCell {
    #[inline]
    fn deref_mut(&mut self) -> &mut SiteRt {
        self.digest.set(None);
        self.stamp.set(0);
        &mut self.rt
    }
}

/// A nonzero stamp no other call in this process returns.
fn fresh_stamp() -> u64 {
    // Uniqueness comes from the read-modify-write alone; the counter
    // publishes no other data, so `Relaxed`.
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl std::fmt::Debug for SiteCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.rt.fmt(f)
    }
}

impl SiteRt {
    /// Fingerprint of this site's *behavioral* state — exactly the
    /// per-site fields [`Runner::digest`](crate::Runner::digest) documents
    /// — in one allocation-free pass. Arrival-order collections whose
    /// every consumer is order-independent (the inbox multiset, collected
    /// acks, pending queries, recovery replies) are combined commutatively
    /// so states differing only in arrival order merge. Excluded:
    /// `transitions_attempted`, `ever_down`, `visited` (monitors and
    /// crash-point bookkeeping) and `id` (the runner mixes each site in at
    /// its own position).
    pub fn digest(&self) -> u128 {
        let mut h = Fp128::new();
        match self.mode {
            Mode::Normal => h.write_u8(0),
            Mode::Terminating { backup } => {
                h.write_u8(1);
                h.write_usize(backup);
            }
            Mode::Blocked => h.write_u8(2),
            Mode::Down => h.write_u8(3),
            Mode::Recovering => h.write_u8(4),
            Mode::Done => h.write_u8(5),
        }
        h.write_u32(self.state.0);
        write_multiset(
            &mut h,
            self.inbox.iter().map(|&(src, kind)| [src as u64, kind.0.into(), 0]),
        );
        h.write_bytes(self.wal.as_bytes());
        h.write_usize(self.wal.durable_len());
        h.write_usize(self.view.len());
        for bits in self.view.chunks(64) {
            h.write_u64(bits.iter().enumerate().fold(0, |w, (i, &up)| w | u64::from(up) << i));
        }
        h.write_u64(opt_code(self.aligned_class));
        h.write_u64(opt_code(self.outcome));
        h.write_u8(u8::from(self.backup_state.phase1_sent));
        write_set(&mut h, &self.backup_state.pending_acks);
        write_multiset(
            &mut h,
            self.backup_state.collected.iter().map(|&(site, c)| [site as u64, c.into(), 0]),
        );
        write_multiset(&mut h, self.pending_queries.iter().map(|&q| [q as u64, 0, 0]));
        write_multiset(
            &mut h,
            self.recovery_replies.iter().map(|&(site, o, c)| [site as u64, opt_code(o), c.into()]),
        );
        write_set(&mut h, &self.recovered_peers);
        // Suspicions are behavioral state: they gate which
        // suspect/unsuspect actions are enabled and what an unsuspicion
        // will restore.
        write_set(&mut h, &self.suspects);
        h.finish()
    }

    /// Fresh site at the FSA's initial state.
    pub(crate) fn new(id: usize, fsa: &Fsa, n: usize) -> Self {
        let mut site = Self::empty(id, fsa.initial());
        site.reset(fsa, n);
        site
    }

    /// A site holding nothing, for [`SiteRt::reset`] or `clone_from` to
    /// fill.
    fn empty(id: usize, state: StateId) -> Self {
        Self {
            id,
            state,
            inbox: Vec::new(),
            wal: Wal::new(),
            mode: Mode::Normal,
            view: Vec::new(),
            aligned_class: None,
            backup_state: BackupState::default(),
            outcome: None,
            transitions_attempted: 0,
            pending_queries: Vec::new(),
            recovery_replies: Vec::new(),
            recovered_peers: BTreeSet::new(),
            suspects: BTreeSet::new(),
            ever_down: false,
            visited: Vec::new(),
        }
    }

    /// Back to what [`SiteRt::new`] returns for the same `id` — the one
    /// definition of a site's initial state — keeping every collection's
    /// allocation (inbox, WAL buffer, view, monitors). Destructured in
    /// full so a new field cannot be left out of a recycled run.
    pub(crate) fn reset(&mut self, fsa: &Fsa, n: usize) {
        let Self {
            id: _,
            state,
            inbox,
            wal,
            mode,
            view,
            aligned_class,
            backup_state,
            outcome,
            transitions_attempted,
            pending_queries,
            recovery_replies,
            recovered_peers,
            suspects,
            ever_down,
            visited,
        } = self;
        *state = fsa.initial();
        inbox.clear();
        wal.clear();
        *mode = Mode::Normal;
        view.clear();
        view.resize(n, true);
        *aligned_class = None;
        backup_state.clear();
        *outcome = None;
        *transitions_attempted = 0;
        pending_queries.clear();
        recovery_replies.clear();
        recovered_peers.clear();
        suspects.clear();
        *ever_down = false;
        visited.clear();
        visited.resize(fsa.state_count(), false);
        visited[fsa.initial().index()] = true;
    }

    /// Move to local state `s`, recording it in the visited-state monitor.
    pub(crate) fn enter_state(&mut self, s: StateId) {
        self.state = s;
        self.visited[s.index()] = true;
    }

    /// True if the site is up (any mode but `Down`).
    pub fn is_up(&self) -> bool {
        self.mode != Mode::Down
    }

    /// The class this site reports to the termination and recovery
    /// protocols: a decided site reports its outcome's final class even if
    /// its FSA never reached a final state (it may have adopted a
    /// `TermDecision` while frozen mid-protocol); otherwise its aligned
    /// class if phase 1 aligned it, else its current state's class.
    pub(crate) fn reported_class(&self, fsa: &Fsa) -> u8 {
        let class = fsa.state(self.state).class;
        match self.outcome {
            Some(true) => class_codes::COMMITTED,
            Some(false) => class_codes::ABORTED,
            // Final states never align; they report themselves.
            None if class.is_final() => encode_class(class),
            None => self.aligned_class.unwrap_or_else(|| encode_class(class)),
        }
    }

    /// What this site's durable log says of transaction `txn`: what a
    /// restart resumes from, and what a report says of a dead site.
    pub(crate) fn durable_outcome(&self, txn: u64) -> Option<TxnOutcome> {
        let records = Wal::recover(self.wal.as_bytes()).expect("own log well-formed");
        summarize(&records).into_iter().find(|t| t.txn == txn).map(|t| t.outcome)
    }

    /// The backup this site elects: the lowest-id site in its operational
    /// view (itself included).
    pub(crate) fn elected_backup(&self) -> usize {
        self.view.iter().position(|&up| up).expect("at least this site is operational")
    }

    /// Remove one `(src, kind)` message from the inbox; true if present.
    pub(crate) fn take_msg(&mut self, src: usize, kind: MsgKind) -> bool {
        if let Some(pos) = self.inbox.iter().position(|&m| m == (src, kind)) {
            self.inbox.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Does the inbox satisfy a trigger? Exactly when [`SiteRt::consume`]
    /// would find every message it needs.
    pub(crate) fn satisfied(&self, consume: &Consume) -> bool {
        let present =
            |&(src, kind): &(SiteId, MsgKind)| self.inbox.contains(&(src_index(src), kind));
        match consume {
            Consume::Spontaneous => true,
            // Every needed (src, kind) must be present; sources are
            // distinct in well-formed protocols so counting is simple.
            Consume::All(v) => v.iter().all(present),
            Consume::Any(v) => v.iter().any(present),
            // The k-th present candidate exists (and k = 0 never fires).
            Consume::Quorum { k, srcs } => k.checked_sub(1).is_some_and(|last| {
                quorum_candidates(srcs).filter(|&item| present(item)).nth(last as usize).is_some()
            }),
        }
    }

    /// Remove from the inbox the messages a [`SiteRt::satisfied`] trigger
    /// consumes: all of `All`; for `Any`, the first listed message present;
    /// for `Quorum`, the first `k` listed messages present, each source at
    /// most once, in list order — a deterministic choice among the
    /// k-subsets the analysis enumerates.
    pub(crate) fn consume(&mut self, consume: &Consume) {
        match consume {
            Consume::Spontaneous => {}
            Consume::All(v) => {
                for (i, &(src, kind)) in v.iter().enumerate() {
                    if i > 0 && v[i - 1] == (src, kind) {
                        continue; // listed twice in a row: one message
                    }
                    let taken = self.take_msg(src_index(src), kind);
                    debug_assert!(taken, "chosen transition must be satisfiable");
                }
            }
            Consume::Any(v) => {
                let taken = v.iter().any(|&(src, kind)| self.take_msg(src_index(src), kind));
                debug_assert!(taken, "chosen transition must be satisfiable");
            }
            Consume::Quorum { k, srcs } => {
                let mut taken = 0;
                for &(src, kind) in quorum_candidates(srcs) {
                    if taken == *k {
                        break;
                    }
                    taken += u32::from(self.take_msg(src_index(src), kind));
                }
                debug_assert!(taken == *k, "chosen transition must be satisfiable");
            }
        }
    }

    /// Pick the transition to fire under the vote plan: the first
    /// transition (in declaration order) that is vote-compatible and whose
    /// trigger the inbox satisfies.
    pub(crate) fn choose_transition(&self, fsa: &Fsa, vote_yes: bool) -> Option<u32> {
        for (ti, t) in fsa.outgoing(self.state) {
            let compatible = match t.vote {
                Some(Vote::Yes) => vote_yes,
                Some(Vote::No) => !vote_yes,
                None => true,
            };
            if !compatible {
                continue;
            }
            // Untagged spontaneous transitions never self-fire: spontaneity
            // in the catalog always represents a vote.
            if matches!(t.consume, Consume::Spontaneous) && t.vote.is_none() {
                continue;
            }
            if self.satisfied(&t.consume) {
                return Some(ti);
            }
        }
        None
    }
}

/// `None` → 0, `Some(v)` → `v + 1`: an injective word for a small option.
fn opt_code<T: Into<u64>>(o: Option<T>) -> u64 {
    o.map_or(0, |v| v.into() + 1)
}

/// Absorb an order-independent collection commutatively (see
/// [`MultisetFp`]): permutations merge, multiplicities do not.
fn write_multiset(h: &mut Fp128, elems: impl Iterator<Item = [u64; 3]>) {
    let mut m = MultisetFp::default();
    for e in elems {
        let mut eh = Fp128::new();
        for w in e {
            eh.write_u64(w);
        }
        m.add(eh.finish());
    }
    m.write_into(h);
}

/// Absorb an ordered set, length-prefixed.
fn write_set(h: &mut Fp128, set: &BTreeSet<usize>) {
    h.write_usize(set.len());
    for &e in set {
        h.write_usize(e);
    }
}

/// The entries of a quorum trigger that can each contribute a message:
/// every listed `(src, kind)` but repeats of an earlier entry.
pub(crate) fn quorum_candidates(
    srcs: &[(SiteId, MsgKind)],
) -> impl Iterator<Item = &(SiteId, MsgKind)> {
    srcs.iter().enumerate().filter(|&(i, item)| !srcs[..i].contains(item)).map(|(_, item)| item)
}

/// Map a core message source to a site index.
///
/// # Panics
/// Panics on [`SiteId::CLIENT`] — client stimuli are injected into inboxes
/// directly with a reserved source index.
pub(crate) fn src_index(src: SiteId) -> usize {
    if src == SiteId::CLIENT {
        CLIENT_SRC
    } else {
        src.index()
    }
}

/// Reserved inbox source index for client stimuli.
pub(crate) const CLIENT_SRC: usize = usize::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use nbc_core::protocols::central_2pc;
    use nbc_core::StateClass;
    use nbc_storage::LogRecord;

    fn append(s: &mut SiteRt, record: LogRecord) {
        s.wal.append_sync(&record).expect("wal record fits");
    }

    #[test]
    fn inbox_multiset_ops() {
        let p = central_2pc(2);
        let mut s = SiteRt::new(1, p.fsa(SiteId(1)), 2);
        s.inbox.push((0, MsgKind::XACT));
        s.inbox.push((0, MsgKind::XACT));
        assert!(s.take_msg(0, MsgKind::XACT));
        assert_eq!(s.inbox.len(), 1);
        assert!(!s.take_msg(0, MsgKind::COMMIT));
    }

    #[test]
    fn satisfy_all_and_any() {
        let p = central_2pc(3);
        let mut s = SiteRt::new(0, p.fsa(SiteId(0)), 3);
        let all = Consume::All(vec![(SiteId(1), MsgKind::YES), (SiteId(2), MsgKind::YES)]);
        assert!(!s.satisfied(&all));
        s.inbox.push((1, MsgKind::YES));
        assert!(!s.satisfied(&all));
        s.inbox.push((2, MsgKind::YES));
        assert!(s.satisfied(&all));

        let any = Consume::Any(vec![(SiteId(1), MsgKind::NO), (SiteId(2), MsgKind::NO)]);
        assert!(!s.satisfied(&any));
        s.inbox.push((2, MsgKind::NO));
        assert!(s.satisfied(&any));
        s.consume(&any);
        assert_eq!(s.inbox, vec![(1, MsgKind::YES), (2, MsgKind::YES)]);
        s.consume(&all);
        assert!(s.inbox.is_empty());
    }

    #[test]
    fn quorum_takes_the_first_k_present_each_source_once() {
        let p = central_2pc(4);
        let mut s = SiteRt::new(0, p.fsa(SiteId(0)), 4);
        let yes = |i| (SiteId(i), MsgKind::YES);
        // Site 2 is listed twice: it may contribute one message only.
        let quorum = Consume::Quorum { k: 2, srcs: vec![yes(1), yes(2), yes(2), yes(3)] };
        s.inbox.extend([(2, MsgKind::YES), (2, MsgKind::YES)]);
        assert!(!s.satisfied(&quorum), "two messages from one source are one vote");
        s.inbox.push((3, MsgKind::YES));
        assert!(s.satisfied(&quorum));
        s.inbox.push((1, MsgKind::YES));
        s.consume(&quorum);
        // First two present in list order: sites 1 and 2; site 3's stays.
        s.inbox.sort_unstable();
        assert_eq!(s.inbox, vec![(2, MsgKind::YES), (3, MsgKind::YES)]);
        assert!(!s.satisfied(&Consume::Quorum { k: 0, srcs: vec![yes(2)] }), "k = 0 never fires");
    }

    #[test]
    fn reset_site_equals_a_new_one() {
        let p = central_2pc(3);
        let fsa = p.fsa(SiteId(1));
        let mut s = SiteRt::new(1, fsa, 3);
        s.inbox.push((0, MsgKind::XACT));
        let w = fsa.state_by_name("w").unwrap();
        append(
            &mut s,
            LogRecord::Progress { txn: 9, state: w.0, class: encode_class(StateClass::Wait) },
        );
        s.enter_state(w);
        append(&mut s, LogRecord::Decision { txn: 9, commit: false });
        s.outcome = Some(false);
        s.mode = Mode::Blocked;
        s.view[0] = false;
        s.aligned_class = Some(2);
        s.backup_state.pending_acks.insert(2);
        s.backup_state.collected.push((2, 1));
        s.backup_state.phase1_sent = true;
        s.transitions_attempted = 3;
        s.pending_queries.push(2);
        s.recovery_replies.push((2, None, 1));
        s.recovered_peers.insert(0);
        s.suspects.insert(2);
        s.ever_down = true;
        s.reset(fsa, 3);
        assert_eq!(format!("{s:?}"), format!("{:?}", SiteRt::new(1, fsa, 3)));
    }

    #[test]
    fn clone_from_overwrites_a_used_site() {
        let (p, q) = (central_2pc(3), central_2pc(4));
        let fsa = p.fsa(SiteId(1));
        let mut source = SiteRt::new(1, fsa, 3);
        source.inbox.push((0, MsgKind::XACT));
        let w = fsa.state_by_name("w").unwrap();
        append(
            &mut source,
            LogRecord::Progress { txn: 9, state: w.0, class: encode_class(StateClass::Wait) },
        );
        source.enter_state(w);
        source.mode = Mode::Terminating { backup: 1 };
        source.view[0] = false;
        source.aligned_class = Some(2);
        source.backup_state.pending_acks.insert(2);
        source.backup_state.collected.push((2, 1));
        source.backup_state.phase1_sent = true;
        source.transitions_attempted = 3;
        source.pending_queries.push(2);
        source.recovery_replies.push((2, None, 1));
        source.recovered_peers.insert(0);
        source.suspects.insert(2);
        source.ever_down = true;
        // Another slot of another protocol, decided and busy; and a bare one.
        let mut busy = SiteRt::new(0, q.fsa(SiteId(0)), 4);
        busy.inbox.extend([(1, MsgKind::YES), (2, MsgKind::YES), (3, MsgKind::YES)]);
        append(&mut busy, LogRecord::Decision { txn: 7, commit: true });
        busy.outcome = Some(true);
        busy.mode = Mode::Done;
        busy.backup_state.pending_acks.extend([1, 3]);
        busy.recovered_peers.extend([1, 2, 3]);
        for mut target in [busy, SiteRt::new(2, p.fsa(SiteId(2)), 3)] {
            target.clone_from(&source);
            assert_eq!(format!("{target:?}"), format!("{source:?}"));
            assert_eq!(target.digest(), source.digest());
        }
        assert_eq!(format!("{:?}", source.clone()), format!("{source:?}"));
    }

    #[test]
    fn vote_plan_gates_transitions() {
        let p = central_2pc(2);
        let fsa = p.fsa(SiteId(1));
        let mut s = SiteRt::new(1, fsa, 2);
        s.inbox.push((0, MsgKind::XACT));
        // Yes voter takes the yes transition (to w).
        let ti = s.choose_transition(fsa, true).unwrap();
        assert!(fsa.transitions()[ti as usize].vote == Some(Vote::Yes));
        // No voter takes the no transition (to a).
        let ti = s.choose_transition(fsa, false).unwrap();
        assert!(fsa.transitions()[ti as usize].vote == Some(Vote::No));
    }

    #[test]
    fn coordinator_no_vote_is_spontaneous() {
        let p = central_2pc(2);
        let fsa = p.fsa(SiteId(0));
        let mut s = SiteRt::new(0, fsa, 2);
        // Move to w1 manually.
        s.state = fsa.state_by_name("w1").unwrap();
        // A yes-voting coordinator with an empty inbox does nothing.
        assert!(s.choose_transition(fsa, true).is_none());
        // A no-voting coordinator aborts spontaneously.
        let ti = s.choose_transition(fsa, false).unwrap();
        assert!(matches!(fsa.transitions()[ti as usize].consume, Consume::Spontaneous));
    }

    #[test]
    fn elected_backup_is_lowest_operational() {
        let p = central_2pc(3);
        let mut s = SiteRt::new(2, p.fsa(SiteId(2)), 3);
        assert_eq!(s.elected_backup(), 0);
        s.view[0] = false;
        assert_eq!(s.elected_backup(), 1);
        s.view[1] = false;
        assert_eq!(s.elected_backup(), 2);
    }

    #[test]
    fn reported_class_prefers_alignment_except_final() {
        let p = central_2pc(2);
        let fsa = p.fsa(SiteId(1));
        let mut s = SiteRt::new(1, fsa, 2);
        s.state = fsa.state_by_name("w").unwrap();
        assert_eq!(s.reported_class(fsa), nbc_storage::recovery::class_codes::WAIT);
        s.aligned_class = Some(nbc_storage::recovery::class_codes::PREPARED);
        assert_eq!(s.reported_class(fsa), nbc_storage::recovery::class_codes::PREPARED);
        // Final states report themselves regardless of alignment.
        s.state = fsa.state_by_name("c").unwrap();
        assert_eq!(s.reported_class(fsa), nbc_storage::recovery::class_codes::COMMITTED);
        // A decided site reports its outcome, wherever its FSA stands.
        s.state = fsa.state_by_name("w").unwrap();
        s.outcome = Some(false);
        assert_eq!(s.reported_class(fsa), nbc_storage::recovery::class_codes::ABORTED);
    }
}
