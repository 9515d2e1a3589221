//! Exhaustive verification of the termination protocol — the sufficiency
//! direction of the fundamental nonblocking theorem, model-checked.
//!
//! The theorem's sufficiency proof must show that *it is always possible
//! to terminate the protocol, in a consistent state, at all operational
//! sites*. This module checks that claim over the entire state space: for
//! **every** reachable global state `G` and **every** nonempty subset `S`
//! of surviving sites,
//!
//! 1. the decision the elected backup of `S` derives (the backup rule per
//!    [`termination::class_decisions`](crate::termination::class_decisions)
//!    applied to its state class) must not contradict a final state already
//!    present anywhere in `G` — a crashed site may have durably committed
//!    or aborted; and
//! 2. every *possible* backup is covered: crashing sites hands the backup
//!    role down the line, but a crash only shrinks the survivor set, so
//!    enumerating all subsets enumerates every site that can ever decide
//!    with its *own* class. (A backup that inherits a class through
//!    phase-1 alignment re-derives its predecessor's decision by
//!    construction — the rule is a function of the class.)
//!
//! For a protocol satisfying the theorem the check passes with zero
//! witnesses; for 2PC it reports exactly the global states where some
//! survivor subset is stuck or, under the naive rule, would split.
//!
//! A case's verdict depends only on which survivors' classes are blocked
//! and which sites are already final, so the subsets are judged in closed
//! form rather than one by one: each global state is read off its packed
//! words into five site bitmasks (`SiteMasks`), a subset is stuck
//! exactly when it is a nonempty submask of `blocked`, and it is unsafe
//! only when its lowest member decides against a final site. Only a
//! witness is ever spelled out as a survivor list.
//!
//! The class decisions need the finished concurrency facts, so the check
//! is a second streamed walk over the orbit representatives the analysis
//! folded, and reads no edge. A state's stuck count, and whether it has an
//! unsafe case at all, are the same for every state of its orbit, so the
//! counts are exact orbit-weighted sums and [`TerminationVerification::safe`]
//! is exact; the witnesses shown are the first ones in the order of (BFS
//! level, canonical words), whichever thread met them. Like the streamed
//! analysis, the walk deduplicates by 128-bit fingerprint, so "every
//! state" holds unless two reachable states collide (about 10⁻²¹ at 10⁹
//! states).

use std::fmt;

use crate::analysis::Analysis;
use crate::error::ProtocolError;
use crate::fsa::StateClass;
use crate::ids::SiteId;
use crate::protocol::Protocol;
use crate::reach::{self, ReachOptions, StateFolder, Visit};
use crate::termination::Decision;

/// Unsafe witnesses a [`TerminationVerification`] keeps.
const UNSAFE_SHOWN: usize = 5;
/// Stuck witnesses a [`TerminationVerification`] keeps.
const STUCK_SHOWN: usize = 3;

/// A global state + survivor subset where termination misbehaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TerminationWitness {
    /// The elected backup's decision contradicts a final state in `G`.
    ContradictsFinal {
        /// The global state's local states by name, site by site.
        state: Vec<String>,
        /// Survivor subset.
        survivors: Vec<usize>,
        /// The backup whose decision contradicts.
        survivor: SiteId,
        /// The site already in a contradicting final state.
        final_site: SiteId,
    },
    /// Some survivor subset cannot decide at all (every survivor's class
    /// decision is `Blocked`). Expected — and reported — for blocking
    /// protocols; fatal for protocols the theorem calls nonblocking.
    Stuck {
        /// The global state's local states by name, site by site.
        state: Vec<String>,
        /// Survivor subset.
        survivors: Vec<usize>,
    },
}

impl fmt::Display for TerminationWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ContradictsFinal { state, survivors, survivor, final_site } => write!(
                f,
                "state ({}), survivors {survivors:?}: {survivor}'s decision contradicts the final state at {final_site}",
                state.join(", ")
            ),
            Self::Stuck { state, survivors } => {
                write!(f, "state ({}), survivors {survivors:?}: no survivor can decide", state.join(", "))
            }
        }
    }
}

/// Result of the exhaustive termination check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TerminationVerification {
    /// Protocol name.
    pub protocol: String,
    /// Global states × nonempty survivor subsets examined, a saturating
    /// sum like [`Count`](crate::Count)'s.
    pub cases: u128,
    /// Stuck cases: zero iff every survivor subset can decide. Saturating.
    pub stuck_cases: u128,
    /// The first five safety violations (backup decisions
    /// contradicting existing final states). Empty iff there are none,
    /// which must hold for *every* protocol under the class-based rule.
    pub unsafe_witnesses: Vec<TerminationWitness>,
    /// The first three stuck cases: empty iff there are none, but its
    /// length is not their count, which is [`stuck_cases`](Self::stuck_cases).
    /// The witnesses kept are the first in the order of (BFS level,
    /// canonical words) of their state, then their order in it.
    pub stuck_witnesses: Vec<TerminationWitness>,
}

impl TerminationVerification {
    /// No split decisions and no contradictions.
    pub fn safe(&self) -> bool {
        self.unsafe_witnesses.is_empty()
    }

    /// Safe and never stuck: the full nonblocking property.
    pub fn nonblocking(&self) -> bool {
        self.safe() && self.stuck_cases == 0
    }
}

/// Most sites a verification judges: a survivor subset is a `u64` bitmask.
pub const MAX_SITES: usize = u64::BITS as usize;

/// Exhaustively verify termination over every reachable global state and
/// every nonempty survivor subset.
pub fn verify_termination(protocol: &Protocol) -> Result<TerminationVerification, ProtocolError> {
    let analysis = Analysis::build_with(protocol, ReachOptions::default().with_streaming(true))?;
    Ok(verify_termination_with(protocol, &analysis))
}

/// As [`verify_termination`] with a shared analysis, built either way: a
/// second walk over its states, with the options it was built with.
///
/// # Panics
///
/// If the protocol has more than [`MAX_SITES`] sites, or if the walk fails
/// where the analysis's own succeeded: only a spill file's I/O, under
/// [`ReachOptions::mem_budget`], can.
pub fn verify_termination_with(
    protocol: &Protocol,
    analysis: &Analysis,
) -> TerminationVerification {
    let n = protocol.n_sites();
    assert!(n <= MAX_SITES, "survivor subsets are u64 bitmasks");
    let mut verifier = Verifier { protocol, analysis, found: Found::default() };
    let stats = reach::fold_reachable(protocol, analysis.walk, &mut verifier)
        .expect("the analysis walked these states with these options");
    let Found { stuck_cases, unsafe_shown, stuck_shown } = verifier.found;
    TerminationVerification {
        protocol: protocol.name.clone(),
        cases: stats.distinct_states.saturating_mul((1u128 << n) - 1),
        stuck_cases,
        unsafe_witnesses: unsafe_shown.0.into_iter().map(|(.., w)| w).collect(),
        stuck_witnesses: stuck_shown.0.into_iter().map(|(.., w)| w).collect(),
    }
}

/// The second walk's folder: what the backup rule decides, per the
/// finished analysis, and what it found.
struct Verifier<'a> {
    protocol: &'a Protocol,
    analysis: &'a Analysis,
    found: Found,
}

/// The stuck count and the witnesses shown.
#[derive(Default)]
struct Found {
    stuck_cases: u128,
    unsafe_shown: Shown<UNSAFE_SHOWN>,
    stuck_shown: Shown<STUCK_SHOWN>,
}

impl StateFolder for Verifier<'_> {
    fn fold(&mut self, state: &Visit<'_>) {
        // What the backup rule decides in each local state is a function
        // of its class.
        let mut m = SiteMasks::default();
        for (site, &s) in (0u32..).map(SiteId).zip(state.locals) {
            let class = self.analysis.class_of(site, s);
            let decision = self.analysis.class_decisions().get(&class);
            m.add(site, decision.copied().unwrap_or(Decision::Blocked), class);
        }
        let found = &mut self.found;
        found.stuck_cases =
            found.stuck_cases.saturating_add(m.stuck_cases().saturating_mul(state.orbit));

        let names = || -> Vec<String> {
            let sites = self.protocol.fsas().iter();
            sites.zip(state.locals).map(|(fsa, &s)| fsa.state(s).name.clone()).collect()
        };
        let unsafe_cases = contradictions(state.locals.len(), m).map(|(mask, backup, at)| {
            let (survivors, survivor, final_site) = (survivors(mask), SiteId(backup), SiteId(at));
            TerminationWitness::ContradictsFinal { state: names(), survivors, survivor, final_site }
        });
        found.unsafe_shown.offer(state, unsafe_cases);
        let stuck_cases = submasks(m.blocked)
            .map(|mask| TerminationWitness::Stuck { state: names(), survivors: survivors(mask) });
        found.stuck_shown.offer(state, stuck_cases);
    }

    fn split(&self) -> Self {
        Self { found: Found::default(), ..*self }
    }

    fn absorb(&mut self, other: Self) {
        let (found, other) = (&mut self.found, other.found);
        found.stuck_cases = found.stuck_cases.saturating_add(other.stuck_cases);
        found.unsafe_shown.absorb(other.unsafe_shown);
        found.stuck_shown.absorb(other.stuck_shown);
    }

    /// The counts are weighted by orbit already, and the witnesses are
    /// chosen among representatives.
    fn close_under_swap(&mut self, _: SiteId, _: SiteId) -> bool {
        false
    }
}

/// The first `CAP` witnesses of a walk, ordered by the (BFS level,
/// canonical words) of their state and then by their order in it: a total
/// order on what every thread count folds, so any chunking keeps the same.
#[derive(Default)]
struct Shown<const CAP: usize>(Vec<(usize, Box<[u64]>, TerminationWitness)>);

impl<const CAP: usize> Shown<CAP> {
    /// Keep what of `witnesses`, `state`'s in order, is among the first
    /// `CAP` — none once they are all taken by states ordered before it.
    fn offer(&mut self, state: &Visit<'_>, witnesses: impl Iterator<Item = TerminationWitness>) {
        let key = (state.level, state.words);
        if self.0.len() == CAP && self.0.last().is_some_and(|(l, w, _)| (*l, &**w) < key) {
            return;
        }
        let kept = witnesses.take(CAP).map(|w| (state.level, state.words.into(), w));
        self.absorb(Shown(kept.collect()));
    }

    /// Merge, sorting by state stably (no state is folded twice, so its
    /// witnesses stay in their order), and drop all past the first `CAP`.
    fn absorb(&mut self, other: Self) {
        self.0.extend(other.0);
        self.0.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        self.0.truncate(CAP);
    }
}

/// One global state's sites as bitmasks, bit `i` for site `i`: what the
/// backup rule decides from each site's class, and which sites are final.
#[derive(Clone, Copy, Debug, Default)]
struct SiteMasks {
    blocked: u64,
    commit: u64,
    abort: u64,
    final_commit: u64,
    final_abort: u64,
}

impl SiteMasks {
    /// Record that `site` is in a state of `class`, from which the backup
    /// rule decides `decision`.
    fn add(&mut self, site: SiteId, decision: Decision, class: StateClass) {
        let bit = 1u64 << site.index();
        match decision {
            Decision::Commit => self.commit |= bit,
            Decision::Abort => self.abort |= bit,
            Decision::Blocked => self.blocked |= bit,
        }
        match class {
            StateClass::Committed => self.final_commit |= bit,
            StateClass::Aborted => self.final_abort |= bit,
            _ => {}
        }
    }

    /// Liveness: a subset whose backup is blocked is stuck iff no
    /// survivor's class can refine the decision (the cooperative
    /// extension) — iff every survivor is blocked. So the stuck subsets
    /// are the nonempty submasks of `blocked`, `2^popcount − 1` of them.
    fn stuck_cases(&self) -> u128 {
        (1u128 << self.blocked.count_ones()) - 1
    }
}

/// The unsafe cases `(subset, backup, final site)` of a global state whose
/// `n` sites read `m`, in the order a walk over its survivor subsets one by
/// one meets them: subsets ascending as bitmasks, then the contradicted
/// final site ascending.
fn contradictions(n: usize, m: SiteMasks) -> impl Iterator<Item = (u64, u32, u32)> {
    // Safety: the elected backup is the lowest-id survivor, and its
    // decision must not contradict a final state anywhere in G — the
    // durable finals of the crashed sites included.
    let against = |deciders: u64, finals: u64| if finals == 0 { 0 } else { deciders };
    let leads = against(m.commit, m.final_abort) | against(m.abort, m.final_commit);
    led_by(leads, n).flat_map(move |mask| {
        let backup = mask.trailing_zeros();
        let against = if m.commit & (1 << backup) != 0 { m.final_abort } else { m.final_commit };
        members(against).map(move |final_site| (mask, backup, final_site))
    })
}

/// The members of `set`, ascending.
fn members(set: u64) -> impl Iterator<Item = u32> {
    std::iter::successors(Some(set), |&s| Some(s & s.wrapping_sub(1)))
        .take_while(|&s| s != 0)
        .map(u64::trailing_zeros)
}

/// The survivor list of subset `mask`.
fn survivors(mask: u64) -> Vec<usize> {
    members(mask).map(|i| i as usize).collect()
}

/// The nonempty submasks of `set`, ascending.
fn submasks(set: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(0), move |&s| Some((s | !set).wrapping_add(1) & set))
        .skip(1)
        .take_while(|&s| s != 0)
}

/// The nonempty subsets of `n` sites whose lowest member is in `leads`,
/// ascending. The subsets led by site `b` are the odd multiples of `2^b`,
/// so the next one after `mask` is the least, over `b`, of the first odd
/// multiple of `2^b` above it — worked out in `u128`, since at `n = 64` it
/// can pass `u64::MAX`.
fn led_by(leads: u64, n: usize) -> impl Iterator<Item = u64> {
    let first = (leads != 0).then(|| leads & leads.wrapping_neg());
    let end = 1u128 << n;
    std::iter::successors(first, move |&mask| {
        let next = members(leads).map(|b| ((u128::from(mask >> b) + 1) | 1) << b).min()?;
        (next < end).then_some(next as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StateId;
    use crate::kpc::k_phase_central;
    use crate::protocols::{central_2pc, central_3pc, decentralized_2pc, decentralized_3pc};
    use crate::reach::NodeId;

    #[test]
    fn three_pc_verifies_nonblocking_globally() {
        for n in 2..=4 {
            for p in [central_3pc(n), decentralized_3pc(n)] {
                let v = verify_termination(&p).unwrap();
                assert!(v.safe(), "{}: {:?}", p.name, v.unsafe_witnesses);
                assert!(
                    v.nonblocking(),
                    "{}: {} stuck cases of {}",
                    p.name,
                    v.stuck_cases,
                    v.cases
                );
                assert!(v.cases > 0);
            }
        }
    }

    #[test]
    fn two_pc_is_safe_but_gets_stuck() {
        for p in [central_2pc(3), decentralized_2pc(3)] {
            let v = verify_termination(&p).unwrap();
            // The class rule never splits a decision, even for 2PC...
            assert!(v.safe(), "{}: {:?}", p.name, v.unsafe_witnesses);
            // ...but some survivor subsets are stuck: that is blocking.
            assert!(v.stuck_cases > 0, "{}", p.name);
            assert_eq!(v.stuck_witnesses.len(), STUCK_SHOWN, "{}", p.name);
        }
    }

    #[test]
    fn stuck_cases_of_2pc_are_all_wait_subsets() {
        // Every stuck witness has all survivors in their wait states.
        let p = central_2pc(3);
        let v = verify_termination(&p).unwrap();
        for w in &v.stuck_witnesses {
            let TerminationWitness::Stuck { state, survivors } = w else {
                panic!("unexpected witness kind {w}");
            };
            for &i in survivors {
                let fsa = p.fsa(SiteId(i as u32));
                let s = fsa.state_by_name(&state[i]).expect("a state of the site");
                assert_eq!(fsa.state(s).class, StateClass::Wait, "{w}");
            }
        }
    }

    #[test]
    fn k_phase_family_verifies() {
        for k in 3..=4u32 {
            let p = k_phase_central(3, k).unwrap();
            let v = verify_termination(&p).unwrap();
            assert!(v.nonblocking(), "{}", p.name);
        }
    }

    /// What the reference finds, in the order it meets it.
    #[derive(Debug, Default, PartialEq)]
    struct Reference {
        cases: u128,
        unsafe_witnesses: Vec<TerminationWitness>,
        stuck_witnesses: Vec<TerminationWitness>,
    }

    /// The case-by-case loop `verify_termination_with` is held to: decode
    /// every node of the retained graph, then build and judge each
    /// survivor subset on its own.
    fn per_case_reference(protocol: &Protocol, analysis: &Analysis) -> Reference {
        let decisions = analysis.class_decisions();
        let graph = analysis.graph().expect("retained");
        let mut r = Reference::default();
        for node in 0..graph.node_count() as NodeId {
            let locals = &graph.node(node).locals;
            let mut site_decision = Vec::new();
            let mut final_decision = Vec::new();
            for (i, &s) in locals.iter().enumerate() {
                let class = graph.class_of(SiteId(i as u32), s);
                site_decision.push(decisions.get(&class).copied().unwrap_or(Decision::Blocked));
                final_decision.push(final_of(class));
            }
            let state = names(protocol, locals);
            per_case_node(&mut r, &state, &site_decision, &final_decision, u64::MAX);
        }
        r
    }

    fn names(protocol: &Protocol, locals: &[StateId]) -> Vec<String> {
        locals.iter().zip(protocol.fsas()).map(|(&s, fsa)| fsa.state(s).name.clone()).collect()
    }

    /// `Some(true)` for a committed state, `Some(false)` for an aborted one.
    fn final_of(class: StateClass) -> Option<bool> {
        match class {
            StateClass::Committed => Some(true),
            StateClass::Aborted => Some(false),
            _ => None,
        }
    }

    /// The reference's step over one global state whose sites decide
    /// `site_decision` and are final as `final_decision` says: every
    /// nonempty survivor subset up to the bitmask `last`, one at a time.
    fn per_case_node(
        r: &mut Reference,
        state: &[String],
        site_decision: &[Decision],
        final_decision: &[Option<bool>],
        last: u64,
    ) {
        let n = site_decision.len();
        let all = u64::MAX >> (64 - n);
        for mask in 1..=all.min(last) {
            let survivors: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            r.cases += 1;
            let backup = survivors[0];
            let backup_decision = site_decision[backup];
            match backup_decision {
                Decision::Commit | Decision::Abort => {
                    let commits = backup_decision == Decision::Commit;
                    for (j, fd) in final_decision.iter().enumerate() {
                        if matches!(fd, Some(f) if *f != commits) {
                            r.unsafe_witnesses.push(TerminationWitness::ContradictsFinal {
                                state: state.to_vec(),
                                survivors: survivors.clone(),
                                survivor: SiteId(backup as u32),
                                final_site: SiteId(j as u32),
                            });
                        }
                    }
                }
                Decision::Blocked => {
                    if survivors.iter().all(|&i| site_decision[i] == Decision::Blocked) {
                        r.stuck_witnesses.push(TerminationWitness::Stuck {
                            state: state.to_vec(),
                            survivors: survivors.clone(),
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn matches_the_per_case_reference() {
        let mut protocols: Vec<Protocol> = (2..=6).flat_map(crate::protocols::catalog).collect();
        protocols.push(k_phase_central(3, 4).unwrap());
        protocols.push(k_phase_central(4, 3).unwrap());
        for p in protocols {
            let r = per_case_reference(&p, &Analysis::build(&p).unwrap());
            let streamed =
                Analysis::build_with(&p, ReachOptions::default().with_streaming(true)).unwrap();
            let v = verify_termination_with(&p, &streamed);
            assert_eq!(v.protocol, p.name);
            assert_eq!(v.cases, r.cases, "{}", p.name);
            assert_eq!(v.stuck_cases, r.stuck_witnesses.len() as u128, "{}", p.name);
            assert_eq!(v.safe(), r.unsafe_witnesses.is_empty(), "{}", p.name);
            let shown = |all: &[TerminationWitness], cap: usize| all.len().min(cap);
            assert_eq!(v.unsafe_witnesses.len(), shown(&r.unsafe_witnesses, UNSAFE_SHOWN));
            assert_eq!(v.stuck_witnesses.len(), shown(&r.stuck_witnesses, STUCK_SHOWN));
            for w in &v.unsafe_witnesses {
                assert!(r.unsafe_witnesses.contains(w), "{}: {w}", p.name);
            }
            for w in &v.stuck_witnesses {
                assert!(r.stuck_witnesses.contains(w), "{}: {w}", p.name);
            }
        }
    }

    /// The closed form's cases of one state, as witnesses: every unsafe
    /// one and every stuck one up to the bitmask `last`.
    fn closed_form(state: &[String], n: usize, m: SiteMasks, last: u64) -> Reference {
        let unsafe_witnesses = contradictions(n, m)
            .take_while(|&(mask, ..)| mask <= last)
            .map(|(mask, backup, final_site)| TerminationWitness::ContradictsFinal {
                state: state.to_vec(),
                survivors: survivors(mask),
                survivor: SiteId(backup),
                final_site: SiteId(final_site),
            })
            .collect();
        let stuck_witnesses = submasks(m.blocked)
            .take_while(|&mask| mask <= last)
            .map(|mask| TerminationWitness::Stuck {
                state: state.to_vec(),
                survivors: survivors(mask),
            })
            .collect();
        let cases = u128::from(last.min(u64::MAX >> (64 - n)));
        Reference { cases, unsafe_witnesses, stuck_witnesses }
    }

    #[test]
    fn one_state_matches_the_per_case_reference_on_random_masks() {
        // No catalog protocol contradicts a final state, so the unsafe
        // branch and its order are held to the reference here: every site
        // draws a decision and a class at random, finals against the rule
        // included. Up to 8 sites the reference judges every subset; at 63
        // and 64 it judges the first 2^10, and the closed form's first
        // witnesses must be the ones it finds there.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let decisions = [Decision::Commit, Decision::Abort, Decision::Blocked];
        let classes = [StateClass::Committed, StateClass::Aborted, StateClass::Wait];
        let (mut contradicting, mut stuck) = (0, 0);
        for n in (1..=8).chain([63, 64]) {
            let (last, draws) = if n <= 8 { (u64::MAX, 400) } else { ((1 << 10) - 1, 100) };
            for node in 0..draws {
                let state = vec![format!("s{node}")];
                let mut masks = SiteMasks::default();
                let (mut site_decision, mut final_decision) = (Vec::new(), Vec::new());
                for site in 0..n {
                    let decision = decisions[(next() % 3) as usize];
                    let class = classes[(next() % 3) as usize];
                    masks.add(SiteId(site), decision, class);
                    site_decision.push(decision);
                    final_decision.push(final_of(class));
                }
                let mut reference = Reference::default();
                per_case_node(&mut reference, &state, &site_decision, &final_decision, last);
                let got = closed_form(&state, n as usize, masks, last);
                assert_eq!(got, reference, "n={n} {masks:?}");
                let blocked = site_decision.iter().filter(|&&d| d == Decision::Blocked).count();
                assert_eq!(masks.stuck_cases(), 2u128.pow(blocked as u32) - 1, "n={n} {masks:?}");
                if n <= 8 {
                    assert_eq!(masks.stuck_cases(), reference.stuck_witnesses.len() as u128);
                }
                contradicting += usize::from(!got.unsafe_witnesses.is_empty());
                stuck += usize::from(!got.stuck_witnesses.is_empty());
            }
        }
        assert!(contradicting > 0 && stuck > 0, "both kinds drawn: {contradicting}, {stuck}");

        // The top of a 64-site state: site 63 leads one subset, site 62
        // two, and every site blocked is 2^64 − 1 stuck subsets.
        let top = SiteMasks {
            commit: 1 << 63,
            final_abort: 1,
            blocked: u64::MAX,
            ..SiteMasks::default()
        };
        assert_eq!(contradictions(64, top).collect::<Vec<_>>(), [(1 << 63, 63, 0)]);
        assert_eq!(led_by(1 << 62, 64).collect::<Vec<_>>(), [1 << 62, 3 << 62]);
        assert_eq!(top.stuck_cases(), u128::from(u64::MAX));
    }

    #[test]
    fn witness_display() {
        let state = vec!["w1".to_string(), "q".into(), "q".into()];
        let w = TerminationWitness::Stuck { state, survivors: vec![0] };
        assert_eq!(w.to_string(), "state (w1, q, q), survivors [0]: no survivor can decide");
    }
}
