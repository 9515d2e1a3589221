//! The *canonical* single-automaton view of a commit protocol, and the
//! paper's Lemma for protocols synchronous within one state transition.
//!
//! The paper observes that the central-site and decentralized 2PC protocols
//! are structurally equivalent and both synchronous within one state
//! transition, and abstracts them into a single canonical automaton
//! `q → w → {a, c}`. For such protocols, *the concurrency set for a given
//! state can only contain states that are adjacent to the given state and
//! the given state itself* — so nonblocking can be decided by pure graph
//! adjacency, without building the reachable state graph:
//!
//! > **Lemma.** A protocol which is synchronous within one state transition
//! > is nonblocking if and only if (1) it contains no local state adjacent
//! > to both a commit and an abort state, and (2) it contains no
//! > noncommittable state adjacent to a commit state.
//!
//! [`insert_buffer_states`] is the paper's design method: introducing a
//! buffer state `p` ("prepare to commit") between `w` and `c` makes the
//! canonical 2PC satisfy both constraints — yielding the canonical 3PC.

use std::collections::BTreeSet;
use std::fmt;

use crate::fsa::StateClass;
use crate::termination::Decision;

/// One state of a canonical automaton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalState {
    /// Single-letter display name (`q`, `w`, `p`, `a`, `c`, …).
    pub name: String,
    /// Semantic class.
    pub class: StateClass,
    /// Whether occupancy implies all sites voted yes. In the canonical
    /// abstraction this is declared, not derived: buffer states introduced
    /// by the synthesis are committable by construction.
    pub committable: bool,
}

/// A canonical (site-symmetric) protocol automaton.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalFsa {
    /// Display name of the protocol.
    pub(crate) name: String,
    states: Vec<CanonicalState>,
    /// Directed edges `(from, to)` by state index.
    edges: Vec<(u32, u32)>,
    initial: u32,
}

impl CanonicalFsa {
    /// Assemble a canonical automaton.
    pub fn new(
        name: impl Into<String>,
        states: Vec<CanonicalState>,
        edges: Vec<(u32, u32)>,
        initial: u32,
    ) -> Self {
        Self { name: name.into(), states, edges, initial }
    }

    /// All states.
    pub fn states(&self) -> &[CanonicalState] {
        &self.states
    }

    /// Index of the initial state.
    pub fn initial(&self) -> u32 {
        self.initial
    }

    /// Find a state index by name.
    pub fn state_by_name(&self, name: &str) -> Option<u32> {
        self.states.iter().position(|s| s.name == name).map(|i| i as u32)
    }

    /// The adjacency set of `s`: `s` itself plus its predecessors and
    /// successors. For a protocol synchronous within one state transition,
    /// this *is* the concurrency set (paper §"Concurrency sets in the
    /// canonical 2PC protocol").
    pub(crate) fn adjacency_set(&self, s: u32) -> BTreeSet<u32> {
        let mut out = BTreeSet::from([s]);
        for &(a, b) in &self.edges {
            if a == s {
                out.insert(b);
            }
            if b == s {
                out.insert(a);
            }
        }
        out
    }

    /// The adjacency (= concurrency) set rendered as state names, e.g.
    /// `CS(w) = {q, w, a, c}`.
    pub fn adjacency_names(&self, s: u32) -> Vec<&str> {
        self.adjacency_set(s).into_iter().map(|i| self.states[i as usize].name.as_str()).collect()
    }

    /// Check the Lemma's two constraints; empty result means nonblocking.
    pub fn lemma_violations(&self) -> Vec<LemmaViolation> {
        let mut out = Vec::new();
        for (i, st) in self.states.iter().enumerate() {
            let adj = self.adjacency_set(i as u32);
            let commit_adj =
                adj.iter().any(|&j| self.states[j as usize].class == StateClass::Committed);
            let abort_adj =
                adj.iter().any(|&j| self.states[j as usize].class == StateClass::Aborted);
            if commit_adj && abort_adj {
                out.push(LemmaViolation::AdjacentToBoth { state: st.name.clone() });
            }
            if commit_adj && !st.committable && st.class != StateClass::Committed {
                out.push(LemmaViolation::NoncommittableAdjacentToCommit { state: st.name.clone() });
            }
        }
        out
    }

    /// True iff the Lemma's constraints hold (the protocol is nonblocking).
    pub fn is_nonblocking(&self) -> bool {
        self.lemma_violations().is_empty()
    }

    /// The backup coordinator's decision rule (paper §"Decision Rule For
    /// Backup Coordinators"): commit iff the concurrency set of `s`
    /// contains a commit state, otherwise abort.
    ///
    /// Only meaningful for nonblocking canonical protocols.
    pub fn backup_decision(&self, s: u32) -> Decision {
        let adj = self.adjacency_set(s);
        if adj.iter().any(|&j| self.states[j as usize].class == StateClass::Committed) {
            Decision::Commit
        } else {
            Decision::Abort
        }
    }
}

impl fmt::Display for CanonicalFsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "canonical protocol: {}", self.name)?;
        for (i, s) in self.states.iter().enumerate() {
            writeln!(
                f,
                "  {}{} [{:?}{}]  CS = {{{}}}",
                if i as u32 == self.initial { ">" } else { " " },
                s.name,
                s.class,
                if s.committable { ", committable" } else { "" },
                self.adjacency_names(i as u32).join(", ")
            )?;
        }
        for &(a, b) in &self.edges {
            writeln!(f, "  {} -> {}", self.states[a as usize].name, self.states[b as usize].name)?;
        }
        Ok(())
    }
}

/// A violated Lemma constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LemmaViolation {
    /// Constraint 1: a state adjacent to both a commit and an abort state.
    AdjacentToBoth {
        /// Name of the violating state.
        state: String,
    },
    /// Constraint 2: a noncommittable state adjacent to a commit state.
    NoncommittableAdjacentToCommit {
        /// Name of the violating state.
        state: String,
    },
}

impl fmt::Display for LemmaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::AdjacentToBoth { state } => {
                write!(f, "state {state} is adjacent to both a commit and an abort state")
            }
            Self::NoncommittableAdjacentToCommit { state } => {
                write!(f, "noncommittable state {state} is adjacent to a commit state")
            }
        }
    }
}

/// The canonical two-phase commit automaton: `q → w → {a, c}`, plus the
/// unilateral abort `q → a`. Only `c` is committable.
pub fn canonical_2pc() -> CanonicalFsa {
    CanonicalFsa::new(
        "canonical 2PC",
        vec![
            CanonicalState { name: "q".into(), class: StateClass::Initial, committable: false },
            CanonicalState { name: "w".into(), class: StateClass::Wait, committable: false },
            CanonicalState { name: "a".into(), class: StateClass::Aborted, committable: false },
            CanonicalState { name: "c".into(), class: StateClass::Committed, committable: true },
        ],
        vec![(0, 1), (0, 2), (1, 2), (1, 3)],
        0,
    )
}

/// The canonical three-phase commit automaton: 2PC with the buffer state
/// `p` between `w` and `c`. Both `p` and `c` are committable.
pub fn canonical_3pc() -> CanonicalFsa {
    CanonicalFsa::new(
        "canonical 3PC",
        vec![
            CanonicalState { name: "q".into(), class: StateClass::Initial, committable: false },
            CanonicalState { name: "w".into(), class: StateClass::Wait, committable: false },
            CanonicalState { name: "a".into(), class: StateClass::Aborted, committable: false },
            CanonicalState { name: "p".into(), class: StateClass::Prepared, committable: true },
            CanonicalState { name: "c".into(), class: StateClass::Committed, committable: true },
        ],
        vec![(0, 1), (0, 2), (1, 2), (1, 3), (3, 4)],
        0,
    )
}

/// The paper's design method: make a blocking canonical protocol
/// nonblocking by inserting buffer states.
///
/// For every edge `s → c` into a commit state where `s` violates a Lemma
/// constraint (it is noncommittable, or it is also adjacent to an abort
/// state), the edge is replaced by `s → p → c` with a fresh committable
/// buffer state `p`. The buffer state is committable by construction: it is
/// entered precisely when the transition to commit had been enabled, i.e.
/// after unanimous yes votes.
///
/// Applying this to [`canonical_2pc`] yields exactly [`canonical_3pc`].
pub fn insert_buffer_states(fsa: &CanonicalFsa) -> CanonicalFsa {
    let mut out = fsa.clone();
    out.name = format!("{} + buffer states", fsa.name);
    let mut next_buffer = 0u32;
    loop {
        let offending = out.edges.iter().copied().position(|(s, c)| {
            let target_commit = out.states[c as usize].class == StateClass::Committed;
            if !target_commit {
                return false;
            }
            let src = &out.states[s as usize];
            if src.class == StateClass::Committed {
                return false;
            }
            let adj = out.adjacency_set(s);
            let abort_adjacent =
                adj.iter().any(|&j| out.states[j as usize].class == StateClass::Aborted);
            !src.committable || abort_adjacent
        });
        let Some(idx) = offending else { break };
        let (s, c) = out.edges[idx];
        let p_idx = out.states.len() as u32;
        out.states.push(CanonicalState {
            name: if next_buffer == 0 { "p".to_string() } else { format!("p{next_buffer}") },
            class: StateClass::Prepared,
            committable: true,
        });
        next_buffer += 1;
        out.edges.remove(idx);
        out.edges.push((s, p_idx));
        out.edges.push((p_idx, c));
        let _ = s;
        let _ = c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_2pc_concurrency_sets_match_paper() {
        // CS(q)={q,w,a}, CS(w)={q,w,a,c}, CS(a)={q,w,a}, CS(c)={w,c}.
        let f = canonical_2pc();
        let id = |n: &str| f.state_by_name(n).unwrap();
        assert_eq!(f.adjacency_names(id("q")), vec!["q", "w", "a"]);
        assert_eq!(f.adjacency_names(id("w")), vec!["q", "w", "a", "c"]);
        assert_eq!(f.adjacency_names(id("a")), vec!["q", "w", "a"]);
        assert_eq!(f.adjacency_names(id("c")), vec!["w", "c"]);
    }

    #[test]
    fn canonical_2pc_blocks_at_w() {
        let f = canonical_2pc();
        let v = f.lemma_violations();
        assert_eq!(
            v,
            vec![
                LemmaViolation::AdjacentToBoth { state: "w".into() },
                LemmaViolation::NoncommittableAdjacentToCommit { state: "w".into() },
            ]
        );
        assert!(!f.is_nonblocking());
    }

    #[test]
    fn canonical_3pc_is_nonblocking() {
        let f = canonical_3pc();
        assert!(f.is_nonblocking(), "{:?}", f.lemma_violations());
    }

    #[test]
    fn buffer_insertion_turns_2pc_into_3pc() {
        let f2 = canonical_2pc();
        let f3 = insert_buffer_states(&f2);
        assert!(f3.is_nonblocking(), "{:?}", f3.lemma_violations());
        // Structurally equal to the canonical 3PC up to the name field.
        let reference = canonical_3pc();
        assert_eq!(f3.states().len(), reference.states().len());
        let mut e1: Vec<_> = f3
            .edges
            .iter()
            .map(|&(a, b)| {
                (f3.states()[a as usize].name.clone(), f3.states()[b as usize].name.clone())
            })
            .collect();
        let mut e2: Vec<_> = reference
            .edges
            .iter()
            .map(|&(a, b)| {
                (
                    reference.states()[a as usize].name.clone(),
                    reference.states()[b as usize].name.clone(),
                )
            })
            .collect();
        e1.sort();
        e2.sort();
        assert_eq!(e1, e2);
    }

    #[test]
    fn buffer_insertion_is_idempotent_on_nonblocking_input() {
        let f3 = canonical_3pc();
        let again = insert_buffer_states(&f3);
        assert_eq!(again.states().len(), f3.states().len());
        assert_eq!(again.edges.len(), f3.edges.len());
    }

    #[test]
    fn termination_decision_table_matches_paper() {
        // Paper §"Termination protocol for the canonical 3PC":
        // commit if s ∈ {p, c}; abort if s ∈ {q, w, a}.
        let f = canonical_3pc();
        let id = |n: &str| f.state_by_name(n).unwrap();
        assert_eq!(f.backup_decision(id("q")), Decision::Abort);
        assert_eq!(f.backup_decision(id("w")), Decision::Abort);
        assert_eq!(f.backup_decision(id("a")), Decision::Abort);
        assert_eq!(f.backup_decision(id("p")), Decision::Commit);
        assert_eq!(f.backup_decision(id("c")), Decision::Commit);
    }

    #[test]
    fn display_renders_concurrency_sets() {
        let s = canonical_2pc().to_string();
        assert!(s.contains("CS ="));
        assert!(s.contains("w -> c"));
    }
}
