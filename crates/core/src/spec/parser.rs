//! The line-oriented parser for the protocol spec format.
//!
//! Parsing is two steps. [`Spec::parse`] reads the text once and keeps
//! what does not depend on the site count: every line checked, state
//! names resolved to ids, message kinds interned. [`Spec::instantiate`]
//! then builds the protocol for `n` sites. [`parse`] is their composition;
//! the catalog keeps one `Spec` per text and instantiates it per call.

use std::fmt;

use crate::fsa::{Consume, Envelope, Fsa, FsaBuilder, StateClass, Vote};
use crate::ids::{MsgKind, SiteId, StateId};
use crate::protocol::{InitialMsg, Paradigm, Protocol};

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// What went wrong.
    pub(crate) message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

/// A set of sites, resolved against the instantiation size and (for
/// `Others`) the site currently being built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteSet {
    One(usize),
    Range(usize, Option<usize>),
    All,
    Slaves,
    Others,
}

impl SiteSet {
    fn resolve(self, n: usize, me: usize) -> Vec<usize> {
        match self {
            Self::One(i) => vec![i],
            Self::Range(lo, hi) => (lo..=hi.unwrap_or(n - 1)).collect(),
            Self::All => (0..n).collect(),
            Self::Slaves => (1..n).collect(),
            Self::Others => (0..n).filter(|&j| j != me).collect(),
        }
    }
}

/// Message source in a trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Client,
    Site(usize),
    All(SiteSet),
    Any(SiteSet),
}

#[derive(Debug, Clone)]
enum Action {
    Send { kind: String, to: SiteSet },
    Vote(Vote),
}

#[derive(Debug, Clone)]
struct TransitionSpec {
    line: usize,
    from: String,
    to: String,
    trigger: Option<(String, Src)>, // None = spontaneous
    actions: Vec<Action>,
    label: Option<String>,
}

#[derive(Debug, Clone)]
struct FsaSpec {
    role: String,
    sites: SiteSet,
    states: Vec<(String, StateClass)>,
    transitions: Vec<TransitionSpec>,
}

/// A message kind as the text names it: an index into [`Spec::kinds`].
type KindIx = usize;

/// A transition with its states resolved and its kinds interned.
struct Rule {
    line: usize,
    from: StateId,
    to: StateId,
    trigger: Option<(KindIx, Src)>,
    sends: Vec<(KindIx, SiteSet)>,
    vote: Option<Vote>,
    label: String,
}

/// An automaton with its transitions resolved.
struct Automaton {
    role: String,
    sites: SiteSet,
    states: Vec<(String, StateClass)>,
    /// The transitions before the first one that failed to resolve.
    rules: Vec<Rule>,
    /// What failed: an automaton with no initial state, or a transition
    /// naming an undeclared state. It is reported only when a site runs
    /// this automaton, after the site checks of the rules before it,
    /// where building the automaton meets it.
    error: Option<ParseError>,
}

/// A parsed spec, independent of the site count.
pub(crate) struct Spec {
    name: String,
    paradigm: Paradigm,
    inits: Vec<(KindIx, SiteSet, usize)>,
    automata: Vec<Automaton>,
    /// Every kind the text names, in order of first mention, with its
    /// built-in id if it has one. Custom ids are assigned per protocol.
    kinds: Vec<(String, Option<MsgKind>)>,
}

/// Directives whose lines are never transitions, even with a `->` in them.
const DIRECTIVES: [&str; 5] = ["protocol", "paradigm", "init", "fsa", "state"];

impl Spec {
    /// Read a spec: everything [`parse`] checks that does not depend on
    /// the site count.
    pub(crate) fn parse(text: &str) -> Result<Self, ParseError> {
        let mut name: Option<String> = None;
        let mut paradigm = Paradigm::Custom;
        let mut inits: Vec<(String, SiteSet, usize)> = Vec::new();
        let mut fsas: Vec<FsaSpec> = Vec::new();

        for (line_ix, raw) in text.lines().enumerate() {
            let line_no = line_ix + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let words: Vec<&str> = line.split_whitespace().collect();
            let transition = !DIRECTIVES.contains(&words[0]) && line.contains("->");
            if !transition
                && line.split(';').any(|part| part.split_whitespace().next() == Some("label"))
            {
                return err(line_no, "a `label` clause belongs on a transition line");
            }
            match words[0] {
                "protocol" => {
                    if words.len() < 2 {
                        return err(line_no, "usage: protocol NAME");
                    }
                    name = Some(words[1..].join(" "));
                }
                "paradigm" => {
                    paradigm = match words.get(1).copied() {
                        Some("central") => Paradigm::CentralSite,
                        Some("decentralized") => Paradigm::Decentralized,
                        Some("custom") => Paradigm::Custom,
                        other => {
                            return err(
                                line_no,
                                format!(
                                    "unknown paradigm {other:?} (central | decentralized | custom)"
                                ),
                            )
                        }
                    };
                }
                "init" => {
                    // init KIND to SITESET
                    if words.len() < 4 || words[2] != "to" {
                        return err(line_no, "usage: init KIND to SITESET");
                    }
                    let set = parse_site_set(&words[3..], line_no)?;
                    inits.push((words[1].to_string(), set, line_no));
                }
                "fsa" => {
                    if words.len() < 3 {
                        return err(line_no, "usage: fsa NAME SITESET");
                    }
                    let set = parse_site_set(&words[2..], line_no)?;
                    fsas.push(FsaSpec {
                        role: words[1].to_string(),
                        sites: set,
                        states: Vec::new(),
                        transitions: Vec::new(),
                    });
                }
                "state" => {
                    let Some(fsa) = fsas.last_mut() else {
                        return err(line_no, "`state` outside an `fsa` block");
                    };
                    if words.len() < 3 {
                        return err(line_no, "usage: state NAME CLASS");
                    }
                    let class = match words[2] {
                        "initial" => StateClass::Initial,
                        "wait" => StateClass::Wait,
                        "prepared" => StateClass::Prepared,
                        "aborted" => StateClass::Aborted,
                        "committed" => StateClass::Committed,
                        "custom" => {
                            let k: u8 =
                                words.get(3).and_then(|w| w.parse().ok()).ok_or(ParseError {
                                    line: line_no,
                                    message: "usage: state NAME custom K".into(),
                                })?;
                            StateClass::Custom(k)
                        }
                        other => return err(line_no, format!("unknown state class {other:?}")),
                    };
                    if fsa.states.iter().any(|(nm, _)| nm == words[1]) {
                        return err(
                            line_no,
                            format!("duplicate state name {:?} in fsa {:?}", words[1], fsa.role),
                        );
                    }
                    fsa.states.push((words[1].to_string(), class));
                }
                _ if transition => {
                    let Some(fsa) = fsas.last_mut() else {
                        return err(line_no, "transition outside an `fsa` block");
                    };
                    fsa.transitions.push(parse_transition(line, line_no)?);
                }
                other => return err(line_no, format!("unrecognized directive {other:?}")),
            }
        }

        let name = name.ok_or(ParseError { line: 0, message: "missing `protocol NAME`".into() })?;
        if fsas.is_empty() {
            return err(0, "no `fsa` blocks");
        }

        let mut kinds = Vec::new();
        let automata = fsas.into_iter().map(|f| Automaton::resolve(f, &mut kinds)).collect();
        let inits =
            inits.into_iter().map(|(kind, set, line)| (intern(&mut kinds, &kind), set, line));
        let inits = inits.collect();
        Ok(Self { name, paradigm, inits, automata, kinds })
    }

    /// Build the protocol for `n_sites >= 2` sites: everything [`parse`]
    /// checks that depends on the site count.
    pub(crate) fn instantiate(&self, n_sites: usize) -> Result<Protocol, ParseError> {
        // Assign an automaton to every site.
        let mut per_site: Vec<Option<&Automaton>> = vec![None; n_sites];
        for f in &self.automata {
            for i in f.sites.resolve(n_sites, usize::MAX) {
                if i >= n_sites {
                    return err(0, format!("fsa {:?} names site {i} of {n_sites}", f.role));
                }
                if per_site[i].is_some() {
                    return err(0, format!("site {i} assigned to two fsa blocks"));
                }
                per_site[i] = Some(f);
            }
        }
        for (i, f) in per_site.iter().enumerate() {
            if f.is_none() {
                return err(0, format!("site {i} has no fsa"));
            }
        }

        let mut ids = KindIds::new(&self.kinds);
        let mut built = Vec::with_capacity(n_sites);
        for (i, f) in per_site.iter().enumerate() {
            built.push(f.expect("checked").build(i, n_sites, &mut ids)?);
        }

        let mut initial_msgs = Vec::new();
        for &(kind, set, line) in &self.inits {
            let k = ids.get(kind);
            for dst in set.resolve(n_sites, usize::MAX) {
                if dst >= n_sites {
                    return err(line, format!("init targets site {dst} of {n_sites}"));
                }
                initial_msgs.push(InitialMsg {
                    src: SiteId::CLIENT,
                    dst: SiteId(dst as u32),
                    kind: k,
                });
            }
        }

        let name = format!("{} (n={n_sites})", self.name);
        let mut p = Protocol::new(name, self.paradigm, built, initial_msgs);
        for ((nm, _), id) in self.kinds.iter().zip(&ids.ids) {
            if let Some(k) = id.filter(|k| k.0 >= MsgKind::FIRST_CUSTOM.0) {
                p.name_msg(k, nm.clone());
            }
        }
        Ok(p)
    }
}

/// Parse a spec into a protocol instantiated for `n_sites`.
pub fn parse(text: &str, n_sites: usize) -> Result<Protocol, ParseError> {
    if n_sites < 2 {
        return err(0, "a commit protocol needs at least 2 sites");
    }
    Spec::parse(text)?.instantiate(n_sites)
}

/// The index of kind `name` in `kinds`, appending it on first mention.
fn intern(kinds: &mut Vec<(String, Option<MsgKind>)>, name: &str) -> KindIx {
    if let Some(ix) = kinds.iter().position(|(nm, _)| nm == name) {
        return ix;
    }
    let builtin = [
        MsgKind::REQUEST,
        MsgKind::XACT,
        MsgKind::YES,
        MsgKind::NO,
        MsgKind::COMMIT,
        MsgKind::ABORT,
        MsgKind::PREPARE,
        MsgKind::ACK,
    ]
    .into_iter()
    .find(|k| k.builtin_name() == Some(name));
    kinds.push((name.to_string(), builtin));
    kinds.len() - 1
}

/// One protocol's message ids: a custom kind gets the next free id the
/// first time a built site uses it, so ids follow the order of use.
struct KindIds<'a> {
    names: &'a [(String, Option<MsgKind>)],
    ids: Vec<Option<MsgKind>>,
    next_custom: u16,
}

impl<'a> KindIds<'a> {
    fn new(names: &'a [(String, Option<MsgKind>)]) -> Self {
        Self {
            names,
            ids: names.iter().map(|&(_, builtin)| builtin).collect(),
            next_custom: MsgKind::FIRST_CUSTOM.0,
        }
    }

    fn name(&self, ix: KindIx) -> &'a str {
        &self.names[ix].0
    }

    fn get(&mut self, ix: KindIx) -> MsgKind {
        *self.ids[ix].get_or_insert_with(|| {
            let k = MsgKind(self.next_custom);
            self.next_custom += 1;
            k
        })
    }
}

fn parse_site_set(words: &[&str], line: usize) -> Result<SiteSet, ParseError> {
    match words {
        ["all"] | ["peers"] => Ok(SiteSet::All),
        ["slaves"] => Ok(SiteSet::Slaves),
        ["others"] => Ok(SiteSet::Others),
        ["site", n] => n
            .parse()
            .map(SiteSet::One)
            .map_err(|_| ParseError { line, message: format!("bad site index {n:?}") }),
        ["sites", range] => {
            let (lo, hi) = range
                .split_once("..")
                .ok_or(ParseError { line, message: "usage: sites N.. or sites N..M".into() })?;
            let lo: usize = lo
                .parse()
                .map_err(|_| ParseError { line, message: format!("bad range start {lo:?}") })?;
            let hi =
                if hi.is_empty() {
                    None
                } else {
                    Some(hi.parse().map_err(|_| ParseError {
                        line,
                        message: format!("bad range end {hi:?}"),
                    })?)
                };
            Ok(SiteSet::Range(lo, hi))
        }
        other => err(line, format!("unrecognized site set {other:?}")),
    }
}

fn parse_transition(line: &str, line_no: usize) -> Result<TransitionSpec, ParseError> {
    let (arrow, rest) = line.split_once(':').ok_or(ParseError {
        line: line_no,
        message: "transition needs `FROM -> TO : TRIGGER [; ACTION]*`".into(),
    })?;
    let (from, to) = arrow
        .split_once("->")
        .ok_or(ParseError { line: line_no, message: "transition needs `FROM -> TO`".into() })?;
    let mut parts = rest.split(';').map(str::trim);
    let trigger_text = parts.next().unwrap_or("");
    let trigger = parse_trigger(trigger_text, line_no)?;
    let mut actions = Vec::new();
    let mut label = None;
    for p in parts {
        if p.is_empty() {
            continue;
        }
        if p.split_whitespace().next() == Some("label") {
            let text = p["label".len()..].trim();
            if text.is_empty() {
                return err(line_no, "empty label clause (want `label TEXT`)");
            }
            if label.replace(text.to_string()).is_some() {
                return err(line_no, "transition has two label clauses");
            }
            continue;
        }
        actions.push(parse_action(p, line_no)?);
    }
    Ok(TransitionSpec {
        line: line_no,
        from: from.trim().to_string(),
        to: to.trim().to_string(),
        trigger,
        actions,
        label,
    })
}

fn parse_trigger(text: &str, line: usize) -> Result<Option<(String, Src)>, ParseError> {
    let words: Vec<&str> = text.split_whitespace().collect();
    match words.as_slice() {
        [] => err(line, "transition has an empty rule body (want `spontaneous` or `recv ...`)"),
        ["spontaneous"] => Ok(None),
        ["recv", kind, "from", "client"] => Ok(Some((kind.to_string(), Src::Client))),
        ["recv", kind, "from", "site", n] => {
            let i: usize = n
                .parse()
                .map_err(|_| ParseError { line, message: format!("bad site index {n:?}") })?;
            Ok(Some((kind.to_string(), Src::Site(i))))
        }
        ["recv", kind, "from", quant @ ("all" | "any"), set @ ..] => {
            let set = parse_site_set_names(set, line)?;
            let src = if *quant == "all" { Src::All(set) } else { Src::Any(set) };
            Ok(Some((kind.to_string(), src)))
        }
        _ => err(line, format!("unrecognized trigger {text:?}")),
    }
}

/// Site-set names as used inside triggers, accepting singular forms
/// ("any slave").
fn parse_site_set_names(words: &[&str], line: usize) -> Result<SiteSet, ParseError> {
    match words {
        ["slaves"] | ["slave"] => Ok(SiteSet::Slaves),
        ["peers"] | ["peer"] | ["all"] => Ok(SiteSet::All),
        ["others"] | ["other"] => Ok(SiteSet::Others),
        other => parse_site_set(other, line),
    }
}

fn parse_action(text: &str, line: usize) -> Result<Action, ParseError> {
    let words: Vec<&str> = text.split_whitespace().collect();
    match words.as_slice() {
        ["send", kind, "to", set @ ..] => {
            Ok(Action::Send { kind: kind.to_string(), to: parse_site_set_names(set, line)? })
        }
        ["vote", "yes"] => Ok(Action::Vote(Vote::Yes)),
        ["vote", "no"] => Ok(Action::Vote(Vote::No)),
        _ => err(line, format!("unrecognized action {text:?}")),
    }
}

/// Reject a trigger source set that names the same site twice. `Consume::All`
/// consumes one message per listed pair, so a duplicate would demand two
/// identical outstanding messages — never what a spec means — and for `Any`
/// a duplicate is a redundant alternative. Every current [`SiteSet`] resolves
/// to unique sites, so this guards future set syntax (e.g. unions) from
/// silently producing a trigger the graph builder can never enable.
fn unique_sources(sites: Vec<usize>, line: usize, kind: &str) -> Result<Vec<usize>, ParseError> {
    let mut sorted = sites.clone();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return err(line, format!("trigger lists source site {} twice for message {kind:?}", w[0]));
    }
    Ok(sites)
}

/// Reject site indices outside `0..n` with a line-attributed error instead of
/// letting them surface later as panics or dead protocol edges.
fn check_sites(sites: &[usize], n: usize, line: usize, what: &str) -> Result<(), ParseError> {
    if let Some(i) = sites.iter().find(|i| **i >= n) {
        return err(line, format!("{what} names site {i}, but the protocol has sites 0..{n}"));
    }
    Ok(())
}

impl Rule {
    fn resolve(
        t: &TransitionSpec,
        states: &[(String, StateClass)],
        kinds: &mut Vec<(String, Option<MsgKind>)>,
    ) -> Result<Self, ParseError> {
        let id = |name: &str| {
            let ix = states.iter().position(|(nm, _)| nm == name);
            ix.map(|i| StateId(i as u32))
                .ok_or(ParseError { line: t.line, message: format!("unknown state {name:?}") })
        };
        let (from, to) = (id(&t.from)?, id(&t.to)?);
        let trigger = t.trigger.as_ref().map(|(kind, src)| (intern(kinds, kind), *src));
        let mut sends = Vec::new();
        let mut vote = None;
        for a in &t.actions {
            match a {
                Action::Send { kind, to } => sends.push((intern(kinds, kind), *to)),
                Action::Vote(v) => vote = Some(*v),
            }
        }
        let label = t.label.clone().unwrap_or_else(|| format!("{} -> {}", t.from, t.to));
        Ok(Self { line: t.line, from, to, trigger, sends, vote, label })
    }
}

impl Automaton {
    fn resolve(spec: FsaSpec, kinds: &mut Vec<(String, Option<MsgKind>)>) -> Self {
        let mut rules = Vec::new();
        let mut error = None;
        if !spec.states.iter().any(|(_, c)| *c == StateClass::Initial) {
            let message = format!("fsa {:?} declares no `initial` state", spec.role);
            error = Some(ParseError { line: 0, message });
        } else {
            for t in &spec.transitions {
                match Rule::resolve(t, &spec.states, kinds) {
                    Ok(rule) => rules.push(rule),
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
        }
        Self { role: spec.role, sites: spec.sites, states: spec.states, rules, error }
    }

    fn build(&self, me: usize, n: usize, kinds: &mut KindIds<'_>) -> Result<Fsa, ParseError> {
        let mut b = FsaBuilder::new(self.role.clone());
        for (nm, class) in &self.states {
            b.state(nm.clone(), *class);
        }
        for t in &self.rules {
            let consume = match t.trigger {
                None => Consume::Spontaneous,
                Some((kind, src)) => {
                    let k = kinds.get(kind);
                    match src {
                        Src::Client => Consume::one(SiteId::CLIENT, k),
                        Src::Site(i) => {
                            check_sites(&[i], n, t.line, "trigger")?;
                            Consume::one(SiteId(i as u32), k)
                        }
                        Src::All(set) | Src::Any(set) => {
                            let sites = set.resolve(n, me);
                            check_sites(&sites, n, t.line, "trigger")?;
                            let pairs = unique_sources(sites, t.line, kinds.name(kind))?
                                .into_iter()
                                .map(|j| (SiteId(j as u32), k))
                                .collect();
                            if matches!(src, Src::All(_)) {
                                Consume::All(pairs)
                            } else {
                                Consume::Any(pairs)
                            }
                        }
                    }
                }
            };
            let mut emit = Vec::new();
            for &(kind, to) in &t.sends {
                let k = kinds.get(kind);
                let sites = to.resolve(n, me);
                check_sites(&sites, n, t.line, "send target")?;
                for j in sites {
                    emit.push(Envelope::new(SiteId(j as u32), k));
                }
            }
            b.transition(t.from, t.to, consume, emit, t.vote, t.label.clone());
        }
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(b.build()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CENTRAL_2PC: &str = include_str!("../protocols/central_2pc.nbc");
    const DECENTRALIZED_2PC: &str = include_str!("../protocols/decentralized_2pc.nbc");

    #[test]
    fn rejects_bad_paradigm() {
        let e = parse("protocol x\nparadigm sideways\n", 2).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("paradigm"));
    }

    #[test]
    fn rejects_state_outside_fsa() {
        let e = parse("protocol x\nstate q initial\n", 2).unwrap_err();
        assert!(e.message.contains("outside"));
    }

    #[test]
    fn rejects_unknown_state_in_transition() {
        let text = "protocol x\nfsa a all\n  state q initial\n  q -> nowhere : spontaneous\n";
        let e = parse(text, 2).unwrap_err();
        assert!(e.message.contains("nowhere"), "{e}");
        assert_eq!(e.line, 4);
    }

    #[test]
    fn rejects_unassigned_site() {
        let text = "protocol x\nfsa a site 0\n  state q initial\n";
        let e = parse(text, 3).unwrap_err();
        assert!(e.message.contains("no fsa"), "{e}");
    }

    #[test]
    fn rejects_double_assignment() {
        let text = "protocol x\nfsa a all\n state q initial\nfsa b site 0\n state q initial\n";
        let e = parse(text, 2).unwrap_err();
        assert!(e.message.contains("two fsa blocks"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = parse(DECENTRALIZED_2PC, 2).unwrap();
        assert_eq!(p.n_sites(), 2);
    }

    #[test]
    fn custom_message_kinds_are_interned_and_named() {
        let text = "\
protocol gossip
paradigm custom
init ping to site 0
fsa a site 0
  state q initial
  state c committed
  q -> c : recv ping from client ; send pong to others
fsa b sites 1..
  state q initial
  state c committed
  state a aborted
  q -> c : recv pong from site 0
  q -> a : spontaneous ; vote no
";
        let p = parse(text, 3).unwrap();
        // `pong` got a custom kind with its name registered.
        let pong =
            p.fsa(SiteId(0)).transitions().iter().flat_map(|t| t.emit.iter()).next().unwrap().kind;
        assert!(pong.0 >= MsgKind::FIRST_CUSTOM.0);
        assert_eq!(p.msg_name(pong), "pong");
    }

    #[test]
    fn line_numbers_in_errors() {
        let text =
            "protocol x\n\n# comment\nfsa a all\n  state q initial\n  q -> q : garbage trigger\n";
        let e = parse(text, 2).unwrap_err();
        assert_eq!(e.line, 6);
    }

    #[test]
    fn site_ranges_resolve() {
        assert_eq!(SiteSet::Range(1, None).resolve(4, 0), vec![1, 2, 3]);
        assert_eq!(SiteSet::Range(1, Some(2)).resolve(4, 0), vec![1, 2]);
        assert_eq!(SiteSet::Others.resolve(3, 1), vec![0, 2]);
        assert_eq!(SiteSet::Slaves.resolve(3, 0), vec![1, 2]);
    }

    #[test]
    fn needs_two_sites() {
        assert!(parse(CENTRAL_2PC, 1).is_err());
    }

    #[test]
    fn rejects_duplicate_state_name() {
        let text = "protocol x\nfsa a all\n  state q initial\n  state q committed\n";
        let e = parse(text, 2).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("duplicate state name \"q\""), "{e}");
    }

    #[test]
    fn rejects_unknown_trigger_site() {
        let text = "\
protocol x
fsa a all
  state q initial
  state c committed
  q -> c : recv yes from site 9
";
        let e = parse(text, 3).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("site 9"), "{e}");
        assert!(e.message.contains("0..3"), "{e}");
    }

    #[test]
    fn rejects_out_of_range_send_target() {
        let text = "\
protocol x
fsa a all
  state q initial
  state c committed
  q -> c : spontaneous ; send yes to site 5
";
        let e = parse(text, 2).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("send target names site 5"), "{e}");
    }

    #[test]
    fn rejects_empty_rule_body() {
        let text = "protocol x\nfsa a all\n  state q initial\n  state c committed\n  q -> c :\n";
        let e = parse(text, 2).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("empty rule body"), "{e}");
    }

    #[test]
    fn duplicate_trigger_sources_rejected() {
        // No current SiteSet syntax can resolve to a duplicate, so exercise
        // the guard directly: it is what keeps future set syntax from
        // emitting a `Consume::All` that demands the same message twice.
        let e = unique_sources(vec![2, 1, 2], 7, "yes").unwrap_err();
        assert_eq!(e.line, 7);
        assert!(e.message.contains("site 2 twice"), "{}", e.message);
        assert!(e.message.contains("yes"));
        assert_eq!(unique_sources(vec![0, 1, 2], 7, "yes").unwrap(), vec![0, 1, 2]);
    }

    const TWO_STATES: &str = "fsa a all\n  state q initial\n  state c committed\n";

    #[test]
    fn protocol_name_is_the_rest_of_its_line() {
        let p = parse(&format!("protocol  central-site   3PC # note\n{TWO_STATES}"), 4).unwrap();
        assert_eq!(p.name, "central-site 3PC (n=4)");
        let e = parse(&format!("protocol # no name\n{TWO_STATES}"), 2).unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (1, "usage: protocol NAME"));
    }

    #[test]
    fn label_clause_names_the_transition() {
        let text = format!(
            "protocol x\n{TWO_STATES}  q -> c : spontaneous ; label (yes_1) / commit_2..commit_n \
             ; vote yes\n  q -> c : spontaneous\n"
        );
        let p = parse(&text, 2).unwrap();
        let labels: Vec<_> = p.fsa(SiteId(0)).transitions().iter().map(|t| &t.label).collect();
        assert_eq!(labels, ["(yes_1) / commit_2..commit_n", "q -> c"]);
        assert_eq!(p.fsa(SiteId(0)).transitions()[0].vote, Some(Vote::Yes));
    }

    #[test]
    fn rejects_empty_and_repeated_label_clauses() {
        for (clause, want) in
            [("; label", "empty label clause"), ("; label a ; label b", "two label clauses")]
        {
            let text = format!("protocol x\n{TWO_STATES}  q -> c : spontaneous {clause}\n");
            let e = parse(&text, 2).unwrap_err();
            assert_eq!(e.line, 5, "{clause}");
            assert!(e.message.contains(want), "{clause}: {e}");
        }
    }

    #[test]
    fn rejects_label_clause_off_a_transition_line() {
        for (line, bad) in [
            (2, "label start"),
            (3, "state q initial ; label start"),
            (1, "protocol x ; label y"),
            (2, "fsa a all ; label peers"),
        ] {
            let text = match line {
                1 => format!("{bad}\n{TWO_STATES}"),
                2 => format!("protocol x\n{bad}\n  state q initial\n"),
                _ => format!("protocol x\nfsa a all\n{bad}\n"),
            };
            let e = parse(&text, 2).unwrap_err();
            assert_eq!(e.line, line, "{bad}");
            assert!(e.message.contains("belongs on a transition line"), "{bad}: {e}");
        }
    }

    #[test]
    fn errors_keep_their_order_across_the_two_steps() {
        // A site-count error in an earlier automaton wins over an unknown
        // state in a later one, as when one pass did both.
        let text = "protocol x\nfsa a site 0\n  state q initial\n  q -> q : recv m from site 7\n\
                    fsa b sites 1..\n  state q initial\n  q -> nowhere : spontaneous\n";
        assert!(parse(text, 3).unwrap_err().message.contains("site 7"));
        // An unassigned site wins over an automaton with no initial state.
        let text = "protocol x\nfsa a site 0\n  state c committed\n";
        assert!(parse(text, 2).unwrap_err().message.contains("site 1 has no fsa"));
    }
}
