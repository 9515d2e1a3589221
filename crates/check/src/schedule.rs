//! Replayable schedules: the serialized form of one explored execution.
//!
//! A schedule is a header (protocol, site count, vote plan, termination
//! rule) plus an ordered list of [`Step`]s — exactly the nondeterministic
//! choices the explorer made. Replaying the steps against a fresh
//! [`Runner`] in lockstep mode reproduces the execution bit-for-bit, which
//! is what makes shrunk counterexamples checkable artifacts instead of
//! prose: the corpus under `tests/corpus/` is replayed byte-for-byte in CI,
//! and `nbc simulate --schedule FILE` re-executes one interactively.
//!
//! The on-disk format is JSONL: the first line is the header object, every
//! following line one step object. Writing is deterministic (fixed field
//! order); parsing accepts any field order.

use std::fmt;

use nbc_engine::{channel_of, Channel, Runner};
use nbc_simnet::NetEvent;

/// One scheduler choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Deliver the head message of the `(src, dst)` link.
    Deliver {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
    /// Lose the most recently sent in-flight message of the `(src, dst)`
    /// link. Dropping tails keeps every surviving message sequence a
    /// prefix of what was sent — the shape of the paper's non-atomic
    /// transition failure, where a crashing site sends only a prefix of a
    /// transition's messages.
    Drop {
        /// Sender.
        src: usize,
        /// Receiver.
        dst: usize,
    },
    /// Deliver the failure detector's next notice to `observer`, which
    /// must report `crashed`.
    FailNotice {
        /// The site being informed.
        observer: usize,
        /// The site it learns has crashed.
        crashed: usize,
    },
    /// Deliver the detector's next notice to `observer`, which must
    /// report that `recovered` is back.
    RecoveryNotice {
        /// The site being informed.
        observer: usize,
        /// The site it learns has recovered.
        recovered: usize,
    },
    /// `observer` starts suspecting `peer` — the imperfect (timeout-based)
    /// detector's choice point, injected by the scheduler rather than by
    /// silence. The suspicion may be *false*: `peer` can be alive.
    Suspect {
        /// The suspecting site.
        observer: usize,
        /// The suspected site (possibly live — that is the point).
        peer: usize,
    },
    /// `observer` clears its suspicion of `peer` (evidence of life
    /// arrived). The revocation that perfect failure detection never has.
    Unsuspect {
        /// The site clearing its suspicion.
        observer: usize,
        /// The peer trusted again.
        peer: usize,
    },
    /// Crash a site (volatile state lost, synced WAL prefix survives).
    Crash {
        /// The crashing site.
        site: usize,
    },
    /// Restart a crashed site (WAL replay + recovery protocol).
    Recover {
        /// The restarting site.
        site: usize,
    },
    /// Partition the network into groups (`groups[i]` = site `i`'s group).
    Partition {
        /// Group assignment per site.
        groups: Vec<usize>,
    },
    /// Heal a partition.
    Heal,
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Deliver { src, dst } => write!(f, "deliver {src}->{dst}"),
            Step::Drop { src, dst } => write!(f, "drop {src}->{dst}"),
            Step::FailNotice { observer, crashed } => {
                write!(f, "site{observer} learns site{crashed} crashed")
            }
            Step::RecoveryNotice { observer, recovered } => {
                write!(f, "site{observer} learns site{recovered} recovered")
            }
            Step::Suspect { observer, peer } => {
                write!(f, "site{observer} suspects site{peer}")
            }
            Step::Unsuspect { observer, peer } => {
                write!(f, "site{observer} unsuspects site{peer}")
            }
            Step::Crash { site } => write!(f, "crash site{site}"),
            Step::Recover { site } => write!(f, "recover site{site}"),
            Step::Partition { groups } => write!(f, "partition {groups:?}"),
            Step::Heal => write!(f, "heal"),
        }
    }
}

/// A complete replayable execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Protocol name (a catalog name or spec path, as the CLI resolves it).
    pub protocol: String,
    /// Site count.
    pub n: usize,
    /// Vote plan (`votes[i]` = site `i` votes yes).
    pub votes: Vec<bool>,
    /// Termination rule name (`skeen` | `cooperative` | `naive` | `quorum`).
    pub rule: String,
    /// The choices, in order.
    pub steps: Vec<Step>,
}

/// Why a step could not be applied during strict replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// Index of the failing step.
    pub step: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {}: {}", self.step, self.reason)
    }
}

/// The schedule step that delivers `ev`.
pub(crate) fn step_for(ev: &NetEvent<nbc_engine::Wire>) -> Step {
    match *ev {
        NetEvent::Deliver { src, dst, .. } => Step::Deliver { src, dst },
        NetEvent::FailureNotice { observer, crashed } => Step::FailNotice { observer, crashed },
        NetEvent::RecoveryNotice { observer, recovered } => {
            Step::RecoveryNotice { observer, recovered }
        }
    }
}

/// Head (earliest-sent pending) event of one FIFO channel, if any.
pub fn channel_head<'r>(
    runner: &'r Runner<'_>,
    ch: Channel,
) -> Option<(u64, &'r NetEvent<nbc_engine::Wire>)> {
    runner
        .iter_pending()
        .filter(|(_, _, ev)| channel_of(ev) == ch)
        .min_by_key(|&(at, seq, _)| (at, seq))
        .map(|(_, seq, ev)| (seq, ev))
}

/// Tail (most recently sent pending) event of one FIFO channel, if any.
pub fn channel_tail<'r>(
    runner: &'r Runner<'_>,
    ch: Channel,
) -> Option<(u64, &'r NetEvent<nbc_engine::Wire>)> {
    runner
        .iter_pending()
        .filter(|(_, _, ev)| channel_of(ev) == ch)
        .max_by_key(|&(at, seq, _)| (at, seq))
        .map(|(_, seq, ev)| (seq, ev))
}

/// Apply one step to a runner. Returns `Err` with the reason when the step
/// is not applicable in the current state (nothing pending on the channel,
/// site already down, head event mismatch, ...). The runner is unchanged
/// on error.
pub fn apply_step(runner: &mut Runner<'_>, step: &Step) -> Result<(), String> {
    match step {
        Step::Deliver { src, dst } => {
            let (seq, _) = channel_head(runner, Channel::Link(*src, *dst))
                .ok_or_else(|| format!("nothing in flight on link {src}->{dst}"))?;
            runner.fire_scheduled(seq);
            Ok(())
        }
        Step::Drop { src, dst } => {
            let (seq, _) = channel_tail(runner, Channel::Link(*src, *dst))
                .ok_or_else(|| format!("nothing in flight on link {src}->{dst}"))?;
            runner.drop_scheduled(seq);
            Ok(())
        }
        Step::FailNotice { observer, crashed } => {
            let (seq, ev) = channel_head(runner, Channel::Detector(*observer))
                .ok_or_else(|| format!("no detector notice pending for site{observer}"))?;
            match ev {
                NetEvent::FailureNotice { crashed: c, .. } if c == crashed => {
                    runner.fire_scheduled(seq);
                    Ok(())
                }
                other => Err(format!(
                    "detector head for site{observer} is {other:?}, not failure of site{crashed}"
                )),
            }
        }
        Step::RecoveryNotice { observer, recovered } => {
            let (seq, ev) = channel_head(runner, Channel::Detector(*observer))
                .ok_or_else(|| format!("no detector notice pending for site{observer}"))?;
            match ev {
                NetEvent::RecoveryNotice { recovered: r, .. } if r == recovered => {
                    runner.fire_scheduled(seq);
                    Ok(())
                }
                other => Err(format!(
                    "detector head for site{observer} is {other:?}, not recovery of site{recovered}"
                )),
            }
        }
        Step::Suspect { observer, peer } => {
            if observer == peer {
                return Err(format!("site{observer} cannot suspect itself"));
            }
            if !runner.sites()[*observer].is_up() {
                return Err(format!("site{observer} is down and cannot suspect"));
            }
            if runner.sites()[*observer].suspects.contains(peer) {
                return Err(format!("site{observer} already suspects site{peer}"));
            }
            runner.suspect_now(*observer, *peer);
            Ok(())
        }
        Step::Unsuspect { observer, peer } => {
            if !runner.sites()[*observer].is_up() {
                return Err(format!("site{observer} is down and cannot unsuspect"));
            }
            if !runner.sites()[*observer].suspects.contains(peer) {
                return Err(format!("site{observer} does not suspect site{peer}"));
            }
            runner.unsuspect_now(*observer, *peer);
            Ok(())
        }
        Step::Crash { site } => {
            if !runner.sites()[*site].is_up() {
                return Err(format!("site{site} is already down"));
            }
            runner.crash_now(*site);
            Ok(())
        }
        Step::Recover { site } => {
            if runner.sites()[*site].is_up() {
                return Err(format!("site{site} is not down"));
            }
            runner.recover_now(*site);
            Ok(())
        }
        Step::Partition { groups } => {
            if groups.len() != runner.sites().len() {
                return Err(format!(
                    "partition groups must cover all {} sites",
                    runner.sites().len()
                ));
            }
            runner.partition_now(groups.clone());
            Ok(())
        }
        Step::Heal => {
            runner.heal_now();
            Ok(())
        }
    }
}

/// Replay `steps` strictly: every step must apply. Returns the index and
/// reason of the first inapplicable step.
pub fn replay_strict(runner: &mut Runner<'_>, steps: &[Step]) -> Result<(), ReplayError> {
    for (i, step) in steps.iter().enumerate() {
        apply_step(runner, step).map_err(|reason| ReplayError { step: i, reason })?;
    }
    Ok(())
}

/// Replay `steps` leniently: inapplicable steps are skipped. Returns the
/// steps that actually applied (in order). The shrinker uses this to
/// evaluate candidate schedules whose removed steps invalidate later ones.
pub fn replay_lenient(runner: &mut Runner<'_>, steps: &[Step]) -> Vec<Step> {
    let mut applied = Vec::with_capacity(steps.len());
    for step in steps {
        if apply_step(runner, step).is_ok() {
            applied.push(step.clone());
        }
    }
    applied
}

// ----------------------------------------------------------------------
// JSONL encoding
// ----------------------------------------------------------------------

impl Schedule {
    /// Serialize to JSONL: header line + one line per step. Deterministic
    /// byte-for-byte (fixed field order, no whitespace variance).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let votes: Vec<&str> =
            self.votes.iter().map(|v| if *v { "true" } else { "false" }).collect();
        out.push_str(&format!(
            "{{\"schedule\":\"nbc-check/v1\",\"protocol\":\"{}\",\"n\":{},\"votes\":[{}],\"rule\":\"{}\"}}\n",
            escape(&self.protocol),
            self.n,
            votes.join(","),
            escape(&self.rule),
        ));
        for s in &self.steps {
            out.push_str(&step_json(s));
            out.push('\n');
        }
        out
    }

    /// Parse the JSONL form. Accepts any object-field order; rejects
    /// unknown step kinds and missing fields with a line-numbered error.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or("empty schedule")?;
        let h = JsonObj::parse(header).map_err(|e| format!("line 1: {e}"))?;
        if h.str_field("schedule") != Some("nbc-check/v1") {
            return Err("line 1: not an nbc-check/v1 schedule header".into());
        }
        let protocol = h.str_field("protocol").ok_or("line 1: missing protocol")?.to_string();
        let n = h.num_field("n").ok_or("line 1: missing n")? as usize;
        let votes = h.bool_array("votes").ok_or("line 1: missing votes")?;
        let rule = h.str_field("rule").ok_or("line 1: missing rule")?.to_string();
        let mut steps = Vec::new();
        for (ix, line) in lines {
            let o = JsonObj::parse(line).map_err(|e| format!("line {}: {e}", ix + 1))?;
            steps.push(parse_step(&o).map_err(|e| format!("line {}: {e}", ix + 1))?);
        }
        Ok(Self { protocol, n, votes, rule, steps })
    }
}

fn step_json(s: &Step) -> String {
    match s {
        Step::Deliver { src, dst } => {
            format!("{{\"step\":\"deliver\",\"src\":{src},\"dst\":{dst}}}")
        }
        Step::Drop { src, dst } => format!("{{\"step\":\"drop\",\"src\":{src},\"dst\":{dst}}}"),
        Step::FailNotice { observer, crashed } => {
            format!("{{\"step\":\"fail-notice\",\"observer\":{observer},\"crashed\":{crashed}}}")
        }
        Step::RecoveryNotice { observer, recovered } => {
            format!("{{\"step\":\"recovery-notice\",\"observer\":{observer},\"recovered\":{recovered}}}")
        }
        Step::Suspect { observer, peer } => {
            format!("{{\"step\":\"suspect\",\"observer\":{observer},\"peer\":{peer}}}")
        }
        Step::Unsuspect { observer, peer } => {
            format!("{{\"step\":\"unsuspect\",\"observer\":{observer},\"peer\":{peer}}}")
        }
        Step::Crash { site } => format!("{{\"step\":\"crash\",\"site\":{site}}}"),
        Step::Recover { site } => format!("{{\"step\":\"recover\",\"site\":{site}}}"),
        Step::Partition { groups } => {
            let g: Vec<String> = groups.iter().map(|x| x.to_string()).collect();
            format!("{{\"step\":\"partition\",\"groups\":[{}]}}", g.join(","))
        }
        Step::Heal => "{\"step\":\"heal\"}".to_string(),
    }
}

fn parse_step(o: &JsonObj) -> Result<Step, String> {
    let kind = o.str_field("step").ok_or("missing step kind")?;
    let num = |f: &str| o.num_field(f).map(|v| v as usize).ok_or(format!("missing {f}"));
    match kind {
        "deliver" => Ok(Step::Deliver { src: num("src")?, dst: num("dst")? }),
        "drop" => Ok(Step::Drop { src: num("src")?, dst: num("dst")? }),
        "fail-notice" => {
            Ok(Step::FailNotice { observer: num("observer")?, crashed: num("crashed")? })
        }
        "recovery-notice" => {
            Ok(Step::RecoveryNotice { observer: num("observer")?, recovered: num("recovered")? })
        }
        "suspect" => Ok(Step::Suspect { observer: num("observer")?, peer: num("peer")? }),
        "unsuspect" => Ok(Step::Unsuspect { observer: num("observer")?, peer: num("peer")? }),
        "crash" => Ok(Step::Crash { site: num("site")? }),
        "recover" => Ok(Step::Recover { site: num("site")? }),
        "partition" => {
            Ok(Step::Partition { groups: o.num_array("groups").ok_or("missing groups")? })
        }
        "heal" => Ok(Step::Heal),
        other => Err(format!("unknown step kind {other:?}")),
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ----------------------------------------------------------------------
// A deliberately tiny JSON object reader: flat objects whose values are
// strings, integers, booleans, or arrays of integers/booleans — exactly
// the schedule grammar. No dependency, no recursion, positioned errors.
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Str(String),
    Num(i64),
    Bool(bool),
    NumArr(Vec<i64>),
    BoolArr(Vec<bool>),
}

struct JsonObj {
    fields: Vec<(String, JsonVal)>,
}

impl JsonObj {
    fn parse(line: &str) -> Result<Self, String> {
        let mut p = Parser { bytes: line.trim().as_bytes(), pos: 0 };
        p.expect(b'{')?;
        let mut fields = Vec::new();
        p.skip_ws();
        if p.peek() == Some(b'}') {
            return Ok(Self { fields });
        }
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let val = p.value()?;
            fields.push((key, val));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(format!("expected ',' or '}}' at byte {}", p.pos)),
            }
        }
        Ok(Self { fields })
    }

    fn field(&self, name: &str) -> Option<&JsonVal> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name) {
            Some(JsonVal::Str(s)) => Some(s),
            _ => None,
        }
    }

    fn num_field(&self, name: &str) -> Option<i64> {
        match self.field(name) {
            Some(JsonVal::Num(v)) => Some(*v),
            _ => None,
        }
    }

    fn num_array(&self, name: &str) -> Option<Vec<usize>> {
        match self.field(name) {
            Some(JsonVal::NumArr(v)) => Some(v.iter().map(|&x| x as usize).collect()),
            _ => None,
        }
    }

    fn bool_array(&self, name: &str) -> Option<Vec<bool>> {
        match self.field(name) {
            Some(JsonVal::BoolArr(v)) => Some(v.clone()),
            // [] parses as an empty numeric array; accept it as empty.
            Some(JsonVal::NumArr(v)) if v.is_empty() => Some(Vec::new()),
            _ => None,
        }
    }
}

struct Parser<'t> {
    bytes: &'t [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.next() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    other => return Err(format!("bad escape {other:?} at byte {}", self.pos)),
                },
                Some(b) => out.push(b as char),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<i64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or(format!("bad number at byte {start}"))
    }

    fn value(&mut self) -> Result<JsonVal, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonVal::Str(self.string()?)),
            Some(b't') if self.bytes[self.pos..].starts_with(b"true") => {
                self.pos += 4;
                Ok(JsonVal::Bool(true))
            }
            Some(b'f') if self.bytes[self.pos..].starts_with(b"false") => {
                self.pos += 5;
                Ok(JsonVal::Bool(false))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut nums = Vec::new();
                let mut bools = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonVal::NumArr(nums));
                }
                loop {
                    self.skip_ws();
                    match self.value()? {
                        JsonVal::Num(v) => nums.push(v),
                        JsonVal::Bool(b) => bools.push(b),
                        _ => return Err(format!("unsupported array element at byte {}", self.pos)),
                    }
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => break,
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
                if !bools.is_empty() && nums.is_empty() {
                    Ok(JsonVal::BoolArr(bools))
                } else if bools.is_empty() {
                    Ok(JsonVal::NumArr(nums))
                } else {
                    Err("mixed array".into())
                }
            }
            Some(b'0'..=b'9' | b'-') => Ok(JsonVal::Num(self.number()?)),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            protocol: "central-2pc".into(),
            n: 3,
            votes: vec![true, true, false],
            rule: "skeen".into(),
            steps: vec![
                Step::Deliver { src: 0, dst: 1 },
                Step::Suspect { observer: 1, peer: 0 },
                Step::Unsuspect { observer: 1, peer: 0 },
                Step::Crash { site: 0 },
                Step::FailNotice { observer: 1, crashed: 0 },
                Step::Drop { src: 0, dst: 2 },
                Step::Recover { site: 0 },
                Step::RecoveryNotice { observer: 2, recovered: 0 },
                Step::Partition { groups: vec![0, 0, 1] },
                Step::Heal,
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_byte_for_byte() {
        let s = sample();
        let text = s.to_jsonl();
        let parsed = Schedule::from_jsonl(&text).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn parser_rejects_junk() {
        assert!(Schedule::from_jsonl("").is_err());
        assert!(Schedule::from_jsonl("{\"schedule\":\"other\"}").is_err());
        let mut text = sample().to_jsonl();
        text.push_str("{\"step\":\"warp\"}\n");
        let err = Schedule::from_jsonl(&text).unwrap_err();
        assert!(err.contains("unknown step kind"), "{err}");
    }

    #[test]
    fn field_order_is_flexible() {
        let text = "{\"n\":2,\"votes\":[true,true],\"rule\":\"skeen\",\"protocol\":\"p\",\"schedule\":\"nbc-check/v1\"}\n{\"dst\":1,\"src\":0,\"step\":\"deliver\"}\n";
        let s = Schedule::from_jsonl(text).unwrap();
        assert_eq!(s.n, 2);
        assert_eq!(s.steps, vec![Step::Deliver { src: 0, dst: 1 }]);
    }
}
