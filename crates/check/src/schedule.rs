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
use nbc_obs::json::{array, parse, Obj, Value};
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
    pub(crate) step: usize,
    /// What went wrong.
    pub(crate) reason: String,
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
pub(crate) fn channel_head<'r>(
    runner: &'r Runner<'_>,
    ch: Channel,
) -> Option<(u64, &'r NetEvent<nbc_engine::Wire>)> {
    runner.iter_pending().find(|(_, _, ev)| channel_of(ev) == ch).map(|(_, seq, ev)| (seq, ev))
}

/// Tail (most recently sent pending) event of one FIFO channel, if any.
pub(crate) fn channel_tail<'r>(
    runner: &'r Runner<'_>,
    ch: Channel,
) -> Option<(u64, &'r NetEvent<nbc_engine::Wire>)> {
    runner
        .iter_pending()
        .filter(|(_, _, ev)| channel_of(ev) == ch)
        .last()
        .map(|(_, seq, ev)| (seq, ev))
}

/// `Err` when `step` names a site outside `0..n`, or a partition that is
/// not one group id below `n` per site. Schedule files and shrunk
/// candidates are checked here, so nothing downstream indexes with a
/// number it was merely handed.
fn check_range(step: &Step, n: usize) -> Result<(), String> {
    let named: &[usize] = match step {
        Step::Deliver { src, dst } | Step::Drop { src, dst } => &[*src, *dst],
        Step::FailNotice { observer, crashed: other }
        | Step::RecoveryNotice { observer, recovered: other }
        | Step::Suspect { observer, peer: other }
        | Step::Unsuspect { observer, peer: other } => &[*observer, *other],
        Step::Crash { site } | Step::Recover { site } => &[*site],
        Step::Partition { groups } if groups.len() != n => {
            return Err(format!("partition groups must cover all {n} sites"));
        }
        Step::Partition { groups } => groups,
        Step::Heal => &[],
    };
    match named.iter().find(|&&i| i >= n) {
        Some(i) => Err(format!("index {i} is outside 0..{n}")),
        None => Ok(()),
    }
}

/// Apply one step to a runner. Returns `Err` with the reason when the step
/// is not applicable in the current state (a site index out of range,
/// nothing pending on the channel, site already down, head event mismatch,
/// ...). The runner is unchanged on error.
pub(crate) fn apply_step(runner: &mut Runner<'_>, step: &Step) -> Result<(), String> {
    check_range(step, runner.sites().len())?;
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
        let header = Obj::new()
            .str("schedule", "nbc-check/v1")
            .str("protocol", &self.protocol)
            .num("n", self.n as u64)
            .raw("votes", &array(self.votes.iter().map(|v| v.to_string())))
            .str("rule", &self.rule);
        let mut out = header.build();
        out.push('\n');
        for s in &self.steps {
            out.push_str(&step_json(s));
            out.push('\n');
        }
        out
    }

    /// Parse the JSONL form. Accepts any object-field order; rejects a
    /// field named twice, unknown step kinds, missing fields, a vote plan
    /// that is not one vote per site, and any number that is not a site
    /// index in `0..n`, with a line-numbered error.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let at = |ix: usize| move |e: String| format!("line {}: {e}", ix + 1);
        let (ix, header) = lines.next().ok_or("empty schedule")?;
        let mut sched =
            parse(header).map_err(String::from).and_then(|h| parse_header(&h)).map_err(at(ix))?;
        for (ix, line) in lines {
            let step =
                parse(line).map_err(String::from).and_then(|o| parse_step(&o)).map_err(at(ix))?;
            check_range(&step, sched.n).map_err(at(ix))?;
            sched.steps.push(step);
        }
        Ok(sched)
    }
}

fn step_json(s: &Step) -> String {
    let obj = |kind: &str| Obj::new().str("step", kind);
    let id = |v: usize| v as u64;
    match *s {
        Step::Deliver { src, dst } => obj("deliver").num("src", id(src)).num("dst", id(dst)),
        Step::Drop { src, dst } => obj("drop").num("src", id(src)).num("dst", id(dst)),
        Step::FailNotice { observer, crashed } => {
            obj("fail-notice").num("observer", id(observer)).num("crashed", id(crashed))
        }
        Step::RecoveryNotice { observer, recovered } => {
            obj("recovery-notice").num("observer", id(observer)).num("recovered", id(recovered))
        }
        Step::Suspect { observer, peer } => {
            obj("suspect").num("observer", id(observer)).num("peer", id(peer))
        }
        Step::Unsuspect { observer, peer } => {
            obj("unsuspect").num("observer", id(observer)).num("peer", id(peer))
        }
        Step::Crash { site } => obj("crash").num("site", id(site)),
        Step::Recover { site } => obj("recover").num("site", id(site)),
        Step::Partition { ref groups } => {
            obj("partition").raw("groups", &array(groups.iter().map(|g| g.to_string())))
        }
        Step::Heal => obj("heal"),
    }
    .build()
}

/// A non-negative integer (`as_u64` is what turns `-1`, `1.5` and anything
/// past `u64::MAX` away).
fn as_index(v: &Value) -> Option<usize> {
    v.as_u64().and_then(|i| usize::try_from(i).ok())
}

fn index_field(o: &Value, field: &str) -> Result<usize, String> {
    let v = o.get(field).ok_or(format!("missing {field}"))?;
    as_index(v).ok_or(format!("{field} is not an index"))
}

/// A field holding an array whose every element `item` accepts.
fn array_field<T>(
    o: &Value,
    field: &str,
    item: impl Fn(&Value) -> Option<T>,
) -> Result<Vec<T>, String> {
    let items = match o.get(field) {
        Some(Value::Arr(items)) => items.iter().map(item).collect(),
        _ => None,
    };
    items.ok_or(format!("missing {field}"))
}

fn parse_header(h: &Value) -> Result<Schedule, String> {
    let text = |field: &str| h.get(field).and_then(Value::as_str).map(str::to_string);
    if text("schedule").as_deref() != Some("nbc-check/v1") {
        return Err("not an nbc-check/v1 schedule header".into());
    }
    let votes = array_field(h, "votes", Value::as_bool)?;
    let n = index_field(h, "n")?;
    if votes.len() != n {
        return Err(format!("{} votes for n={n}", votes.len()));
    }
    Ok(Schedule {
        protocol: text("protocol").ok_or("missing protocol")?,
        n,
        votes,
        rule: text("rule").ok_or("missing rule")?,
        steps: Vec::new(),
    })
}

fn parse_step(o: &Value) -> Result<Step, String> {
    let kind = o.get("step").and_then(Value::as_str).ok_or("missing step kind")?;
    let num = |field: &str| index_field(o, field);
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
        "partition" => Ok(Step::Partition { groups: array_field(o, "groups", as_index)? }),
        "heal" => Ok(Step::Heal),
        other => Err(format!("unknown step kind {other:?}")),
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
