//! Provenance records: the unit of storage.
//!
//! Every reduction step of the provenance-tracking semantics produces one
//! record per exchanged value.  A record captures who acted, on which
//! channel, which plain value was exchanged, and the full provenance
//! annotation the value carried *after* the step — i.e. exactly the
//! information a provenance-aware storage system (in the spirit of PASS,
//! the paper's citation \[20\]) must retain to answer audit queries later.

use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Direction, Provenance};
use piprov_core::reduction::{StepEvent, StepKind};
use piprov_core::value::Value;
use std::fmt;

/// Monotonically increasing identifier assigned by the store when a record
/// is appended.
pub type SequenceNumber = u64;

/// The operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// A value was sent.
    Send,
    /// A value was received.
    Receive,
    /// An equality test succeeded.
    IfTrue,
    /// An equality test failed.
    IfFalse,
}

impl Operation {
    /// Stable one-byte tag used by the binary codec.
    pub fn tag(self) -> u8 {
        match self {
            Operation::Send => 0,
            Operation::Receive => 1,
            Operation::IfTrue => 2,
            Operation::IfFalse => 3,
        }
    }

    /// Inverse of [`Operation::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Operation::Send),
            1 => Some(Operation::Receive),
            2 => Some(Operation::IfTrue),
            3 => Some(Operation::IfFalse),
            _ => None,
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Send => write!(f, "snd"),
            Operation::Receive => write!(f, "rcv"),
            Operation::IfTrue => write!(f, "ift"),
            Operation::IfFalse => write!(f, "iff"),
        }
    }
}

/// A single provenance record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// Sequence number assigned by the store (0 until appended).
    pub sequence: SequenceNumber,
    /// Logical time of the step that produced the record (steps of one run
    /// share a monotone clock).
    pub logical_time: u64,
    /// The principal that acted.
    pub principal: Principal,
    /// The operation performed.
    pub operation: Operation,
    /// The channel involved (for `IfTrue`/`IfFalse` this stores the
    /// left-hand value's textual form).
    pub channel: Channel,
    /// The plain value exchanged (or compared).
    pub value: Value,
    /// The provenance annotation carried by the value after the step.
    pub provenance: Provenance,
}

impl ProvenanceRecord {
    /// Creates a record with no sequence number assigned yet.
    pub fn new(
        logical_time: u64,
        principal: impl Into<Principal>,
        operation: Operation,
        channel: impl Into<Channel>,
        value: Value,
        provenance: Provenance,
    ) -> Self {
        ProvenanceRecord {
            sequence: 0,
            logical_time,
            principal: principal.into(),
            operation,
            channel: channel.into(),
            value,
            provenance,
        }
    }

    /// Builds the records corresponding to one reduction step.
    ///
    /// Send and receive steps yield one record per payload value; `if`
    /// steps yield a single record whose channel field holds the left-hand
    /// value's name.
    pub fn from_step(
        event: &StepEvent,
        logical_time: u64,
        provenances: &[Provenance],
    ) -> Vec<Self> {
        match &event.kind {
            StepKind::Send { channel, payload }
            | StepKind::Receive {
                channel, payload, ..
            } => {
                let operation = if matches!(event.kind, StepKind::Send { .. }) {
                    Operation::Send
                } else {
                    Operation::Receive
                };
                payload
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        ProvenanceRecord::new(
                            logical_time,
                            event.principal.clone(),
                            operation,
                            channel.clone(),
                            v.clone(),
                            provenances.get(i).cloned().unwrap_or_default(),
                        )
                    })
                    .collect()
            }
            StepKind::IfTrue { lhs, rhs } => vec![ProvenanceRecord::new(
                logical_time,
                event.principal.clone(),
                Operation::IfTrue,
                Channel::new(lhs.as_str()),
                rhs.clone(),
                provenances.first().cloned().unwrap_or_default(),
            )],
            StepKind::IfFalse { lhs, rhs } => vec![ProvenanceRecord::new(
                logical_time,
                event.principal.clone(),
                Operation::IfFalse,
                Channel::new(lhs.as_str()),
                rhs.clone(),
                provenances.first().cloned().unwrap_or_default(),
            )],
        }
    }

    /// All principals mentioned by the record: the actor plus everyone in
    /// the value's provenance.
    pub fn principals_involved(&self) -> Vec<Principal> {
        let mut out = vec![self.principal.clone()];
        for p in self.provenance.principals_involved() {
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }

    /// Size estimate of the record in bytes (used by segment rotation and
    /// as the encoder's buffer capacity hint).
    ///
    /// Scales with the number of *distinct* provenance DAG nodes, matching
    /// the DAG codec: an estimate based on `total_size` would grow with the
    /// logical tree, which is exponentially larger under channel-chained
    /// histories.
    pub fn estimated_size(&self) -> usize {
        64 + self.channel.as_str().len()
            + self.value.as_str().len()
            + self.principal.as_str().len()
            + self.provenance.dag_size() * 24
    }
}

impl fmt::Display for ProvenanceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} t={} {}.{}({}, {}) :: {}",
            self.sequence,
            self.logical_time,
            self.principal,
            self.operation,
            self.channel,
            self.value,
            self.provenance
        )
    }
}

/// The deepest channel-provenance nesting ([`Provenance::depth`]) a record
/// may carry.  Decoding, indexing and querying a history recurse once per
/// nesting level, so the decoders refuse anything deeper (a hostile frame
/// could otherwise overflow a server thread's stack) and
/// [`ProvenanceStore::append`](crate::ProvenanceStore::append) refuses to
/// write what they would refuse to read.  Histories the calculus produces
/// nest a handful of levels.
pub const MAX_PROVENANCE_DEPTH: usize = 256;

/// Helper: a direction's stable tag for the codec.
pub fn direction_tag(direction: Direction) -> u8 {
    match direction {
        Direction::Output => 0,
        Direction::Input => 1,
    }
}

/// Inverse of [`direction_tag`].
pub fn direction_from_tag(tag: u8) -> Option<Direction> {
    match tag {
        0 => Some(Direction::Output),
        1 => Some(Direction::Input),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_core::name::Principal;
    use piprov_core::provenance::Event;

    fn sample_provenance() -> Provenance {
        let km = Provenance::single(Event::output(Principal::new("c"), Provenance::empty()));
        Provenance::empty()
            .prepend(Event::output(Principal::new("a"), km.clone()))
            .prepend(Event::input(Principal::new("b"), km))
    }

    #[test]
    fn operation_tags_round_trip() {
        for op in [
            Operation::Send,
            Operation::Receive,
            Operation::IfTrue,
            Operation::IfFalse,
        ] {
            assert_eq!(Operation::from_tag(op.tag()), Some(op));
        }
        assert_eq!(Operation::from_tag(99), None);
    }

    #[test]
    fn direction_tags_round_trip() {
        assert_eq!(
            direction_from_tag(direction_tag(Direction::Output)),
            Some(Direction::Output)
        );
        assert_eq!(
            direction_from_tag(direction_tag(Direction::Input)),
            Some(Direction::Input)
        );
        assert_eq!(direction_from_tag(7), None);
    }

    #[test]
    fn records_from_send_step() {
        use piprov_core::name::Channel;
        let event = StepEvent {
            principal: Principal::new("a"),
            kind: StepKind::Send {
                channel: Channel::new("m"),
                payload: vec![Value::Channel(Channel::new("v"))],
            },
        };
        let records = ProvenanceRecord::from_step(&event, 7, &[sample_provenance()]);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.logical_time, 7);
        assert_eq!(r.operation, Operation::Send);
        assert_eq!(r.channel, Channel::new("m"));
        assert_eq!(r.provenance, sample_provenance());
        assert!(r.principals_involved().contains(&Principal::new("a")));
        assert!(r.principals_involved().contains(&Principal::new("c")));
        assert!(r.estimated_size() > 64);
        assert!(r.to_string().contains("a.snd(m, v)"));
    }

    #[test]
    fn records_from_if_step() {
        use piprov_core::name::Channel;
        let event = StepEvent {
            principal: Principal::new("a"),
            kind: StepKind::IfFalse {
                lhs: Value::Channel(Channel::new("u")),
                rhs: Value::Channel(Channel::new("v")),
            },
        };
        let records = ProvenanceRecord::from_step(&event, 1, &[]);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].operation, Operation::IfFalse);
        assert_eq!(records[0].channel, Channel::new("u"));
    }
}
