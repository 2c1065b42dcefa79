//! The collected, serializable form of a trace: per-processor event
//! tracks plus the drop count. This is the native interchange format —
//! `hoardscope` consumes it, the Chrome exporter converts it, and the
//! golden-trace test byte-compares its JSON.

use crate::event::{Event, EventKind};
use crate::jsonio::{obj, JsonValue};

/// Events recorded by one virtual processor, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackLog {
    /// The virtual processor (`hoard_sim::current_proc()`) that emitted
    /// these events. Machine workers are `0..P`.
    pub proc: usize,
    /// The events, timestamp-ordered (each proc's clock is monotone).
    pub events: Vec<Event>,
}

/// A complete collected trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLog {
    /// Non-empty tracks, sorted by processor id.
    pub tracks: Vec<TrackLog>,
    /// Events lost to full tracks (0 means the trace is complete).
    pub dropped: u64,
}

impl TraceLog {
    /// Total events across all tracks.
    pub fn total_events(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Count of events of `kind` across all tracks.
    pub fn count(&self, kind: EventKind) -> usize {
        self.tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == kind)
            .count()
    }

    /// Iterate `(proc, event)` over every recorded event.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Event)> {
        self.tracks
            .iter()
            .flat_map(|t| t.events.iter().map(move |e| (t.proc, e)))
    }

    /// Serialize to the native JSON form: each event encoded compactly
    /// as `[ts, "kind", arg0, arg1]`. Deterministic: same log, same
    /// bytes (the golden-trace property rides on this).
    pub fn to_json(&self) -> String {
        let tracks = self
            .tracks
            .iter()
            .map(|t| {
                let events = t
                    .events
                    .iter()
                    .map(|e| {
                        JsonValue::Arr(vec![
                            JsonValue::Uint(e.ts),
                            JsonValue::Str(e.kind.label().to_string()),
                            JsonValue::Uint(e.arg0 as u64),
                            JsonValue::Uint(e.arg1),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("proc", JsonValue::Uint(t.proc as u64)),
                    ("events", JsonValue::Arr(events)),
                ])
            })
            .collect();
        obj(vec![
            ("tracks", JsonValue::Arr(tracks)),
            ("dropped", JsonValue::Uint(self.dropped)),
        ])
        .to_json()
    }

    /// Parse a native-form JSON trace (the inverse of
    /// [`to_json`](Self::to_json)).
    ///
    /// # Errors
    ///
    /// Describes the first structural problem found.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(json)?;
        let mut tracks = Vec::new();
        for t in doc
            .get("tracks")
            .and_then(|v| v.as_array())
            .ok_or("missing 'tracks' array")?
        {
            let proc = t
                .get("proc")
                .and_then(|v| v.as_u64())
                .ok_or("track missing 'proc'")? as usize;
            let mut events = Vec::new();
            for e in t
                .get("events")
                .and_then(|v| v.as_array())
                .ok_or("track missing 'events'")?
            {
                let fields = e.as_array().filter(|a| a.len() == 4).ok_or("bad event")?;
                let label = fields[1].as_str().ok_or("bad event kind")?;
                events.push(Event {
                    ts: fields[0].as_u64().ok_or("bad event ts")?,
                    kind: EventKind::from_label(label)
                        .ok_or_else(|| format!("unknown event kind '{label}'"))?,
                    arg0: fields[2].as_u64().ok_or("bad event arg0")? as u32,
                    arg1: fields[3].as_u64().ok_or("bad event arg1")?,
                });
            }
            tracks.push(TrackLog { proc, events });
        }
        let dropped = doc
            .get("dropped")
            .and_then(|v| v.as_u64())
            .ok_or("missing 'dropped'")?;
        Ok(TraceLog { tracks, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceLog {
        TraceLog {
            tracks: vec![
                TrackLog {
                    proc: 0,
                    events: vec![
                        Event {
                            ts: 10,
                            kind: EventKind::Alloc,
                            arg0: 2,
                            arg1: 24,
                        },
                        Event {
                            ts: 20,
                            kind: EventKind::Free,
                            arg0: 2,
                            arg1: 1,
                        },
                    ],
                },
                TrackLog {
                    proc: 1,
                    events: vec![Event {
                        ts: 15,
                        kind: EventKind::Alloc,
                        arg0: 5,
                        arg1: 64,
                    }],
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let log = sample();
        let json = log.to_json();
        let back = TraceLog::from_json(&json).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.to_json(), json, "re-serialization is stable");
    }

    #[test]
    fn counting_and_iteration() {
        let log = sample();
        assert_eq!(log.total_events(), 3);
        assert_eq!(log.count(EventKind::Alloc), 2);
        assert_eq!(log.count(EventKind::Free), 1);
        assert_eq!(log.count(EventKind::LockAcquire), 0);
        let procs: Vec<usize> = log.iter().map(|(p, _)| p).collect();
        assert_eq!(procs, [0, 0, 1]);
    }
}
