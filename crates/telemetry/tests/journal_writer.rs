//! The direct-write journal exporter against a `format!`-based reference
//! renderer, byte for byte, over arbitrary events; plus the hub's metric
//! registries and its lock-free time-stamp skip.

use avfs_sim::time::SimTime;
use avfs_telemetry::{json, Observer, Telemetry, TelemetryHub, TraceEvent, TraceKind, Value};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// The line renderer every journal was written with before the direct
/// writer: `write!` for the fixed keys and every scalar.
fn reference_line(event: &TraceEvent, tag: Option<(&'static str, u64)>) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"seq\":{},\"t_ns\":{},\"kind\":\"{}\"",
        event.seq,
        event.at.as_nanos(),
        event.kind.as_str()
    );
    if let Some((name, value)) = tag {
        let _ = write!(out, ",\"{name}\":{value}");
    }
    for (name, value) in &event.fields {
        out.push(',');
        json::escape_into(&mut out, name);
        out.push(':');
        match value {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::F64(_) => out.push_str("null"),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => json::escape_into(&mut out, s),
            Value::Text(s) => json::escape_into(&mut out, s),
        }
    }
    out.push('}');
    out
}

/// Names and labels, plain and needing every kind of escape.
const NAMES: [&str; 8] = [
    "mv",
    "power_w",
    "",
    "q\"uote",
    "back\\slash",
    "ctl\u{1}\u{1f}\n\t\r",
    "del\u{7f}é",
    "astral\u{1F600}",
];

const KINDS: [TraceKind; 4] = [
    TraceKind::Init,
    TraceKind::Replan,
    TraceKind::MailboxFault,
    TraceKind::FleetRoute,
];

/// Floats `Display` and the `null` rule must both get right.
const FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    5e-324,
    -2.2e-308,
    f64::MAX,
    f64::MIN,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    12.5,
    1e21,
];

/// Maps a draw onto a char: control characters, quotes and backslashes,
/// printable ASCII, or scalars outside the Basic Multilingual Plane.
fn pick_char((class, raw): (u8, u32)) -> char {
    let code = match class {
        0 => raw % 0x20,
        1 => [0x22, 0x5c, 0x7f, 0x2028][raw as usize % 4],
        2 => 0x20 + raw % 0x60,
        3 => 0x1_0000 + raw % 0x10_0000,
        _ => raw % 0x11_0000,
    };
    char::from_u32(code).unwrap_or('\u{fffd}')
}

type FieldDraw = (u8, u64, Vec<(u8, u32)>);

/// One field per draw, covering every `Value` variant and its extremes.
fn pick_field((class, raw, text): FieldDraw) -> (&'static str, Value) {
    let name = NAMES[raw as usize % NAMES.len()];
    let value = match class % 10 {
        0 => Value::U64(raw),
        1 => Value::U64([0, 9, 10, u64::MAX][raw as usize % 4]),
        2 => Value::I64(raw as i64),
        3 => Value::I64([i64::MIN, i64::MAX, -1, 0][raw as usize % 4]),
        4 => Value::F64(f64::from_bits(raw)),
        5 => Value::F64(FLOATS[raw as usize % FLOATS.len()]),
        6 => Value::F64(raw as f64 / 1e6),
        7 => Value::Bool(raw % 2 == 1),
        8 => Value::Str(NAMES[(raw >> 8) as usize % NAMES.len()]),
        _ => Value::Text(text.into_iter().map(pick_char).collect()),
    };
    (name, value)
}

fn event(seq: u64, t_ns: u64, kind: u8, fields: Vec<FieldDraw>) -> TraceEvent {
    TraceEvent {
        seq,
        at: SimTime::from_nanos(t_ns),
        kind: KINDS[kind as usize % KINDS.len()],
        fields: fields.into_iter().map(pick_field).collect(),
    }
}

proptest! {
    #[test]
    fn direct_writer_matches_the_reference_renderer(
        seq in any::<u64>(),
        t_ns in any::<u64>(),
        kind in 0u8..4,
        tag_value in any::<u64>(),
        fields in collection::vec(
            (0u8..10, any::<u64>(), collection::vec((0u8..5, any::<u32>()), 0..12)),
            0..10,
        ),
    ) {
        let event = event(seq, t_ns, kind, fields);
        for tag in [None, Some(("node", tag_value))] {
            let mut direct = String::from("prefix kept|");
            event.write_json_line(&mut direct, tag);
            prop_assert_eq!(direct, format!("prefix kept|{}", reference_line(&event, tag)));
            prop_assert_eq!(event.to_json_line_tagged(tag), reference_line(&event, tag));
        }
        prop_assert_eq!(event.to_json_line(), reference_line(&event, None));
    }

    #[test]
    fn hub_exports_equal_the_reference_lines(
        fields in collection::vec(
            (0u8..10, any::<u64>(), collection::vec((0u8..5, any::<u32>()), 0..6)),
            0..24,
        ),
        node in any::<u64>(),
    ) {
        let mut hub = TelemetryHub::with_capacity(16);
        for (i, draw) in fields.into_iter().enumerate() {
            hub.advance_to(SimTime::from_nanos(i as u64 * 1_000));
            let (name, value) = pick_field(draw);
            hub.record(KINDS[i % KINDS.len()], vec![(name, value)]);
        }
        let events: Vec<&TraceEvent> = hub.journal().collect();
        let untagged: String = events.iter().map(|e| reference_line(e, None) + "\n").collect();
        let tagged: String = events
            .iter()
            .map(|e| reference_line(e, Some(("node", node))) + "\n")
            .collect();
        prop_assert_eq!(hub.export_jsonl(), untagged.clone());
        prop_assert_eq!(hub.export_jsonl_tagged("node", node), tagged.clone());
        let mut both = String::new();
        hub.write_jsonl(&mut both, None);
        hub.write_jsonl(&mut both, Some(("node", node)));
        prop_assert_eq!(both, untagged + &tagged);
    }
}

#[test]
fn equal_names_at_different_addresses_share_one_slot() {
    let leaked: &'static str = Box::leak(String::from("shared.name").into_boxed_str());
    assert!(!std::ptr::eq(leaked, "shared.name"));
    let t = Telemetry::hub();
    t.counter_add("shared.name", 2);
    t.counter_add(leaked, 3);
    t.histogram_observe("shared.name", 5);
    t.histogram_observe(leaked, 500);
    let snap = t.snapshot().expect("hub");
    assert_eq!(snap.counters.len(), 1);
    assert_eq!(snap.counter("shared.name"), 5);
    assert_eq!(snap.histograms.len(), 1);
    let h = snap.histogram("shared.name").expect("observed");
    assert_eq!((h.count, h.sum, h.max), (2, 505, 500));
}

#[test]
fn snapshot_is_sorted_whatever_the_insertion_order() {
    let names = ["m", "b", "z", "a", "q"];
    let t = Telemetry::hub();
    for (i, name) in names.iter().enumerate() {
        t.counter_add(name, i as u64 + 1);
        t.gauge_set(name, -(i as i64));
        t.histogram_observe(name, i as u64);
    }
    let snap = t.snapshot().expect("hub");
    let mut sorted = names.to_vec();
    sorted.sort_unstable();
    assert_eq!(snap.counters.keys().copied().collect::<Vec<_>>(), sorted);
    assert_eq!(snap.gauges.keys().copied().collect::<Vec<_>>(), sorted);
    assert_eq!(snap.histograms.keys().copied().collect::<Vec<_>>(), sorted);
    assert_eq!(snap.counter("z"), 3);
    assert_eq!(snap.gauge("a"), Some(-3));
}

/// Advances and records on two clones of one hub handle, out of order.
fn clones_out_of_order(steps: &[(bool, u64)]) -> Telemetry {
    let parent = Telemetry::hub();
    let (left, right) = (parent.clone(), parent.clone());
    for &(on_left, t_ns) in steps {
        let handle = if on_left { &left } else { &right };
        handle.advance_to(SimTime::from_nanos(t_ns));
        handle.trace(TraceKind::Replan, move || vec![("t", Value::U64(t_ns))]);
    }
    parent
}

#[test]
fn clones_advancing_out_of_order_stamp_like_the_parent() {
    let steps = [
        (true, 0),
        (false, 500),
        (true, 300),
        (true, 500),
        (false, 200),
        (false, 900),
        (true, 900),
        (true, 100),
    ];
    let parent = clones_out_of_order(&steps);
    // The same calls straight on a hub, which takes every advance_to.
    let mut direct = TelemetryHub::new();
    for &(_, t_ns) in &steps {
        direct.advance_to(SimTime::from_nanos(t_ns));
        direct.record(TraceKind::Replan, vec![("t", Value::U64(t_ns))]);
    }
    let stamps: Vec<u64> = parent
        .with_hub(|h| h.journal().map(|e| e.at.as_nanos()).collect())
        .expect("hub");
    assert_eq!(stamps, vec![0, 500, 500, 500, 500, 900, 900, 900]);
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(parent.export_jsonl(), Some(direct.export_jsonl()));
    assert_eq!(parent.with_hub(TelemetryHub::now), Some(direct.now()));
}

#[test]
fn a_custom_observer_receives_every_advance_to() {
    struct Stamps(Arc<Mutex<Vec<u64>>>);
    impl Observer for Stamps {
        fn advance_to(&mut self, at: SimTime) {
            self.0
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(at.as_nanos());
        }
        fn counter_add(&mut self, _: &'static str, _: u64) {}
        fn gauge_set(&mut self, _: &'static str, _: i64) {}
        fn histogram_observe(&mut self, _: &'static str, _: u64) {}
        fn record(&mut self, _: TraceKind, _: Vec<(&'static str, Value)>) {}
    }
    let seen = Arc::new(Mutex::new(Vec::new()));
    let t = Telemetry::custom(Box::new(Stamps(Arc::clone(&seen))));
    let u = t.clone();
    let calls = [0, 7, 7, 3, 7, 12, 0];
    for (i, &ns) in calls.iter().enumerate() {
        let handle = if i % 2 == 0 { &t } else { &u };
        handle.advance_to(SimTime::from_nanos(ns));
    }
    assert_eq!(*seen.lock().unwrap_or_else(|p| p.into_inner()), calls);
}
