//! Chrome trace-event exporter.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) that
//! `chrome://tracing` and Perfetto load directly. One simulated cycle
//! maps to one microsecond of trace time.
//!
//! Track layout (all under pid 0):
//! - tid 0 "transitions": `menter`/`mexit` as begin/end duration pairs,
//!   so nested mroutines render as a flame graph.
//! - tid 1 "pipeline": stalls as durations (length also in
//!   `args.cycles`); retirements, decode replacements, flushes, traps,
//!   interrupts, fault/machine-check/recovery events and markers as
//!   instants.
//! - tid 2 "memory": cache, TLB, hardware-refill, MRAM-data and MMIO
//!   instants.
//!
//! Events are written in stream order, which is cycle order, so the
//! `ts` sequence is monotonically non-decreasing — a property the test
//! suite asserts after parsing the export back.

use crate::event::{Event, EventKind};
use metal_util::json::{write_num, write_str};

const TID_TRANSITIONS: u32 = 0;
const TID_PIPELINE: u32 = 1;
const TID_MEMORY: u32 = 2;

/// Serializes `events` (oldest first) into a Chrome trace-event JSON
/// document. `dropped` is recorded in `otherData` so a truncated ring
/// is visible in the viewer.
#[must_use]
pub fn export(events: &[Event], dropped: u64) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut wrote_any = false;
    // Entries currently open on the transition track; a `mexit` with no
    // matching `menter` (its begin fell off the ring) is skipped so the
    // begin/end pairs always balance.
    let mut open_entries: Vec<u8> = Vec::new();
    let mut last_cycle = 0u64;

    for event in events {
        last_cycle = event.cycle;
        match event.kind {
            EventKind::MEnter { entry, cause, pc } => {
                open_entries.push(entry);
                write_event(
                    &mut out,
                    &mut wrote_any,
                    &EventJson {
                        name: &format!("mroutine[{entry}]"),
                        cat: "transition",
                        ph: "B",
                        ts: event.cycle,
                        tid: TID_TRANSITIONS,
                        dur: None,
                        args: &[
                            ("entry", Arg::Num(u64::from(entry))),
                            ("cause", Arg::Str(cause.label())),
                            ("pc", Arg::Hex(pc)),
                        ],
                    },
                );
            }
            EventKind::MExit { entry, target } => {
                let Some(open_at) = open_entries.iter().rposition(|&e| e == entry) else {
                    continue;
                };
                // Close anything the ring left dangling above the match.
                while open_entries.len() > open_at {
                    open_entries.pop();
                    write_event(
                        &mut out,
                        &mut wrote_any,
                        &EventJson {
                            name: "",
                            cat: "transition",
                            ph: "E",
                            ts: event.cycle,
                            tid: TID_TRANSITIONS,
                            dur: None,
                            args: &[("target", Arg::Hex(target))],
                        },
                    );
                }
            }
            EventKind::Stall { cycles, .. } => {
                write_event(
                    &mut out,
                    &mut wrote_any,
                    &EventJson {
                        name: event.kind.name(),
                        cat: "pipeline",
                        ph: "X",
                        ts: event.cycle,
                        tid: TID_PIPELINE,
                        dur: Some(u64::from(cycles)),
                        args: &[("cycles", Arg::Num(u64::from(cycles)))],
                    },
                );
            }
            EventKind::Flush { target } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_PIPELINE,
                    &[("target", Arg::Hex(target))],
                );
            }
            EventKind::Trap { code, tval, pc } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_PIPELINE,
                    &[
                        ("code", Arg::Num(u64::from(code))),
                        ("tval", Arg::Hex(tval)),
                        ("pc", Arg::Hex(pc)),
                    ],
                );
            }
            EventKind::TrapDelegated { entry, layer, code } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_PIPELINE,
                    &[
                        ("entry", Arg::Num(u64::from(entry))),
                        ("layer", Arg::Num(u64::from(layer))),
                        ("code", Arg::Num(u64::from(code))),
                    ],
                );
            }
            EventKind::InterruptInjected { line } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_PIPELINE,
                    &[("line", Arg::Num(u64::from(line)))],
                );
            }
            EventKind::Retire { pc } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_PIPELINE,
                    &[("pc", Arg::Hex(pc))],
                );
            }
            EventKind::DecodeReplace { pc, target } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_PIPELINE,
                    &[("pc", Arg::Hex(pc)), ("target", Arg::Hex(target))],
                );
            }
            EventKind::MramData { addr, write } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_MEMORY,
                    &[("addr", Arg::Hex(addr)), ("write", Arg::Bool(write))],
                );
            }
            EventKind::CacheAccess { addr, hit, .. } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_MEMORY,
                    &[("addr", Arg::Hex(addr)), ("hit", Arg::Bool(hit))],
                );
            }
            EventKind::TlbLookup { va, outcome } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_MEMORY,
                    &[
                        ("va", Arg::Hex(va)),
                        (
                            "outcome",
                            Arg::Str(match outcome {
                                crate::event::TlbOutcome::Hit => "hit",
                                crate::event::TlbOutcome::Miss => "miss",
                                crate::event::TlbOutcome::Protection => "protection",
                                crate::event::TlbOutcome::KeyViolation => "key_violation",
                            }),
                        ),
                    ],
                );
            }
            EventKind::HwRefill { va } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_MEMORY,
                    &[("va", Arg::Hex(va))],
                );
            }
            EventKind::MmioAccess { addr, write } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_MEMORY,
                    &[("addr", Arg::Hex(addr)), ("write", Arg::Bool(write))],
                );
            }
            EventKind::FaultInjected { site, addr, bit } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_PIPELINE,
                    &[
                        ("site", Arg::Str(site.label())),
                        ("addr", Arg::Hex(addr)),
                        ("bit", Arg::Num(u64::from(bit))),
                    ],
                );
            }
            EventKind::MachineCheck {
                site,
                syndrome,
                addr,
            } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_PIPELINE,
                    &[
                        ("site", Arg::Str(site.label())),
                        ("syndrome", Arg::Num(u64::from(syndrome))),
                        ("addr", Arg::Hex(addr)),
                    ],
                );
            }
            EventKind::Recovery { .. } => {
                write_instant(&mut out, &mut wrote_any, event, TID_PIPELINE, &[]);
            }
            EventKind::Marker { value, .. } => {
                write_instant(
                    &mut out,
                    &mut wrote_any,
                    event,
                    TID_PIPELINE,
                    &[("value", Arg::Num(value))],
                );
            }
        }
    }

    // Close transitions still open at the end of the run so every "B"
    // has an "E" and the flame graph renders.
    while open_entries.pop().is_some() {
        write_event(
            &mut out,
            &mut wrote_any,
            &EventJson {
                name: "",
                cat: "transition",
                ph: "E",
                ts: last_cycle,
                tid: TID_TRANSITIONS,
                dur: None,
                args: &[],
            },
        );
    }

    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"cycles\",\"dropped\":");
    write_num(&mut out, dropped as f64);
    out.push_str("}}");
    out
}

enum Arg<'a> {
    Num(u64),
    Hex(u32),
    Str(&'a str),
    Bool(bool),
}

struct EventJson<'a> {
    name: &'a str,
    cat: &'a str,
    ph: &'a str,
    ts: u64,
    tid: u32,
    dur: Option<u64>,
    args: &'a [(&'a str, Arg<'a>)],
}

fn write_instant(
    out: &mut String,
    wrote_any: &mut bool,
    event: &Event,
    tid: u32,
    args: &[(&str, Arg<'_>)],
) {
    write_event(
        out,
        wrote_any,
        &EventJson {
            name: event.kind.name(),
            cat: "sim",
            ph: "i",
            ts: event.cycle,
            tid,
            dur: None,
            args,
        },
    );
}

fn write_event(out: &mut String, wrote_any: &mut bool, ev: &EventJson<'_>) {
    if *wrote_any {
        out.push(',');
    }
    *wrote_any = true;
    out.push_str("{\"name\":");
    write_str(out, ev.name);
    out.push_str(",\"cat\":");
    write_str(out, ev.cat);
    out.push_str(",\"ph\":\"");
    out.push_str(ev.ph);
    out.push_str("\",\"ts\":");
    write_num(out, ev.ts as f64);
    if let Some(dur) = ev.dur {
        out.push_str(",\"dur\":");
        write_num(out, dur as f64);
    }
    out.push_str(",\"pid\":0,\"tid\":");
    write_num(out, f64::from(ev.tid));
    if ev.ph == "i" {
        // Instant scope: thread.
        out.push_str(",\"s\":\"t\"");
    }
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (key, value)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, key);
            out.push(':');
            match value {
                Arg::Num(n) => write_num(out, *n as f64),
                Arg::Hex(h) => write_str(out, &format!("{h:#010x}")),
                Arg::Str(s) => write_str(out, s),
                Arg::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, StallKind, TransitionCause};
    use metal_util::Json;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                cycle: 5,
                kind: EventKind::MEnter {
                    entry: 2,
                    cause: TransitionCause::Call,
                    pc: 0xFFF0_0000,
                },
            },
            Event {
                cycle: 8,
                kind: EventKind::Stall {
                    kind: StallKind::Fetch,
                    cycles: 3,
                },
            },
            Event {
                cycle: 20,
                kind: EventKind::MExit {
                    entry: 2,
                    target: 0x100,
                },
            },
            Event {
                cycle: 22,
                kind: EventKind::Trap {
                    code: 8,
                    tval: 0,
                    pc: 0x104,
                },
            },
        ]
    }

    #[test]
    fn export_parses_and_is_monotonic() {
        let text = export(&sample_events(), 7);
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert!(!events.is_empty());
        let mut last = f64::MIN;
        for ev in events {
            let ts = ev.get("ts").and_then(Json::as_f64).unwrap();
            assert!(ts >= last, "timestamps went backwards: {ts} < {last}");
            last = ts;
        }
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("dropped"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn begin_end_pairs_balance() {
        let text = export(&sample_events(), 0);
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let begins = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
            .count();
        let ends = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("E"))
            .count();
        assert_eq!(begins, 1);
        assert_eq!(begins, ends);
    }

    #[test]
    fn unmatched_exit_is_skipped() {
        let events = [Event {
            cycle: 3,
            kind: EventKind::MExit {
                entry: 9,
                target: 0,
            },
        }];
        let text = export(&events, 0);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn dangling_begin_is_closed() {
        let events = [Event {
            cycle: 1,
            kind: EventKind::MEnter {
                entry: 0,
                cause: TransitionCause::Exception,
                pc: 0,
            },
        }];
        let text = export(&events, 0);
        let doc = Json::parse(&text).unwrap();
        let evs = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].get("ph").and_then(Json::as_str), Some("E"));
    }
}
