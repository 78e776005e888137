//! Spans recorded from the benchmark's side of each layer boundary, and
//! the per-layer numbers derived from them.
//!
//! Per transaction a root span `tx` (id = its `GlobalTxId`) with three
//! children that tile it: `core.submit` (`Client::submit` call → return),
//! `ordering.order_wait` (return → the block carrying it first seen on
//! `OrderingService::subscribe()`), `node.commit_span` (block seen → the
//! commit notification). Per block a span `block` from first sighting to
//! its last notification. Layer probes add one span per call batch.
//! Spans inside the program are a later change (ROADMAP item 2) and
//! should reuse these names.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use crate::load::PhaseOutcome;
use crate::run::{Measured, PhaseId, Report};
use crate::stats::{median, percentile};
use crate::workload::BLOCK_SIZE;

/// One span. Times are seconds since the run epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name.
    pub name: &'static str,
    /// Request identifier shared by the spans of one transaction (the
    /// hex `GlobalTxId`), the block number for `block` spans, or the
    /// probe name.
    pub id: String,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Start.
    pub start_s: f64,
    /// End.
    pub end_s: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }
}

/// Build the `tx` and `block` spans of a traced phase from the client's
/// timestamps and the block sightings `(number, seen, txs)`.
pub fn tx_spans(phase: &PhaseOutcome, blocks: &[(u64, f64, usize)]) -> Vec<Span> {
    let seen: HashMap<u64, f64> = blocks.iter().map(|(n, at, _)| (*n, *at)).collect();
    let mut spans = Vec::with_capacity(phase.traces.len() * 4);
    let mut last_note: HashMap<u64, f64> = HashMap::new();
    for t in &phase.traces {
        // A sighting outside [ack, done] means the watcher thread was
        // scheduled late (or the block was cut before the ack returned);
        // clamping keeps the children inside the root and lets
        // `unaccounted_share` show how often that happened.
        let Some(block_seen) = seen.get(&t.block) else {
            continue;
        };
        let root = spans.len();
        let id = t.id.to_hex();
        spans.push(Span {
            name: "tx",
            id: id.clone(),
            parent: None,
            start_s: t.call_s,
            end_s: t.done_s,
        });
        spans.push(Span {
            name: "core.submit",
            id: id.clone(),
            parent: Some(root),
            start_s: t.call_s,
            end_s: t.ack_s,
        });
        spans.push(Span {
            name: "ordering.order_wait",
            id: id.clone(),
            parent: Some(root),
            start_s: t.ack_s,
            end_s: *block_seen,
        });
        spans.push(Span {
            name: "node.commit_span",
            id,
            parent: Some(root),
            start_s: *block_seen,
            end_s: t.done_s,
        });
        let e = last_note.entry(t.block).or_insert(t.done_s);
        *e = e.max(t.done_s);
    }
    let mut numbers: Vec<&u64> = last_note.keys().collect();
    numbers.sort();
    for n in numbers {
        spans.push(Span {
            name: "block",
            id: n.to_string(),
            parent: None,
            start_s: seen[n],
            end_s: last_note[n],
        });
    }
    spans
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children clipped to the parent, overlaps
/// among children counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_s.max(spans[p].start_s);
            let hi = s.end_s.min(spans[p].end_s);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut edge = f64::NEG_INFINITY;
            for (lo, hi) in kids.iter() {
                let lo = lo.max(edge);
                if *hi > lo {
                    covered += hi - lo;
                    edge = *hi;
                }
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// `Σ |root − Σ children| / Σ root` over the `tx` roots: the share of
/// client-observed time the three child spans fail to account for (or
/// account for twice).
pub fn unaccounted_share(spans: &[Span]) -> f64 {
    let mut child_sum = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.duration();
        }
    }
    let (mut gap, mut total) = (0.0, 0.0);
    for (i, s) in spans.iter().enumerate() {
        if s.name == "tx" {
            gap += (s.duration() - child_sum[i]).abs();
            total += s.duration();
        }
    }
    if total > 0.0 {
        gap / total
    } else {
        0.0
    }
}

/// Write the spans as one JSON document.
pub fn write_spans(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"time_unit\": \"s\", \"spans\": ["
    )?;
    for (i, (s, self_s)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"i\": {i}, \"name\": \"{}\", \"id\": \"{}\", \"parent\": {parent}, \
             \"start\": {:.6}, \"end\": {:.6}, \"self\": {:.6}}}{comma}",
            s.name, s.id, s.start_s, s.end_s, self_s
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

fn pct_or_zero(v: &[f64], pct: f64) -> f64 {
    percentile(v, pct).unwrap_or(0.0)
}

/// The boundary observations of a traced run: everything seen from
/// outside the program while the phases ran.
pub fn boundary_metrics(report: &mut Report, measured: &Measured) {
    let (pre_high, high) = (&measured.pre_high, &measured.high_window);
    let blocks = &measured.blocks;
    let seen: HashMap<u64, f64> = blocks.iter().map(|(n, at, _)| (*n, *at)).collect();
    let ms = |a: f64, b: f64| ((b - a) * 1000.0).max(0.0);

    // Ordering: submit ack → block sighting, at the low rate where the
    // block-cut wait dominates.
    if let Some(p) = measured.phase(PhaseId::LowTraced) {
        let waits: Vec<f64> = p
            .traces
            .iter()
            .filter_map(|t| seen.get(&t.block).map(|s| ms(t.ack_s, *s)))
            .collect();
        report.set("ordering.order_wait_p50_ms", pct_or_zero(&waits, 50.0));
        report.set("ordering.order_wait_p95_ms", pct_or_zero(&waits, 95.0));
    }
    // Node: block sighting → notification, at the high rate where the
    // commit path queues.
    if let Some(p) = measured.phase(PhaseId::High) {
        let spans: Vec<f64> = p
            .traces
            .iter()
            .filter_map(|t| seen.get(&t.block).map(|s| ms(*s, t.done_s)))
            .collect();
        report.set("node.commit_span_p50_ms", pct_or_zero(&spans, 50.0));
        report.set("node.commit_span_p95_ms", pct_or_zero(&spans, 95.0));
        let submit_us: Vec<f64> = p
            .traces
            .iter()
            .map(|t| (t.ack_s - t.call_s) * 1e6)
            .collect();
        report.set("core.submit_ack_us", median(&submit_us).unwrap_or(0.0));
        let in_phase: Vec<&(u64, f64, usize)> = blocks
            .iter()
            .filter(|(_, at, _)| *at >= p.start_s && *at <= p.end_s)
            .collect();
        let n = in_phase.len().max(1) as f64;
        let txs: usize = in_phase.iter().map(|b| b.2).sum();
        report.set("ordering.txs_per_block", txs as f64 / n);
        report.set(
            "ordering.timeout_cut_share",
            in_phase.iter().filter(|b| b.2 < BLOCK_SIZE).count() as f64 / n,
        );
        report.set(
            "ordering.blocks_per_s",
            in_phase.len() as f64 / (p.end_s - p.start_s).max(1e-9),
        );
        let commits = p.results.iter().filter(|r| r.ok && !r.read).count().max(1) as f64;
        let reads = p.results.iter().filter(|r| r.read).count().max(1) as f64;
        report.set(
            "txn.abort_share",
            p.aborts as f64 / p.attempts.max(1) as f64,
        );
        report.set(
            "txn.retries_per_commit",
            p.results.iter().map(|r| f64::from(r.retries)).sum::<f64>() / commits,
        );
        report.set(
            "storage.pages_read_per_query",
            high.pages_read.saturating_sub(pre_high.pages_read) as f64 / reads,
        );
        report.set(
            "storage.pages_written_per_tx",
            high.pages_written.saturating_sub(pre_high.pages_written) as f64 / commits,
        );
        report.set(
            "storage.pages_evicted",
            high.pages_evicted.saturating_sub(pre_high.pages_evicted) as f64,
        );
        report.set("gen.late_p99_ms", pct_or_zero(&p.late_ms, 99.0));
        report.set(
            "gen.late_max_ms",
            p.late_ms.iter().copied().fold(0.0, f64::max),
        );
    }
    report.set("storage.pool_hit_rate", high.pool_hit_rate);

    // The paper's Table 4/5 vocabulary, node 0, over the `high` phase.
    report.set("node.bpt_ms", high.bpt_ms);
    report.set("node.bet_ms", high.bet_ms);
    report.set("node.bct_ms", high.bct_ms);
    report.set("node.tet_ms", high.tet_ms);
    report.set("node.commit_stage_ms", high.commit_stage_ms);
    report.set("node.apply_stage_ms", high.apply_stage_ms);
    report.set("node.post_stage_ms", high.post_stage_ms);
    report.set("node.su", high.su);
    report.set("node.mt_per_s", high.mt_per_s);
    report.set("ordering.view_changes", measured.view_changes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name,
            id: "x".into(),
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("tx", None, 0.0, 10.0),
            span("a", Some(0), 0.0, 2.0),
            span("b", Some(0), 2.0, 5.0),
            // Overlaps `b` by one second and sticks out of the root.
            span("c", Some(0), 4.0, 12.0),
            span("leaf", Some(2), 2.5, 3.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 0.0, "children cover the whole root");
        assert_eq!(selfs[1], 2.0);
        assert_eq!(selfs[2], 2.5, "3 s minus the 0.5 s leaf");
        assert_eq!(selfs[3], 8.0);
        let gap = vec![span("tx", None, 0.0, 10.0), span("a", Some(0), 1.0, 4.0)];
        assert_eq!(self_times(&gap)[0], 7.0);
    }

    #[test]
    fn unaccounted_share_counts_gaps_and_double_cover() {
        // Children tile the root exactly.
        let tiled = vec![
            span("tx", None, 0.0, 10.0),
            span("core.submit", Some(0), 0.0, 1.0),
            span("ordering.order_wait", Some(0), 1.0, 7.0),
            span("node.commit_span", Some(0), 7.0, 10.0),
        ];
        assert_eq!(unaccounted_share(&tiled), 0.0);
        // A 1 s hole in a 10 s root, and a second root covered twice over
        // by 1 s: (1 + 1) / 20.
        let mut spans = vec![
            span("tx", None, 0.0, 10.0),
            span("core.submit", Some(0), 0.0, 1.0),
            span("node.commit_span", Some(0), 2.0, 10.0),
        ];
        spans.push(span("tx", None, 0.0, 10.0));
        spans.push(span("core.submit", Some(3), 0.0, 6.0));
        spans.push(span("node.commit_span", Some(3), 5.0, 10.0));
        assert!((unaccounted_share(&spans) - 0.1).abs() < 1e-12);
        assert_eq!(unaccounted_share(&[]), 0.0);
    }

    #[test]
    fn span_file_is_valid_json() {
        let dir = crate::scratch_dir().join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("spans.json");
        let spans = vec![
            span("tx", None, 0.0, 1.0),
            span("core.submit", Some(0), 0.0, 0.5),
        ];
        write_spans(&path, "w", 7, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = crate::json::parse(&text).expect("valid JSON");
        let arr = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(arr[0].get("self").and_then(|p| p.as_f64()), Some(0.5));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
