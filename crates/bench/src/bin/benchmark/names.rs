//! The metric names, in the order `BENCHMARK.json` lists them. An
//! untraced run prints every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric (0 where a metric does not apply to the
//! workload); the unit tests hold these lists and `BENCHMARK.json` equal.

/// `(name, unit, better)` of the gated end-to-end metrics. Only metrics
/// every workload reports with a non-zero value can be gated by the
/// driver, so the workload-specific end-to-end metrics (`query_*`,
/// `failed_share`, `unavailable_ms`, `catchup_ms`, `disk_bytes_per_tx`)
/// lead the per-layer list instead, ungated — and so does `capacity_tps`,
/// whose same-commit spread on the shared reference host exceeds the
/// largest bound a gate may carry (`AA_RESULTS.txt`).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("commit_low_p50_ms", "ms", "lower"),
    ("commit_low_p95_ms", "ms", "lower"),
    ("commit_high_p50_ms", "ms", "lower"),
    ("commit_high_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of the ungated metrics of the traced run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // End-to-end in nature, but too noisy to gate, workload-specific or
    // legitimately zero.
    ("capacity_tps", "tx/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p95_ms", "ms", "lower"),
    ("failed_share", "fraction", "lower"),
    ("unavailable_ms", "ms", "lower"),
    ("catchup_ms", "ms", "lower"),
    ("disk_bytes_per_tx", "B", "lower"),
    // Boundary observations.
    ("core.submit_ack_us", "us", "lower"),
    ("core.commit_p99_all_ms", "ms", "lower"),
    ("ordering.order_wait_p50_ms", "ms", "lower"),
    ("ordering.order_wait_p95_ms", "ms", "lower"),
    ("ordering.txs_per_block", "count", "higher"),
    ("ordering.timeout_cut_share", "fraction", "lower"),
    ("ordering.blocks_per_s", "1/s", "higher"),
    ("ordering.view_changes", "count", "lower"),
    ("ordering.view_change_ms", "ms", "lower"),
    ("node.commit_span_p50_ms", "ms", "lower"),
    ("node.commit_span_p95_ms", "ms", "lower"),
    ("node.bpt_ms", "ms", "lower"),
    ("node.bet_ms", "ms", "lower"),
    ("node.bct_ms", "ms", "lower"),
    ("node.tet_ms", "ms", "lower"),
    ("node.commit_stage_ms", "ms", "lower"),
    ("node.apply_stage_ms", "ms", "lower"),
    ("node.post_stage_ms", "ms", "lower"),
    ("node.su", "fraction", "lower"),
    ("node.mt_per_s", "1/s", "lower"),
    ("node.catchup_blocks_per_s", "1/s", "higher"),
    ("node.sync_rounds", "count", "lower"),
    ("txn.abort_share", "fraction", "lower"),
    ("txn.retries_per_commit", "count", "lower"),
    ("storage.pool_hit_rate", "fraction", "higher"),
    ("storage.pages_read_per_query", "count", "lower"),
    ("storage.pages_written_per_tx", "count", "lower"),
    ("storage.pages_evicted", "count", "lower"),
    // Layer probes.
    ("node.replay_tps", "tx/s", "higher"),
    ("node.frontend_submit_us", "us", "lower"),
    ("node.query_us", "us", "lower"),
    ("node.state_hash_ms", "ms", "lower"),
    ("chain.tx_build_us", "us", "lower"),
    ("chain.tx_verify_us", "us", "lower"),
    ("chain.block_build_us", "us", "lower"),
    ("chain.block_verify_us", "us", "lower"),
    ("chain.block_bytes_per_tx", "B", "lower"),
    ("chain.store_append_us", "us", "lower"),
    ("chain.store_sync_us", "us", "lower"),
    ("crypto.sign_us", "us", "lower"),
    ("crypto.verify_us", "us", "lower"),
    ("crypto.sha256_mb_s", "MB/s", "higher"),
    ("crypto.merkle_root_us", "us", "lower"),
    ("sql.parse_contract_us", "us", "lower"),
    ("sql.parse_query_us", "us", "lower"),
    ("engine.invoke_simple_us", "us", "lower"),
    ("engine.invoke_join_us", "us", "lower"),
    ("engine.invoke_transfer_us", "us", "lower"),
    ("engine.point_query_us", "us", "lower"),
    ("txn.begin_us", "us", "lower"),
    ("txn.apply_commit_us", "us", "lower"),
    ("txn.apply_commit_join_us", "us", "lower"),
    ("storage.append_us", "us", "lower"),
    ("storage.index_lookup_us", "us", "lower"),
    ("storage.hot_scan_rows_per_s", "1/s", "higher"),
    ("storage.cold_scan_rows_per_s", "1/s", "higher"),
    ("storage.fault_us_per_page", "us", "lower"),
    ("storage.spill_ms_per_segment", "ms", "lower"),
    ("ordering.cutter_push_us", "us", "lower"),
    ("ordering.kafka_alone_tps", "tx/s", "higher"),
    ("ordering.bft_alone_tps", "tx/s", "higher"),
    ("ordering.bft_round_ms", "ms", "lower"),
    ("network.sim_send_us", "us", "lower"),
    ("network.frame_rtt_us", "us", "lower"),
    ("network.frame_mb_s", "MB/s", "higher"),
    ("network.client_bytes_per_tx", "B", "lower"),
    ("network.peer_bytes_per_tx", "B", "lower"),
    // Validity of the run, not the system.
    ("gen.dry_tps", "1/s", "higher"),
    ("gen.late_p99_ms", "ms", "lower"),
    ("gen.late_max_ms", "ms", "lower"),
    ("gen.cpu_steal_share", "fraction", "lower"),
    ("trace.unaccounted_share", "fraction", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
];

/// Is `name` one of the listed metrics?
pub fn is_listed(name: &str) -> bool {
    END_TO_END.iter().chain(PER_LAYER).any(|m| m.0 == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_charset_and_the_count_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(matches!(*better, "lower" | "higher"), "{better}");
            assert!(seen.insert(*name), "{name} is listed twice");
        }
        for w in &crate::workload::SPECS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_program() {
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let own = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
        for m in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= crate::stats::MAX_BOUND);
        }
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let specs: Vec<(String, String)> = crate::workload::SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, specs);
        let paths = doc.get("paths").and_then(Json::as_array).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("crates/bench/src/bin/benchmark"));
        let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(secs, crate::DEFAULT_SECONDS);
    }
}
