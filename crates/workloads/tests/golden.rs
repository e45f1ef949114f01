//! Byte-exact pins for the bench harness's JSON emitters: a
//! [`Measurement`] carrying every nested object (stats, trace, pool,
//! obs), the non-finite `f64` → `null` rule, and the `orc-bench/v1`
//! report envelope. Reports outlive the commit that wrote them, so a
//! refactor of the emitters must not move a byte. Companion of
//! `orc-util/tests/golden.rs`.

use orc_util::hist;
use orc_util::json::Json;
use orc_util::obs::{self, OpKind, Sample, SeriesKind, SourceReport};
use orc_util::pool::PoolSnapshot;
use orc_util::stats::StatsSnapshot;
use std::time::Duration;
use workloads::record::Measurement;
use workloads::runner::{CellKind, CellResult, Machine, Profile, Report};

/// Quote, backslash, newline, tab, carriage return and a bare control
/// character.
const HOSTILE: &str = "a\"b\\c\nd\te\rf\u{1}";

#[track_caller]
fn pin(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "golden mismatch\n--- actual ---\n{actual}\n--- expected ---\n{expected}\n--- actual (escaped) ---\n{actual:?}"
    );
}

fn full_measurement() -> Measurement {
    let mut stats = StatsSnapshot {
        retires: 50,
        reclaims: 48,
        scans: 4,
        flushes: 1,
        protect_retries: 2,
        handovers: 3,
        peak_unreclaimed: 6,
        ..Default::default()
    };
    stats.batch.buckets[hist::bucket_of(4)] = 9;
    stats.delay.buckets[30] = 40;
    stats.delay.buckets[50] = 8;
    stats.delay.max = 7_000;
    let pool = PoolSnapshot {
        slot_allocs: 12,
        slot_frees: 11,
        remote_frees: 3,
        refills: 2,
        pages: 1,
        oversize_allocs: 4,
        ..Default::default()
    };
    let source = SourceReport {
        label: "ignored by Measurement::json".to_string(),
        alerts: 1,
        series: vec![
            (
                SeriesKind::Unreclaimed,
                vec![Sample { t_ns: 5, v: 0 }, Sample { t_ns: 9, v: 6 }],
            ),
            (SeriesKind::ReclaimRate, vec![Sample { t_ns: 9, v: 1200 }]),
        ],
    };
    // The op-latency window is process-global; this is the only test in
    // the binary that touches it.
    let _ = obs::op_take_window();
    for ns in [50u64, 60, 70, 80] {
        obs::record_op(OpKind::Contains, ns);
    }
    let op = obs::op_take_window();
    Measurement::new(
        HOSTILE,
        "HP/MichaelList",
        "50i-50r",
        2,
        1_000_000,
        Duration::from_millis(250),
    )
    .with_mem(-1024)
    .with_unreclaimed(6)
    .with_trace(&stats, 17)
    .with_stats(stats)
    .with_pool(&pool)
    .with_obs(source, op)
}

#[test]
fn measurement_json_with_every_nested_object() {
    let j = full_measurement().json();
    pin(
        &j,
        "{\"experiment\":\"a\\\"b\\\\c\\nd\\te\\rf\\u0001\",\"series\":\"HP/MichaelList\",\
         \"workload\":\"50i-50r\",\"threads\":2,\"ops\":1000000,\"elapsed_s\":0.25,\"mops\":4,\
         \"mem_bytes\":-1024,\"max_unreclaimed\":6,\
         \"stats\":{\"retires\":50,\"reclaims\":48,\"scans\":4,\"flushes\":1,\"protect_retries\":2,\
         \"handovers\":3,\"peak_unreclaimed\":6,\"batches\":9,\
         \"mean_batch\":5.333333333333333},\
         \"trace\":{\"reclaim_delay_p50_ns\":416,\"reclaim_delay_p99_ns\":7000,\
         \"reclaim_delay_max_ns\":7000,\"events_dropped\":17},\
         \"pool\":{\"slot_allocs\":12,\"slot_frees\":11,\"remote_frees\":3,\"refills\":2,\
         \"pages\":1,\"oversize_allocs\":4},\
         \"obs\":{\"series\":{\"unreclaimed\":[[5,0],[9,6]],\"reclaim_rate\":[[9,1200]]},\
         \"op\":{\"contains\":{\"count\":4,\"p50_ns\":60,\"p99_ns\":80,\"max_ns\":80}},\"alerts\":1}}",
    );
    let parsed = Json::parse(&j).expect("golden measurement is valid JSON");
    assert_eq!(parsed.get("experiment").unwrap().as_str(), Some(HOSTILE));
}

#[test]
fn bare_measurement_and_non_finite_floats() {
    let mut m = Measurement::new("e", "s", "w", 1, 3, Duration::from_millis(1500));
    pin(
        &m.json(),
        "{\"experiment\":\"e\",\"series\":\"s\",\"workload\":\"w\",\"threads\":1,\"ops\":3,\
         \"elapsed_s\":1.5,\"mops\":0.000002}",
    );
    m.mops = f64::NAN;
    m.elapsed_s = f64::NEG_INFINITY;
    let j = m.json();
    pin(
        &j,
        "{\"experiment\":\"e\",\"series\":\"s\",\"workload\":\"w\",\"threads\":1,\"ops\":3,\
         \"elapsed_s\":null,\"mops\":null}",
    );
    Json::parse(&j).expect("non-finite floats still yield valid JSON");
}

#[test]
fn report_envelope_and_cells() {
    let bare = Measurement::new(
        "table1",
        "PTP",
        "stalled-reader",
        4,
        10,
        Duration::from_secs(1),
    );
    let cell = |id: &str, kind, median: f64| CellResult {
        kind,
        id: id.to_string(),
        runs: 3,
        kept: 2,
        mops_median: median,
        mops_min: 0.5,
        mops_max: f64::INFINITY,
        measurement: bare.clone(),
    };
    let report = Report {
        profile: Profile::Short,
        machine: Machine {
            hostname: HOSTILE.to_string(),
            os: "linux".to_string(),
            arch: "x86_64".to_string(),
            cpus: 2,
            cpu_model: "Some CPU @ 2.0GHz".to_string(),
        },
        git_sha: "abc123".to_string(),
        generated_unix: 1_700_000_000,
        config_json: "{\"threads\":[1,2]}".to_string(),
        cells: vec![
            cell(
                "fig1-2/HP/MSQueue/enq-deq-pairs/t1",
                CellKind::Throughput,
                1.25,
            ),
            cell("table1/PTP/stalled-reader/t4", CellKind::Bound, f64::NAN),
        ],
    };
    let text = report.json();
    pin(
        &text,
        "{\n\"schema\":\"orc-bench/v1\",\n\"profile\":\"short\",\n\"git_sha\":\"abc123\",\n\
         \"generated_unix\":1700000000,\n\
         \"machine\":{\"hostname\":\"a\\\"b\\\\c\\nd\\te\\rf\\u0001\",\"os\":\"linux\",\
         \"arch\":\"x86_64\",\"cpus\":2,\"cpu_model\":\"Some CPU @ 2.0GHz\"},\n\
         \"config\":{\"threads\":[1,2]},\n\"cells\":[\n\
         {\"id\":\"fig1-2/HP/MSQueue/enq-deq-pairs/t1\",\"kind\":\"throughput\",\"runs\":3,\"kept\":2,\
         \"mops_median\":1.25,\"mops_min\":0.5,\"mops_max\":null,\
         \"measurement\":{\"experiment\":\"table1\",\"series\":\"PTP\",\"workload\":\"stalled-reader\",\
         \"threads\":4,\"ops\":10,\"elapsed_s\":1,\"mops\":0.00001}},\n\
         {\"id\":\"table1/PTP/stalled-reader/t4\",\"kind\":\"bound\",\"runs\":3,\"kept\":2,\
         \"mops_median\":null,\"mops_min\":0.5,\"mops_max\":null,\
         \"measurement\":{\"experiment\":\"table1\",\"series\":\"PTP\",\"workload\":\"stalled-reader\",\
         \"threads\":4,\"ops\":10,\"elapsed_s\":1,\"mops\":0.00001}}\n\
         ]}\n",
    );
    Json::parse(&text).expect("golden report is valid JSON");
}
