//! Byte-exact pins for every telemetry exporter in `orc-util`.
//!
//! The exporters' output is consumed outside the process — saved
//! `orc-bench` reports, Prometheus scrapes, Perfetto — so a
//! refactor of the emitters must not move a single byte. Inputs are
//! hand-built (public fields; the op-latency window goes through
//! `record_op`, the one write path every layout of it must keep), and
//! include a label hostile to both escapers.

use orc_util::hist;
use orc_util::obs::{
    self, AnnKind, Annotation, ObsAlert, ObsReport, OpKind, OpSnapshot, Sample, SeriesKind,
    SourceReport,
};
use orc_util::stats::StatsSnapshot;
use orc_util::trace::{self, EventKind, TraceEvent};
use std::sync::Mutex;

/// Quote, backslash, newline and a bare control character.
const HOSTILE: &str = "HP/\"q\"\\w\nx\u{1}";

fn stats() -> StatsSnapshot {
    let mut s = StatsSnapshot {
        retires: 1000,
        reclaims: 995,
        scans: 12,
        flushes: 3,
        protect_retries: 7,
        handovers: 5,
        peak_unreclaimed: 64,
        ..Default::default()
    };
    s.batch.buckets[hist::bucket_of(1)] = 10;
    s.batch.buckets[hist::bucket_of(32)] = 20;
    s.delay.buckets[40] = 900;
    s.delay.buckets[60] = 80;
    s.delay.buckets[84] = 15;
    s.delay.max = 1_500_000;
    s
}

/// A deterministic op-latency window. The spans are process-global, so
/// the tests that need one serialise here.
fn op_window() -> OpSnapshot {
    static LOCK: Mutex<()> = Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = obs::op_take_window();
    for ns in [100u64, 200, 300, 400, 100_000] {
        obs::record_op(OpKind::Insert, ns);
    }
    for _ in 0..99 {
        obs::record_op(OpKind::Dequeue, 1_000);
    }
    obs::record_op(OpKind::Dequeue, 1_000_000_000);
    obs::op_take_window()
}

fn source() -> SourceReport {
    SourceReport {
        label: HOSTILE.to_string(),
        alerts: 2,
        series: vec![
            (
                SeriesKind::Unreclaimed,
                vec![Sample { t_ns: 10, v: 1 }, Sample { t_ns: 20, v: 3 }],
            ),
            (SeriesKind::RetireRate, vec![]),
            (SeriesKind::DelayP99Ns, vec![Sample { t_ns: 20, v: 2304 }]),
        ],
    }
}

fn report() -> ObsReport {
    ObsReport {
        t_ns: 99,
        sources: vec![source()],
        process: vec![
            (SeriesKind::LiveSlots, vec![Sample { t_ns: 10, v: 512 }]),
            (SeriesKind::LiveBytes, vec![]),
        ],
        op: op_window(),
        alerts: vec![ObsAlert {
            source: HOSTILE.to_string(),
            t_ns: 20,
            streak: 5,
            unreclaimed: 3,
        }],
        annotations: vec![
            Annotation {
                t_ns: 15,
                kind: AnnKind::ModeSwitch,
                a: 1,
            },
            Annotation {
                t_ns: 20,
                kind: AnnKind::Alert,
                a: 3,
            },
        ],
        passes: 2,
    }
}

#[track_caller]
fn pin(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "golden mismatch\n--- actual ---\n{actual}\n--- expected ---\n{expected}\n--- actual (escaped) ---\n{actual:?}"
    );
}

#[test]
fn stats_snapshot_json_summary_and_table_row() {
    let s = stats();
    pin(
        &s.json(),
        "{\"retires\":1000,\"reclaims\":995,\"scans\":12,\"flushes\":3,\
         \"protect_retries\":7,\"handovers\":5,\"peak_unreclaimed\":64,\
         \"batches\":30,\"mean_batch\":33.166666666666664}",
    );
    pin(
        &s.summary(),
        "retires 1000 reclaims 995 scans 12 flushes 3 retries 7 handovers 5 peak 64 \
         mean-batch 33.2 rd-p50 2.3us rd-p99 1.5ms rd-max 1.5ms",
    );
    pin(
        &s.table_row(HOSTILE, Some(1.23456)),
        "HP/\"q\"\\w\nx\u{1}               1.235      1000       995       5      64      12       3        7        5      30   33.2    2.3us    1.5ms    1.5ms",
    );
    pin(
        &s.table_row("OrcGC", None),
        "OrcGC                         -      1000       995       5      64      12       3        7        5      30   33.2    2.3us    1.5ms    1.5ms",
    );
    pin(
        &StatsSnapshot::table_header("cell"),
        "cell                     Mops/s   retires  reclaims   outst    peak   scans flushes  p-retry handover batches   mean   rd-p50   rd-p99   rd-max",
    );
    let zero = StatsSnapshot::default();
    pin(
        &zero.json(),
        "{\"retires\":0,\"reclaims\":0,\"scans\":0,\"flushes\":0,\"protect_retries\":0,\
         \"handovers\":0,\"peak_unreclaimed\":0,\"batches\":0,\"mean_batch\":0}",
    );
    pin(
        &zero.table_row("None", None),
        "None                          -         0         0       0       0       0       0        0        0       0    0.0        -        -        -",
    );
}

#[test]
fn op_snapshot_json() {
    pin(
        &op_window().json(),
        "{\"insert\":{\"count\":5,\"p50_ns\":288,\"p99_ns\":100000,\"max_ns\":100000},\
         \"dequeue\":{\"count\":100,\"p50_ns\":960,\"p99_ns\":960,\"max_ns\":1000000000}}",
    );
    pin(&OpSnapshot::default().json(), "{}");
}

#[test]
fn source_report_series_json() {
    pin(
        &source().series_json(),
        "{\"unreclaimed\":[[10,1],[20,3]],\"retire_rate\":[],\"delay_p99_ns\":[[20,2304]]}",
    );
    let empty = SourceReport {
        label: String::new(),
        alerts: 0,
        series: Vec::new(),
    };
    pin(&empty.series_json(), "{}");
}

#[test]
fn obs_report_prometheus() {
    pin(
        &report().prometheus(),
        "# TYPE orc_obs_passes_total counter\n\
         orc_obs_passes_total 2\n\
         # TYPE orc_obs_alerts_total counter\n\
         orc_obs_alerts_total 0\n\
         # TYPE orc_obs_unreclaimed gauge\n\
         orc_obs_unreclaimed{source=\"HP/\\\"q\\\"\\\\w\\nx\u{1}\"} 3\n\
         # TYPE orc_obs_delay_p99_ns gauge\n\
         orc_obs_delay_p99_ns{source=\"HP/\\\"q\\\"\\\\w\\nx\u{1}\"} 2304\n\
         # TYPE orc_obs_source_alerts gauge\n\
         orc_obs_source_alerts{source=\"HP/\\\"q\\\"\\\\w\\nx\u{1}\"} 2\n\
         # TYPE orc_obs_live_slots gauge\n\
         orc_obs_live_slots{source=\"process\"} 512\n\
         # TYPE orc_obs_op_latency_ns gauge\n\
         orc_obs_op_latency_ns{op=\"insert\",q=\"p50\"} 288\n\
         orc_obs_op_latency_ns{op=\"insert\",q=\"p99\"} 100000\n\
         orc_obs_op_latency_ns{op=\"insert\",q=\"max\"} 100000\n\
         orc_obs_op_latency_ns{op=\"dequeue\",q=\"p50\"} 960\n\
         orc_obs_op_latency_ns{op=\"dequeue\",q=\"p99\"} 960\n\
         orc_obs_op_latency_ns{op=\"dequeue\",q=\"max\"} 1000000000\n\
         # TYPE orc_obs_op_samples_total counter\n\
         orc_obs_op_samples_total{op=\"insert\"} 5\n\
         orc_obs_op_samples_total{op=\"dequeue\"} 100\n",
    );
}

#[test]
fn obs_report_json_lines() {
    pin(
        &report().json_lines(),
        "{\"type\":\"series\",\"source\":\"HP/\\\"q\\\"\\\\w\\nx\\u0001\",\"series\":\"unreclaimed\",\"samples\":[[10,1],[20,3]]}\n\
         {\"type\":\"series\",\"source\":\"HP/\\\"q\\\"\\\\w\\nx\\u0001\",\"series\":\"retire_rate\",\"samples\":[]}\n\
         {\"type\":\"series\",\"source\":\"HP/\\\"q\\\"\\\\w\\nx\\u0001\",\"series\":\"delay_p99_ns\",\"samples\":[[20,2304]]}\n\
         {\"type\":\"series\",\"source\":\"process\",\"series\":\"live_slots\",\"samples\":[[10,512]]}\n\
         {\"type\":\"series\",\"source\":\"process\",\"series\":\"live_bytes\",\"samples\":[]}\n\
         {\"type\":\"op\",\"op\":\"insert\",\"count\":5,\"p50_ns\":288,\"p99_ns\":100000,\"max_ns\":100000}\n\
         {\"type\":\"op\",\"op\":\"dequeue\",\"count\":100,\"p50_ns\":960,\"p99_ns\":960,\"max_ns\":1000000000}\n\
         {\"type\":\"alert\",\"source\":\"HP/\\\"q\\\"\\\\w\\nx\\u0001\",\"t_ns\":20,\"streak\":5,\"unreclaimed\":3}\n\
         {\"type\":\"annotation\",\"t_ns\":15,\"kind\":\"mode_switch\",\"a\":1}\n\
         {\"type\":\"annotation\",\"t_ns\":20,\"kind\":\"alert\",\"a\":3}\n",
    );
}

#[test]
fn empty_obs_report_exports_are_empty_but_stable() {
    let empty = ObsReport {
        t_ns: 1,
        sources: Vec::new(),
        process: Vec::new(),
        op: OpSnapshot::default(),
        alerts: Vec::new(),
        annotations: Vec::new(),
        passes: 0,
    };
    pin(
        &empty.prometheus(),
        "# TYPE orc_obs_passes_total counter\norc_obs_passes_total 0\n\
         # TYPE orc_obs_alerts_total counter\norc_obs_alerts_total 0\n",
    );
    pin(&empty.json_lines(), "");
}

#[test]
fn chrome_trace_document() {
    let ev = |t_ns, tid, seq, kind, a, b| TraceEvent {
        t_ns,
        tid,
        seq,
        kind,
        a,
        b,
    };
    let evs = [
        ev(1_000, 3, 0, EventKind::ScanBegin, 0, 0),
        ev(1_500, 0, 0, EventKind::Retire, 0xdead_beef, 41),
        ev(2_250, 3, 1, EventKind::ReclaimBatch, 7, 0),
        ev(2_251, 3, 2, EventKind::ScanEnd, 7, 0),
        ev(1_234_567_891, 0, 1, EventKind::PoolRemoteFree, 16, 2),
    ];
    pin(
        &trace::chrome_json_of(&evs),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
         {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"orc-trace\"}},\
         {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"tid 0\"}},\
         {\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":\"tid 3\"}},\
         {\"ph\":\"B\",\"pid\":1,\"tid\":3,\"ts\":1.000,\"name\":\"scan\"},\
         {\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":1.500,\"name\":\"retire\",\"args\":{\"a\":3735928559,\"b\":41}},\
         {\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":3,\"ts\":2.250,\"name\":\"reclaim_batch\",\"args\":{\"a\":7,\"b\":0}},\
         {\"ph\":\"E\",\"pid\":1,\"tid\":3,\"ts\":2.251,\"name\":\"scan\",\"args\":{\"freed\":7}},\
         {\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":1234567.891,\"name\":\"pool_remote_free\",\"args\":{\"a\":16,\"b\":2}}\
         ]}",
    );
    pin(
        &trace::chrome_json_of(&[]),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
         {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"orc-trace\"}}]}",
    );
}
