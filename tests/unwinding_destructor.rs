//! A destructor that unwinds during reclamation ends the process by
//! abort, naming the object's type (DESIGN.md §6, §11), under every
//! manual scheme and under OrcGC.
//!
//! A reclaimer runs destructors on whichever thread frees, mid-scan or
//! mid-operation. Before the policy, HP's scan unwound with objects it
//! had already freed still on its retired list, and destroyed one of them
//! again at the next flush; OrcGC stopped freeing on the thread.
//!
//! Each test re-runs this test binary on the one `child` test, which
//! reads the scenario from `UNWINDING_DESTRUCTOR_CHILD` (and does nothing
//! without it), and checks how the child ended. Run the file under
//! `ORC_POOL=0` too: the children inherit it, and free to the global
//! allocator.

use orc_util::atomics::{AtomicBool, Ordering};
use orcgc_suite::prelude::*;
use std::process::Command;

/// The environment variable naming the child's scenario.
const CHILD: &str = "UNWINDING_DESTRUCTOR_CHILD";

/// Whether a `PanicsOnce` has panicked yet in this process.
static PANICKED: AtomicBool = AtomicBool::new(false);

/// A value whose destructor panics the first time one is dropped.
struct PanicsOnce;

impl Drop for PanicsOnce {
    fn drop(&mut self) {
        if !PANICKED.swap(true, Ordering::Relaxed) {
            panic!("PanicsOnce::drop");
        }
    }
}

/// Two retirees, so a scan that frees the panicking one has another in
/// the same pass; then flushes, then the teardown that frees what is
/// left (the only free of the None baseline).
fn manual(kind: SchemeKind) {
    let smr = kind.build();
    for _ in 0..2 {
        let p = smr.alloc(PanicsOnce);
        // SAFETY: `p` came from this scheme's `alloc`, never shared,
        // retired once.
        unsafe { smr.retire(p) };
    }
    for _ in 0..3 {
        smr.flush();
    }
    drop(smr);
}

/// A fresh object whose only guard drops: OrcGC frees it on the spot.
fn orcgc() {
    drop(make_orc(PanicsOnce));
    drop(make_orc(PanicsOnce));
    orcgc::flush_thread();
}

/// The child: runs the scenario its environment names. Reaching the end
/// is a failure the parent reports.
#[test]
fn child() {
    let Ok(which) = std::env::var(CHILD) else {
        return;
    };
    match SchemeKind::from_str(&which) {
        Some(kind) => manual(kind),
        None => orcgc(),
    }
    eprintln!("child survived");
}

/// Runs `child` on `which` in a fresh process; it must end by abort with
/// the tracked object's type on stderr.
fn aborts_naming_the_type(which: &str) {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", "child", "--nocapture", "--test-threads=1"])
        .env(CHILD, which)
        .output()
        .expect("re-run the test binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(
            out.status.signal(),
            Some(6),
            "{which}: the child did not end by SIGABRT ({}); stderr:\n{stderr}",
            out.status
        );
    }
    assert!(!out.status.success(), "{which}: the child exited 0");
    let line = stderr
        .lines()
        .find(|l| l.contains("unwound during reclamation; aborting"))
        .unwrap_or_else(|| panic!("{which}: no abort message; stderr:\n{stderr}"));
    assert!(
        line.contains("PanicsOnce"),
        "{which}: the message does not name the type: {line}"
    );
}

#[test]
fn hp_aborts() {
    aborts_naming_the_type("hp");
}

#[test]
fn ptb_aborts() {
    aborts_naming_the_type("ptb");
}

#[test]
fn ptp_aborts() {
    aborts_naming_the_type("ptp");
}

#[test]
fn he_aborts() {
    aborts_naming_the_type("he");
}

#[test]
fn adaptive_aborts() {
    aborts_naming_the_type("adaptive");
}

#[test]
fn ebr_aborts() {
    aborts_naming_the_type("ebr");
}

#[test]
fn none_aborts() {
    aborts_naming_the_type("none");
}

#[test]
fn orcgc_aborts() {
    aborts_naming_the_type("orcgc");
}

/// Every scheme kind has its test above.
#[test]
fn every_scheme_kind_is_covered() {
    let covered = ["hp", "ptb", "ptp", "he", "adaptive", "ebr", "none"];
    for kind in SchemeKind::ALL {
        let name = kind.name().to_ascii_lowercase();
        assert!(covered.contains(&name.as_str()), "{kind} has no abort test");
    }
}
