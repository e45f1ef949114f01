//! Memory probes for the §5 footprint experiment (HS-skip ≈19 GB vs
//! CRF-skip <1 GB on the paper's machines).
//!
//! Two complementary measurements:
//!
//! * **Exact tracked bytes** — every scheme in this workspace allocates
//!   through the pool funnel that [`orc_util::track`] is a view of, so
//!   live-object/byte deltas are precise (what the paper *means*).
//! * **Process RSS** — read from `/proc/self/statm` (what the paper
//!   *measured*); noisy but included for fidelity.

use orc_util::track;

/// Resident set size in bytes, or 0 when `/proc` is unavailable.
pub fn rss_bytes() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    let Some(resident_pages) = statm.split_whitespace().nth(1) else {
        return 0;
    };
    let Ok(pages): Result<u64, _> = resident_pages.parse() else {
        return 0;
    };
    pages * page_size()
}

/// Page size from the ELF auxiliary vector (`AT_PAGESZ`), read without
/// libc so the workspace stays dependency-free; falls back to 4 KiB where
/// `/proc/self/auxv` is unavailable (non-Linux, locked-down containers).
pub fn page_size() -> u64 {
    const AT_PAGESZ: u64 = 6;
    if let Ok(auxv) = std::fs::read("/proc/self/auxv") {
        for pair in auxv.chunks_exact(16) {
            let key = u64::from_ne_bytes(pair[..8].try_into().unwrap());
            let val = u64::from_ne_bytes(pair[8..].try_into().unwrap());
            if key == AT_PAGESZ && val != 0 {
                return val;
            }
        }
    }
    4096
}

/// Snapshot of both memory views.
#[derive(Debug, Clone, Copy)]
pub struct MemSnapshot {
    pub live_objects: i64,
    pub live_bytes: i64,
    pub rss: u64,
}

pub fn snapshot() -> MemSnapshot {
    let s = track::global().snapshot();
    MemSnapshot {
        live_objects: s.live_objects,
        live_bytes: s.live_bytes,
        rss: rss_bytes(),
    }
}

impl MemSnapshot {
    /// Tracked-byte growth since `base`.
    pub fn bytes_since(&self, base: &MemSnapshot) -> i64 {
        self.live_bytes - base.live_bytes
    }

    pub fn objects_since(&self, base: &MemSnapshot) -> i64 {
        self.live_objects - base.live_objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `rss_bytes` returns 0 where /proc/self/statm does not exist; the
    // positivity claim only holds on Linux.
    #[cfg(target_os = "linux")]
    #[test]
    fn rss_is_nonzero_on_linux() {
        assert!(rss_bytes() > 0, "/proc/self/statm should be readable");
    }
}
