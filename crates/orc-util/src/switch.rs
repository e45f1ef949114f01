//! The one latched environment kill switch behind `ORC_STATS`,
//! `ORC_TRACE`, `ORC_POOL` and `ORC_OBS`.
//!
//! A [`Switch`] reads its variable once, on the first [`enabled`] call,
//! and latches the answer for the life of the process: every later call
//! is one relaxed load and a predicted branch, which is what lets a
//! telemetry layer sit on a reclamation hot path and still be free when
//! off. All four layers are **on** by default.
//!
//! # Grammar
//!
//! The value is trimmed and compared ASCII-case-insensitively: `0`,
//! `false` and `off` disable; anything else — including unset and the
//! empty string — enables.
//!
//! [`enabled`]: Switch::enabled

// `std` atomics, not the facade: the latch is configuration, not
// protocol state (DESIGN.md §9.1).
use std::sync::atomic::{AtomicU8, Ordering};

const UNREAD: u8 = 0;
const ON: u8 = 1;
const OFF: u8 = 2;

/// A const-constructible latched kill switch:
/// `static STATS: Switch = Switch::new("ORC_STATS")`.
pub struct Switch {
    var: &'static str,
    state: AtomicU8,
}

impl Switch {
    pub const fn new(var: &'static str) -> Self {
        Self {
            var,
            state: AtomicU8::new(UNREAD),
        }
    }

    /// Whether the layer is on. The first call reads the environment
    /// (racing first calls read the same value, so the latch is
    /// idempotent); set the variable before it.
    #[inline]
    pub fn enabled(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            ON => true,
            OFF => false,
            _ => self.latch(),
        }
    }

    #[cold]
    fn latch(&self) -> bool {
        let on = parse_enabled(std::env::var(self.var).ok().as_deref());
        self.state
            .store(if on { ON } else { OFF }, Ordering::Relaxed);
        on
    }
}

/// The kill-switch grammar (module docs).
fn parse_enabled(v: Option<&str>) -> bool {
    !v.is_some_and(|v| {
        let v = v.trim();
        ["0", "false", "off"]
            .iter()
            .any(|off| v.eq_ignore_ascii_case(off))
    })
}

#[cfg(test)]
mod tests {
    use super::parse_enabled;

    #[test]
    fn grammar_table() {
        assert!(parse_enabled(None), "unset must enable");
        // Anything that is not a spelling of "off", near misses included.
        for on in ["", "1", "yes", "on", "true", "00", "offf", "o ff", "no"] {
            assert!(parse_enabled(Some(on)), "{on:?} must enable");
        }
        for off in ["0", " 0 ", "false", "off", "FALSE", "OFF", " off\n"] {
            assert!(!parse_enabled(Some(off)), "{off:?} must disable");
        }
        // Mixed case: every layer but ORC_OBS used to leave these on.
        for off in ["False", "Off", "oFF", "fAlSe", "\tOff "] {
            assert!(!parse_enabled(Some(off)), "{off:?} must disable");
        }
    }
}
