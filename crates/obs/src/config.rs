//! The workspace's shared typed validation error for configuration
//! structs.
//!
//! Every tunable struct (`DetectorConfig`, `SelfHealConfig`,
//! `ControllerConfig`, `StftConfig`, …) exposes a `validate()` returning
//! [`ConfigError`] instead of panicking deep inside a constructor, so a
//! bad scenario spec surfaces as a diagnosable error naming the field —
//! not an `assert!` backtrace. The type lives here because `mdn-obs` is
//! the one dependency-free crate every other layer already sits on.

use std::fmt;

/// A configuration value that fails its invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, dotted from the config root
    /// (`estimator.alpha`).
    pub field: &'static str,
    /// Why the value is rejected, including the value itself.
    pub reason: String,
}

impl ConfigError {
    /// A new error for `field`.
    pub fn new(field: &'static str, reason: impl Into<String>) -> Self {
        Self {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}
