//! Retry and graceful-degradation policy for storage I/O.
//!
//! The `plssvm-data` [`Vfs`](plssvm_data::vfs::Vfs) layer makes storage
//! faults *observable*; this module decides what the training pipeline
//! does about them:
//!
//! * transient faults (a flaky fsync, a momentary EIO) are retried with
//!   capped exponential backoff, each retry recorded as an
//!   [`RecoveryKind::IoRetry`] telemetry event,
//! * persistent faults exhaust the attempt budget and surface to the
//!   caller, which picks a degradation: checkpoint writes disable
//!   checkpointing and let the solve continue
//!   ([`RecoveryKind::IoDegraded`]); final artifact writes are fatal
//!   with a distinct exit code (the CLI's exit 4).
//!
//! Backoff sleeps are real but tiny and bounded (the default policy
//! sleeps at most ~35 ms in total), so fault harnesses stay fast and
//! deterministic in outcome — the *decision* sequence depends only on
//! the injected fault schedule, never on timing.

use std::fmt::Display;
use std::time::Duration;

use crate::trace::{MetricsSink, RecoveryKind, RecoverySample};

/// Retry budget and backoff shape for storage operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRetryPolicy {
    /// Total attempts (first try + retries); clamped to at least 1.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubled each further retry.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for IoRetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl IoRetryPolicy {
    /// The backoff before retry number `retry` (1-based), doubled each
    /// time and capped at [`IoRetryPolicy::max_backoff`].
    fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32 << (retry - 1).min(16);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// Runs `op` under `policy`, retrying failures with capped backoff.
///
/// Every retry emits one [`RecoveryKind::IoRetry`] event to `metrics`
/// naming `what` and the error that triggered it. Returns the first
/// success, or the last error once the attempt budget is exhausted —
/// by then the failure is treated as persistent and the caller decides
/// whether to degrade or abort.
pub fn with_io_retry<T, E: Display>(
    policy: &IoRetryPolicy,
    metrics: Option<&dyn MetricsSink>,
    what: &str,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    for attempt in 1..=attempts {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                if attempt < attempts {
                    if let Some(m) = metrics {
                        m.record_recovery(RecoverySample::solver(
                            RecoveryKind::IoRetry,
                            attempt as usize,
                            format!("{what}: attempt {attempt}/{attempts} failed: {e}"),
                        ));
                    }
                    let pause = policy.backoff(attempt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
                last_err = Some(e);
            }
        }
    }
    Err(last_err.expect("at least one attempt always runs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Telemetry;

    #[test]
    fn first_success_needs_no_telemetry() {
        let telemetry = Telemetry::new();
        let r: Result<u32, String> = with_io_retry(
            &IoRetryPolicy::default(),
            Some(&telemetry),
            "write model",
            || Ok(7),
        );
        assert_eq!(r.unwrap(), 7);
        assert!(telemetry.report().recovery.is_empty());
    }

    #[test]
    fn transient_failure_is_retried_and_recorded() {
        let telemetry = Telemetry::new();
        let mut calls = 0;
        let policy = IoRetryPolicy {
            base_backoff: Duration::ZERO,
            ..Default::default()
        };
        let r: Result<u32, String> = with_io_retry(&policy, Some(&telemetry), "append", || {
            calls += 1;
            if calls < 3 {
                Err(format!("flaky #{calls}"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(r.unwrap(), 42);
        assert_eq!(calls, 3);
        let recovery = telemetry.report().recovery;
        assert_eq!(recovery.len(), 2);
        assert!(recovery.iter().all(|s| s.kind == RecoveryKind::IoRetry));
        assert!(recovery[0].detail.contains("append"));
        assert!(recovery[0].detail.contains("flaky #1"));
    }

    #[test]
    fn persistent_failure_exhausts_budget() {
        let telemetry = Telemetry::new();
        let policy = IoRetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let mut calls = 0;
        let r: Result<(), String> = with_io_retry(&policy, Some(&telemetry), "sync", || {
            calls += 1;
            Err("disk gone".to_string())
        });
        assert_eq!(r.unwrap_err(), "disk gone");
        assert_eq!(calls, 4);
        // one retry event per *retried* attempt: attempts 1..3
        assert_eq!(telemetry.report().recovery.len(), 3);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = IoRetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(18),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(5));
        assert_eq!(p.backoff(2), Duration::from_millis(10));
        assert_eq!(p.backoff(3), Duration::from_millis(18));
        assert_eq!(p.backoff(8), Duration::from_millis(18));
    }

    #[test]
    fn no_retry_policy_fails_immediately() {
        let mut calls = 0;
        let no_retry = IoRetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let r: Result<(), &str> = with_io_retry(&no_retry, None, "x", || {
            calls += 1;
            Err("nope")
        });
        assert!(r.is_err());
        assert_eq!(calls, 1);
    }
}
