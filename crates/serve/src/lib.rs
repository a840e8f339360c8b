//! PLSSVM serving layer: a long-lived batched inference service.
//!
//! The crate turns any model the CLI can produce — binary, multiclass or
//! SVR, any kernel — into a server that accepts concurrent requests over
//! a newline-delimited wire protocol ([`protocol`]), coalesces them
//! through a bounded micro-batching queue ([`batcher`]) into the
//! panelized prediction path, and supports hot model reloads with zero
//! dropped requests ([`reload`]).
//!
//! The serving path is overload-hardened: connection admission and
//! graceful drain live in [`admission`], queue watermark shedding and
//! dequeue-time deadlines in [`batcher`], and slow-client read budgets
//! in [`net`] — every refused or expired request is answered with a
//! structured error line, never a silent drop.
//!
//! Everything timing-dependent is built against the injectable
//! [`clock::Clock`] so queueing deadlines and reload behavior are
//! deterministically testable without sleeps. The crate owns its
//! telemetry: [`stats::ServeStats`], snapshotted by [`Engine::stats`].

#![warn(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod clock;
pub mod engine;
pub mod model;
pub mod net;
pub mod protocol;
pub mod reload;
pub mod stats;

pub use admission::{ConnGuard, ServerControl};
pub use batcher::{BatchQueue, Batcher, BatcherConfig, Flush, Shed, Ticket};
pub use clock::{Clock, ManualClock, SystemClock};
pub use engine::{Engine, EngineConfig, Pending};
pub use model::{Prediction, ServeModel};
pub use net::{
    serve_connection, serve_lines, serve_tcp, ConnectionOptions, TimedRead,
    ERR_CLIENT_TIMEOUT_LINE, ERR_LINE_TOO_LONG_LINE, ERR_REFUSED_DRAINING_LINE, ERR_REFUSED_LINE,
    MAX_LINE_BYTES,
};
pub use protocol::{
    parse_control, parse_line, Control, ParsedLine, Query, QueryFormat, DRAIN_ACK, ERR_DEADLINE,
    ERR_OVERLOADED, ERR_SHUTTING_DOWN,
};
pub use reload::{
    attempt_reload, attempt_reload_with, spawn_watcher, spawn_watcher_with_breaker, BreakerConfig,
    ManualTrigger, PollTrigger, ReloadAttempt, ReloadBreaker, ReloadTrigger,
};
pub use stats::{ServeReloadBackoffSample, ServeReloadSample, ServeShedKind, ServeStats};
