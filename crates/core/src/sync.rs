//! Swappable synchronisation primitives.
//!
//! Concurrency-bearing modules (`cloud`, and anything that grows
//! shared state later) import locks and atomics from here instead of
//! naming `parking_lot`/`std::sync` directly. Under the default cfg
//! that is exactly what they get; under `--cfg loom` the same names
//! resolve to the `loom` shim's instrumented wrappers, which inject
//! randomised scheduling noise at every acquisition and atomic op so
//! the model checks in `tests/loom.rs` explore many interleavings.
//!
//! Run the model checks with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p gradest-core --test loom
//! ```

#[cfg(not(loom))]
pub use parking_lot::{Mutex, RwLock};
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(loom)]
pub use loom::sync::{Mutex, RwLock};
