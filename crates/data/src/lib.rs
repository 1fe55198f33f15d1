//! Data-plane foundations for the TiLT reproduction.
//!
//! This crate defines the shared vocabulary every engine in the workspace
//! speaks:
//!
//! * [`Time`] / [`TimeRange`] — logical tick time and half-open `(start, end]`
//!   intervals;
//! * [`Value`] — dynamically typed payloads with the paper's φ (null)
//!   propagation semantics;
//! * [`Event`] — payload + validity interval, the event-centric view;
//! * [`SnapshotBuf`] — change-point encoded temporal objects (paper §6.1.1)
//!   in typed columns, the time-centric view, plus the [`SsCursor`] used by
//!   generated kernels;
//! * [`codec`] — the one byte layout of all of the above, shared by
//!   snapshot files and wire frames.
//!
//! # Example
//!
//! ```
//! use tilt_data::{Event, SnapshotBuf, Time, TimeRange, Value};
//!
//! let events = vec![
//!     Event::new(Time::new(0), Time::new(5), Value::Float(10.0)),
//!     Event::new(Time::new(5), Time::new(10), Value::Float(11.0)),
//! ];
//! let buf = SnapshotBuf::from_events(&events, TimeRange::new(Time::new(0), Time::new(10)));
//! assert_eq!(buf.value_at(Time::new(7)), Value::Float(11.0));
//! assert_eq!(buf.to_events().len(), 2);
//! ```

#![warn(missing_docs)]

pub mod codec;
mod event;
mod mask;
mod ssbuf;
mod time;
mod value;

pub use event::{
    coalesce, count_in_range, sort_stream, stream_extent, streams_close, streams_equivalent,
    validate_stream, values_close, Event,
};
pub use mask::{Live, NullMask};
pub use ssbuf::{BufPool, ColWriter, ColumnRef, SnapshotBuf, Span, SsCursor};
pub use time::{Time, TimeRange};
pub use value::Value;

/// Payloads storable in events and snapshot buffers.
///
/// A payload type designates one value as φ ("no event active") and defines
/// the identity relation used for snapshot coalescing. The trait is
/// implemented for [`Value`] (the dynamic payload the TiLT compiler executes
/// over) and for `f64` (NaN-as-φ, used by the specialized baseline engines).
pub trait Payload: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// The φ value of this payload type.
    fn null() -> Self;

    /// Whether this value is φ.
    fn is_null(&self) -> bool;

    /// Identity for coalescing: must be reflexive, symmetric, transitive, and
    /// must hold between any two φ values.
    fn same(&self, other: &Self) -> bool;
}

impl Payload for f64 {
    #[inline]
    fn null() -> Self {
        f64::NAN
    }

    #[inline]
    fn is_null(&self) -> bool {
        self.is_nan()
    }

    #[inline]
    fn same(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl Payload for i64 {
    #[inline]
    fn null() -> Self {
        i64::MIN
    }

    #[inline]
    fn is_null(&self) -> bool {
        *self == i64::MIN
    }

    #[inline]
    fn same(&self, other: &Self) -> bool {
        self == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_payload_uses_nan_as_null() {
        assert!(<f64 as Payload>::null().is_null());
        assert!(Payload::same(&f64::NAN, &f64::NAN));
        assert!(!Payload::same(&1.0, &2.0));
        assert!(Payload::same(&1.0, &1.0));
    }

    #[test]
    fn i64_payload_sentinel() {
        assert!(<i64 as Payload>::null().is_null());
        assert!(!5i64.is_null());
    }

    #[test]
    fn send_sync_for_core_types() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Value>();
        assert_send_sync::<SnapshotBuf<Value>>();
        assert_send_sync::<Event<Value>>();
        assert_send_sync::<Time>();
    }
}
