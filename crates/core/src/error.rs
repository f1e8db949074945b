//! The typed PAMI error surface — the simulation's `pami_result_t`.
//!
//! Real PAMI reports every operation's outcome as a `pami_result_t`
//! (`PAMI_SUCCESS`, `PAMI_INVAL`, `PAMI_ERROR`, …) and delivers
//! asynchronous failures to completion callbacks through the `result`
//! argument of `pami_event_function`. The simulation mirrors both halves:
//!
//! * **Initiation errors** — bad arguments, unknown endpoints/windows,
//!   over-long immediates, a one-sided access that would run past the end
//!   of its window or of its local slot, a `send` or `put` whose
//!   `PayloadSource::Region` runs past its region — return
//!   `Err(PamiError)` from the initiating call ([`crate::Context::send`],
//!   [`crate::Context::send_with`], [`crate::Context::send_immediate`],
//!   [`crate::Context::put`],
//!   [`crate::Context::get`], [`crate::Context::rmw`]) without touching
//!   the network.
//! * **Delivery errors** — a reliability-layer channel dying after its
//!   retry budget, an unreachable destination after link failures — fail
//!   the transfer's completion [`bgq_hw::Counter`] with a
//!   [`DeliveryFault`], which surfaces to completion callbacks as
//!   `Err(PamiError::Timeout)` / `Err(PamiError::Unreachable)` instead of
//!   a hang.
//!
//! Programmer-contract violations (registering an endpoint twice, a
//! handler returning `Recv::Done` for a partial payload) remain panics:
//! they are bugs in the caller, not runtime conditions a correct program
//! can encounter and handle.

use bgq_hw::DeliveryFault;

/// Everything a PAMI operation can report, mirroring `pami_result_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PamiError {
    /// `PAMI_INVAL`: an argument violates the call's contract in a way a
    /// correct program may probe for (reserved dispatch id, a one-sided
    /// offset outside its window, …).
    Invalid(&'static str),
    /// The payload exceeds what the operation can carry (`send_immediate`
    /// beyond one packet). Callers fall back to [`crate::Context::send`].
    TooLong {
        /// Offered payload length.
        len: usize,
        /// The operation's ceiling.
        max: usize,
    },
    /// The destination endpoint was never created — `PAMI_ERROR` at
    /// initiation time.
    UnknownEndpoint {
        /// Destination task.
        task: u32,
        /// Destination context offset.
        context: u16,
    },
    /// A one-sided operation addressed a window key that does not resolve
    /// (never created, or already destroyed).
    UnknownWindow(u64),
    /// No active-message handler is registered for this dispatch id on the
    /// receiving context.
    UnknownDispatch(u16),
    /// The reliability layer exhausted its retry budget: the link-level
    /// channel to the destination is dead (`PAMI_ERROR`, RAS class
    /// *timeout*).
    Timeout,
    /// Link failures disconnected the destination: no healthy route
    /// exists (RAS class *unreachable*).
    Unreachable,
    /// The payload failed its integrity check terminally (RAS class
    /// *corrupt*; transient CRC failures are retransmitted and never
    /// surface here).
    Corrupt,
    /// The transfer was administratively aborted.
    Aborted,
}

/// Result alias used across the PAMI surface — the simulation's
/// `pami_result_t` (`Ok(())` is `PAMI_SUCCESS`).
pub type PamiResult<T> = Result<T, PamiError>;

impl PamiError {
    /// The `pami_result_t` constant this error mirrors.
    pub fn code(&self) -> &'static str {
        match self {
            PamiError::Invalid(_) => "PAMI_INVAL",
            PamiError::TooLong { .. } => "PAMI_INVAL",
            PamiError::UnknownEndpoint { .. } => "PAMI_INVAL",
            PamiError::UnknownWindow(_) => "PAMI_INVAL",
            PamiError::UnknownDispatch(_) => "PAMI_INVAL",
            PamiError::Timeout => "PAMI_ERROR",
            PamiError::Unreachable => "PAMI_ERROR",
            PamiError::Corrupt => "PAMI_ERROR",
            PamiError::Aborted => "PAMI_ERROR",
        }
    }

    /// Whether the error was produced by the delivery path (asynchronous,
    /// reported through completion callbacks) rather than rejected at
    /// initiation.
    pub fn is_delivery(&self) -> bool {
        matches!(
            self,
            PamiError::Timeout | PamiError::Unreachable | PamiError::Corrupt | PamiError::Aborted
        )
    }
}

impl From<DeliveryFault> for PamiError {
    fn from(f: DeliveryFault) -> Self {
        match f {
            DeliveryFault::Timeout => PamiError::Timeout,
            DeliveryFault::Unreachable => PamiError::Unreachable,
            DeliveryFault::Corrupt => PamiError::Corrupt,
            DeliveryFault::Aborted => PamiError::Aborted,
        }
    }
}

impl std::fmt::Display for PamiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PamiError::Invalid(what) => write!(f, "{}: {what}", self.code()),
            PamiError::TooLong { len, max } => {
                write!(f, "{}: payload of {len} bytes exceeds the {max}-byte limit", self.code())
            }
            PamiError::UnknownEndpoint { task, context } => write!(
                f,
                "{}: endpoint (task {task}, context {context}) not registered",
                self.code()
            ),
            PamiError::UnknownWindow(key) => {
                write!(f, "{}: window key {key} does not resolve", self.code())
            }
            PamiError::UnknownDispatch(id) => {
                write!(f, "{}: no handler registered for dispatch {id}", self.code())
            }
            PamiError::Timeout => {
                write!(f, "{}: retry budget exhausted, link channel dead", self.code())
            }
            PamiError::Unreachable => {
                write!(f, "{}: no healthy route to destination", self.code())
            }
            PamiError::Corrupt => write!(f, "{}: payload integrity failure", self.code()),
            PamiError::Aborted => write!(f, "{}: transfer aborted", self.code()),
        }
    }
}

impl std::error::Error for PamiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_mirror_pami_result_t() {
        assert_eq!(PamiError::Invalid("x").code(), "PAMI_INVAL");
        assert_eq!(PamiError::Timeout.code(), "PAMI_ERROR");
        assert_eq!(PamiError::TooLong { len: 600, max: 512 }.code(), "PAMI_INVAL");
    }

    #[test]
    fn delivery_faults_convert() {
        assert_eq!(PamiError::from(DeliveryFault::Timeout), PamiError::Timeout);
        assert_eq!(PamiError::from(DeliveryFault::Unreachable), PamiError::Unreachable);
        assert_eq!(PamiError::from(DeliveryFault::Corrupt), PamiError::Corrupt);
        assert_eq!(PamiError::from(DeliveryFault::Aborted), PamiError::Aborted);
        assert!(PamiError::Timeout.is_delivery());
        assert!(!PamiError::Invalid("x").is_delivery());
    }

    #[test]
    fn display_is_informative() {
        let s = PamiError::TooLong { len: 600, max: 512 }.to_string();
        assert!(s.contains("600") && s.contains("512"));
        assert!(PamiError::Timeout.to_string().contains("retry budget"));
    }
}
