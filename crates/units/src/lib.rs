//! Strongly-typed physical and economic units for SpotDC.
//!
//! SpotDC mixes three families of quantities that are all "just numbers"
//! underneath and therefore dangerously easy to confuse:
//!
//! * **electrical** quantities — [`Watts`] of instantaneous power;
//! * **economic** quantities — [`Money`] (US dollars) and [`Price`]
//!   (dollars per kilowatt per hour of spot-capacity tenure);
//! * **temporal** quantities — [`Slot`] indices and the [`SlotDuration`]
//!   that converts between per-slot and per-hour figures.
//!
//! Every crate in the workspace builds on these newtypes so that, e.g., a
//! PDU capacity can never be accidentally added to a market price. The
//! types implement the arithmetic that is physically meaningful (power
//! adds; power × price × duration yields money) and nothing else.
//!
//! # Examples
//!
//! ```
//! use spotdc_units::{Watts, Price, SlotDuration};
//!
//! let allocated = Watts::new(120.0);
//! let price = Price::per_kw_hour(0.20); // $0.20 per kW per hour
//! let slot = SlotDuration::from_secs(120);
//! let payment = price.cost_of(allocated, slot);
//! assert!((payment.usd() - 0.20 * 0.120 * (120.0 / 3600.0)).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ids;
mod money;
mod power;
mod time;

pub use ids::{PduId, RackId, TenantId};
pub use money::{Money, Price};
pub use power::Watts;
pub use time::{MonotonicNanos, Slot, SlotDuration};
