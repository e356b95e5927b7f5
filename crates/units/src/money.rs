//! Economic quantities: money and spot-capacity prices.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::{SlotDuration, Watts};

/// An amount of money in US dollars.
///
/// `Money` carries operator revenue/profit, tenant payments and the
/// dollar-denominated performance costs of Section IV-C of the paper.
/// Negative amounts are meaningful (a *gain* is a negative cost delta),
/// so no sign restriction is imposed.
///
/// # Examples
///
/// ```
/// use spotdc_units::Money;
///
/// let revenue = Money::dollars(12.5) + Money::cents(50.0);
/// assert_eq!(revenue, Money::dollars(13.0));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Money(f64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0.0);

    /// Creates an amount from dollars.
    #[must_use]
    pub const fn dollars(usd: f64) -> Self {
        Money(usd)
    }

    /// Creates an amount from cents.
    #[must_use]
    pub fn cents(cents: f64) -> Self {
        Money(cents / 100.0)
    }

    /// The amount in dollars.
    #[must_use]
    pub const fn usd(self) -> f64 {
        self.0
    }

    /// Returns `true` if this amount is strictly negative.
    #[must_use]
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }

    /// The larger of two amounts.
    #[must_use]
    pub fn max(self, other: Money) -> Self {
        Money(self.0.max(other.0))
    }

    /// The smaller of two amounts.
    #[must_use]
    pub fn min(self, other: Money) -> Self {
        Money(self.0.min(other.0))
    }

    /// Replaces negative amounts with zero.
    #[must_use]
    pub fn clamp_non_negative(self) -> Self {
        if self.0 < 0.0 {
            Money::ZERO
        } else {
            self
        }
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(2);
        if self.0 < 0.0 {
            write!(f, "-${:.*}", prec, -self.0)
        } else {
            write!(f, "${:.*}", prec, self.0)
        }
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        self.0 -= rhs.0;
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<f64> for Money {
    type Output = Money;
    fn mul(self, rhs: f64) -> Money {
        Money(self.0 * rhs)
    }
}

impl Mul<Money> for f64 {
    type Output = Money;
    fn mul(self, rhs: Money) -> Money {
        Money(self * rhs.0)
    }
}

impl Div<f64> for Money {
    type Output = Money;
    fn div(self, rhs: f64) -> Money {
        Money(self.0 / rhs)
    }
}

impl Div<Money> for Money {
    /// Dividing two amounts yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: Money) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        Money(iter.map(|m| m.0).sum())
    }
}

impl<'a> Sum<&'a Money> for Money {
    fn sum<I: Iterator<Item = &'a Money>>(iter: I) -> Money {
        Money(iter.map(|m| m.0).sum())
    }
}

/// A spot-capacity price in US dollars per kilowatt per hour.
///
/// The paper quotes prices "with a unit of $/kW per time slot"; since slot
/// lengths vary (1–5 minutes), this crate normalizes prices to a per-hour
/// basis and converts with an explicit [`SlotDuration`], so that a price
/// keeps its meaning when the slot length changes. For scale: the
/// amortized guaranteed-capacity rate of US$120–250/kW/month is roughly
/// $0.17–0.35/kW/h, the natural ceiling for opportunistic bids.
///
/// # Examples
///
/// ```
/// use spotdc_units::{Price, SlotDuration, Watts};
///
/// let q = Price::per_kw_hour(0.20);
/// let slot = SlotDuration::from_secs(120); // 2-minute slot
/// // 150 W for one 2-minute slot:
/// let pay = q.cost_of(Watts::new(150.0), slot);
/// assert!((pay.usd() - 0.20 * 0.150 / 30.0).abs() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Price(f64);

impl Price {
    /// A price of zero (spot capacity given away for free).
    pub const ZERO: Price = Price(0.0);

    /// Creates a price from dollars per kilowatt per hour.
    #[must_use]
    pub const fn per_kw_hour(usd_per_kw_hour: f64) -> Self {
        Price(usd_per_kw_hour)
    }

    /// Creates a price from cents per kilowatt per hour.
    ///
    /// This is the unit in which the paper quotes clearing-search step
    /// sizes (0.1–1 ¢/kW).
    #[must_use]
    pub fn cents_per_kw_hour(cents: f64) -> Self {
        Price(cents / 100.0)
    }

    /// Converts a monthly guaranteed-capacity rate (US$/kW/month, the
    /// US$120–250 figure from the paper) to its amortized hourly price.
    ///
    /// # Examples
    ///
    /// ```
    /// # use spotdc_units::Price;
    /// let p = Price::from_monthly_rate(144.0);
    /// assert!((p.per_kw_hour_value() - 0.2).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn from_monthly_rate(usd_per_kw_month: f64) -> Self {
        // 30-day month, the convention used for colo capacity billing.
        Price(usd_per_kw_month / (30.0 * 24.0))
    }

    /// The raw value in $/kW/h.
    #[must_use]
    pub const fn per_kw_hour_value(self) -> f64 {
        self.0
    }

    /// The payment for holding `power` of spot capacity for `duration`.
    #[must_use]
    pub fn cost_of(self, power: Watts, duration: SlotDuration) -> Money {
        Money(self.0 * power.kilowatts() * duration.hours())
    }

    /// The larger of two prices.
    #[must_use]
    pub fn max(self, other: Price) -> Self {
        Price(self.0.max(other.0))
    }

    /// The smaller of two prices.
    #[must_use]
    pub fn min(self, other: Price) -> Self {
        Price(self.0.min(other.0))
    }

    /// Returns `true` if this price is a finite, non-negative number.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }
}

impl fmt::Display for Price {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = f.precision().unwrap_or(4);
        write!(f, "${:.*}/kW/h", prec, self.0)
    }
}

impl Add for Price {
    type Output = Price;
    fn add(self, rhs: Price) -> Price {
        Price(self.0 + rhs.0)
    }
}

impl Sub for Price {
    type Output = Price;
    fn sub(self, rhs: Price) -> Price {
        Price(self.0 - rhs.0)
    }
}

impl Mul<f64> for Price {
    type Output = Price;
    fn mul(self, rhs: f64) -> Price {
        Price(self.0 * rhs)
    }
}

impl Div<f64> for Price {
    type Output = Price;
    fn div(self, rhs: f64) -> Price {
        Price(self.0 / rhs)
    }
}

impl Div<Price> for Price {
    /// Dividing two prices yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: Price) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn money_constructors_agree() {
        assert_eq!(Money::dollars(1.0), Money::cents(100.0));
        assert_eq!(Money::dollars(0.0), Money::ZERO);
    }

    #[test]
    fn money_arithmetic() {
        let a = Money::dollars(10.0);
        let b = Money::dollars(4.0);
        assert_eq!(a + b, Money::dollars(14.0));
        assert_eq!(a - b, Money::dollars(6.0));
        assert_eq!(-b, Money::dollars(-4.0));
        assert_eq!(a * 0.5, Money::dollars(5.0));
        assert_eq!(a / 2.0, Money::dollars(5.0));
        assert_eq!(a / b, 2.5);
        let total: Money = [a, b].into_iter().sum();
        assert_eq!(total, Money::dollars(14.0));
    }

    #[test]
    fn money_display_handles_sign() {
        assert_eq!(format!("{}", Money::dollars(3.5)), "$3.50");
        assert_eq!(format!("{}", Money::dollars(-3.5)), "-$3.50");
        assert_eq!(format!("{:.0}", Money::dollars(12.0)), "$12");
    }

    #[test]
    fn price_cost_of_scales_with_power_and_time() {
        let q = Price::per_kw_hour(0.30);
        let hour = SlotDuration::from_secs(3600);
        assert_eq!(
            q.cost_of(Watts::from_kilowatts(2.0), hour),
            Money::dollars(0.6)
        );
        let half = SlotDuration::from_secs(1800);
        assert_eq!(
            q.cost_of(Watts::from_kilowatts(2.0), half),
            Money::dollars(0.3)
        );
    }

    #[test]
    fn price_unit_conversions() {
        let q = Price::cents_per_kw_hour(25.0);
        assert!((q.per_kw_hour_value() - 0.25).abs() < 1e-12);
        let monthly = Price::from_monthly_rate(216.0);
        assert!((monthly.per_kw_hour_value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn price_validity() {
        assert!(Price::per_kw_hour(0.0).is_valid());
        assert!(Price::per_kw_hour(1.0).is_valid());
        assert!(!Price::per_kw_hour(-0.1).is_valid());
        assert!(!Price::per_kw_hour(f64::NAN).is_valid());
    }

    #[test]
    fn money_clamp_and_extrema() {
        assert_eq!(Money::dollars(-2.0).clamp_non_negative(), Money::ZERO);
        assert_eq!(
            Money::dollars(1.0).max(Money::dollars(2.0)),
            Money::dollars(2.0)
        );
        assert_eq!(
            Money::dollars(1.0).min(Money::dollars(2.0)),
            Money::dollars(1.0)
        );
    }
}
