//! Host-side measurements and scratch space: peak RSS, report digests,
//! and a pid-keyed scratch directory that removes itself.

use std::path::{Path, PathBuf};

use spotdc_core::MarketOutcome;
use spotdc_sim::SimReport;

/// Where run artifacts go: `benchmark/out/`, inside the checkout (the
/// benchmark writes nowhere else) and git-ignored.
#[must_use]
pub fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_root`] for checkpoints, journals and
/// telemetry JSONL, keyed by pid so concurrent runs never share files.
/// Removed on drop — which unwinding reaches on the failure path too.
#[derive(Debug)]
pub struct OutDir(PathBuf);

impl OutDir {
    /// Creates `out/tmp-<pid>-<tag>/`, emptying any leftover.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn create(tag: &str) -> std::io::Result<OutDir> {
        let dir = out_root().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(OutDir(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
/// 0 where `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words: enough to compare two runs exactly.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    /// Folds a whole report in: every slot record bit for bit, plus the
    /// run-level counters.
    pub fn report(&mut self, report: &SimReport) {
        for r in &report.records {
            self.word(r.slot);
            self.float(r.price.unwrap_or(-1.0));
            self.float(r.spot_available);
            self.float(r.spot_sold);
            self.float(r.ups_power);
            r.pdu_power.iter().for_each(|&p| self.float(p));
            for t in &r.tenants {
                self.word(u64::from(t.wanted) | u64::from(t.slo_met == Some(true)) << 1);
                for f in [t.grant, t.draw, t.perf_index, t.cost_rate, t.payment] {
                    self.float(f);
                }
            }
        }
        for count in [
            report.emergencies,
            report.transient_overshoots,
            report.degraded_slots,
            report.invariant_violations,
            report.faults_injected,
        ] {
            self.word(count as u64);
        }
    }

    /// Folds one clearing outcome in: price, revenue and every grant.
    pub fn outcome(&mut self, outcome: &MarketOutcome) {
        self.float(outcome.price().per_kw_hour_value());
        self.float(outcome.revenue_rate());
        for (rack, grant) in outcome.allocation().iter() {
            self.word(rack.index() as u64);
            self.float(grant.value());
        }
    }

    /// The digest as printed (`sim_digest`).
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a sequence of reports (one per mode on `testbed-modes`).
#[must_use]
pub fn digest_reports<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> String {
    let mut d = Digest::default();
    reports.into_iter().for_each(|r| d.report(r));
    d.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dir_lives_under_the_package_and_removes_itself() {
        let kept;
        {
            let dir = OutDir::create("host-test").expect("create");
            kept = dir.path().to_path_buf();
            assert!(kept.starts_with(out_root()));
            std::fs::write(kept.join("f"), b"x").expect("write");
        }
        assert!(!kept.exists());
    }

    #[test]
    fn out_dir_is_removed_when_the_run_panics() {
        let kept = std::sync::Mutex::new(None);
        let result = std::panic::catch_unwind(|| {
            let dir = OutDir::create("host-panic").expect("create");
            *kept.lock().unwrap() = Some(dir.path().to_path_buf());
            panic!("simulated failure");
        });
        assert!(result.is_err());
        let path = kept.lock().unwrap().clone().expect("dir was created");
        assert!(!path.exists());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
