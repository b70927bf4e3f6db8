//! **§3.4** — self-refresh exit and re-entry: after a self-refreshing
//! victim rank is woken by an access, most of its segments are still cold,
//! so re-entering self-refresh needs only a little migration.

use crate::HotnessRunConfig;

/// The paper-scale configuration (224 GB on 6 ranks).
pub fn paper(seed: u64) -> HotnessRunConfig {
    HotnessRunConfig::paper_scaled(seed, 6, 224.0 / 288.0)
}

/// The reduced-scale configuration used by `--tiny` runs.
pub fn tiny(seed: u64) -> HotnessRunConfig {
    HotnessRunConfig {
        allocated_fraction: 0.8,
        accesses: 2_000_000,
        ..HotnessRunConfig::tiny(seed, true)
    }
}

/// The re-entry study — a single sequential replay (the probe, wake, and
/// re-entry phases observe one device's evolving state, so there is no
/// independent unit decomposition).
pub use crate::run_reentry as run;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reentry_needs_less_migration_than_warmup() {
        let r = run(&tiny(5)).unwrap();
        assert!(r.sr_entries > 0, "the study needs at least one SR entry");
        assert!(
            r.reentry_migrations <= r.initial_migrations,
            "re-entry {} vs warmup {}",
            r.reentry_migrations,
            r.initial_migrations
        );
    }
}
