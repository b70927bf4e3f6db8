//! Which engine a migration job was enqueued for: the device's bookkeeping
//! beside the migration engine's queues.

use std::collections::VecDeque;

/// Why a migration job exists, and so what finishing, cancelling or
/// rolling it back has to settle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobOrigin {
    /// A power-down (or retirement) drain copy, counted in drain group
    /// `group`.
    Drain { group: u32 },
    /// A hotness consolidation move planned on `channel`.
    Hotness { channel: u32 },
}

/// The origins of the live migration jobs, keyed by job id.
///
/// The migration engine hands out ids counting up from zero and a job
/// lives for a few ticks, so the live ids sit in a narrow window below the
/// newest one: a deque indexed by `id - base`, whose front is dropped as
/// the oldest jobs go. Every migrated segment costs one insert and one
/// remove; as a hash map those two were 6–7 % of `grid_schedule`.
#[derive(Debug, Default)]
pub(crate) struct JobOrigins {
    /// Id of `window[0]`.
    base: u64,
    /// `None`: no such job, or one without an origin. Never starts with
    /// `None`.
    window: VecDeque<Option<JobOrigin>>,
}

impl JobOrigins {
    fn index(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// Records (or replaces) the origin of job `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is older than every live job's: ids only grow.
    pub(crate) fn insert(&mut self, id: u64, origin: JobOrigin) {
        if self.window.is_empty() {
            self.base = id;
        }
        let i = self.index(id).expect("migration job ids only grow");
        if i >= self.window.len() {
            self.window.resize(i + 1, None);
        }
        self.window[i] = Some(origin);
    }

    /// The origin of job `id`, if it has one.
    pub(crate) fn get(&self, id: u64) -> Option<JobOrigin> {
        *self.window.get(self.index(id)?)?
    }

    /// The origins of the live jobs, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = JobOrigin> + '_ {
        self.window.iter().flatten().copied()
    }

    /// Forgets job `id`, returning the origin it had.
    pub(crate) fn remove(&mut self, id: u64) -> Option<JobOrigin> {
        let i = self.index(id)?;
        let origin = self.window.get_mut(i)?.take();
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.base += 1;
        }
        origin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const DRAIN: JobOrigin = JobOrigin::Drain { group: 3 };

    #[test]
    fn window_follows_the_live_ids() {
        let mut o = JobOrigins::default();
        assert_eq!(o.get(0), None);
        assert_eq!(o.remove(7), None);
        // The first id need not be 0, and ids may skip.
        o.insert(5, DRAIN);
        o.insert(8, JobOrigin::Hotness { channel: 2 });
        assert_eq!((o.base, o.window.len()), (5, 4));
        assert_eq!(o.get(4), None);
        assert_eq!(o.get(5), Some(DRAIN));
        assert_eq!(o.get(6), None);
        assert_eq!(o.get(8), Some(JobOrigin::Hotness { channel: 2 }));
        assert_eq!(o.get(9), None);
        // Removing the oldest drops it and the gap behind it.
        assert_eq!(o.remove(5), Some(DRAIN));
        assert_eq!((o.base, o.window.len()), (8, 1));
        assert_eq!(o.remove(5), None, "already gone");
        // Removing from the middle leaves the window alone.
        o.insert(9, DRAIN);
        o.insert(10, DRAIN);
        assert_eq!(o.remove(9), Some(DRAIN));
        assert_eq!((o.base, o.window.len()), (8, 3));
        assert_eq!(o.remove(8), Some(JobOrigin::Hotness { channel: 2 }));
        assert_eq!((o.base, o.window.len()), (10, 1));
        assert_eq!(o.remove(10), Some(DRAIN));
        assert!(o.window.is_empty());
        // An emptied window restarts wherever the next id is.
        o.insert(40, DRAIN);
        assert_eq!((o.base, o.get(40)), (40, Some(DRAIN)));
    }

    #[test]
    #[should_panic(expected = "ids only grow")]
    fn an_id_below_the_window_is_a_bug() {
        let mut o = JobOrigins::default();
        o.insert(5, DRAIN);
        o.insert(4, DRAIN);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The window and the hash map it replaced answer alike under the
        /// device's usage: fresh ids inserted in growing order (some
        /// skipped, some re-inserted while live), any id looked up or
        /// removed at any time.
        #[test]
        fn lockstep_with_the_hash_map_reference(
            ops in prop::collection::vec((0u8..4, 0u64..24, 0u32..3), 1..200),
        ) {
            let mut fast = JobOrigins::default();
            let mut model: HashMap<u64, JobOrigin> = HashMap::new();
            let mut next_id = 0u64;
            for (op, pick, channel) in ops {
                let origin = if channel == 0 { DRAIN } else { JobOrigin::Hotness { channel } };
                // An id near the newest: live, removed, or never inserted.
                let near = next_id.saturating_sub(pick);
                match op {
                    0 => {
                        next_id += pick % 3; // skip ids: jobs without an origin
                        fast.insert(next_id, origin);
                        model.insert(next_id, origin);
                        next_id += 1;
                    }
                    1 if model.contains_key(&near) => {
                        fast.insert(near, origin);
                        model.insert(near, origin);
                    }
                    2 => prop_assert_eq!(fast.remove(near), model.remove(&near)),
                    _ => prop_assert_eq!(fast.get(near), model.get(&near).copied()),
                }
                let live = fast.window.iter().flatten().count();
                prop_assert_eq!(live, model.len());
                prop_assert!(!matches!(fast.window.front(), Some(None)), "window starts with a gap");
                for id in 0..next_id + 2 {
                    prop_assert_eq!(fast.get(id), model.get(&id).copied(), "id {}", id);
                }
            }
        }
    }
}
