//! Single-flight memos: each key is computed once, at any worker count.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// One key's value: empty until the first lookup of the key fills it.
/// Clones share the value.
pub struct Slot<V>(Arc<OnceLock<V>>);

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Slot(Arc::default())
    }
}

impl<V> Clone for Slot<V> {
    fn clone(&self) -> Self {
        Slot(Arc::clone(&self.0))
    }
}

impl<V> Slot<V> {
    /// The slot's value, computed by `compute` unless a call has filled
    /// the slot already. A call that races the one computing waits for
    /// its value; its own `compute` runs only if that one panicked.
    pub fn get_or_init(&self, compute: impl FnOnce() -> V) -> &V {
        self.0.get_or_init(compute)
    }
}

/// A map that computes each key's value once, at any worker count.
///
/// Each key maps to a [`Slot`]. The first lookup of a key stores an
/// empty slot under the map's lock and computes the value outside it;
/// lookups that race it wait for that value and count as hits. So what
/// a memo stores, and how many lookups hit, depend only on the keys
/// looked up, not on their order or on how many threads share the memo.
/// A memo of `Result`s keeps its errors like any value. A memo has no
/// cap: its owner bounds the keys it looks up, and a memo that must
/// evict keeps the same [`Slot`]s in a map of its own.
///
/// # Examples
///
/// ```
/// use imagen_obs::Memo;
///
/// let memo: Memo<String, usize> = Memo::new();
/// assert_eq!(memo.get_or_compute("ab", || 2), (2, false));
/// assert_eq!(memo.get_or_compute("ab", || unreachable!()), (2, true));
/// assert_eq!(memo.len(), 1);
/// ```
pub struct Memo<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            slots: Mutex::default(),
        }
    }
}

impl<K, V> fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo").field("len", &self.len()).finish()
    }
}

impl<K, V> Memo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        Memo::default()
    }

    /// Keys stored so far, those still being computed included.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no key is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stored values that satisfy `pred`, keys still being computed left
    /// out.
    pub fn count(&self, mut pred: impl FnMut(&V) -> bool) -> usize {
        let slots = self.lock();
        slots
            .values()
            .filter(|s| s.0.get().is_some_and(&mut pred))
            .count()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<K, Slot<V>>> {
        // Values are computed outside the lock, so only a panicking key
        // hash or comparison can poison it.
        self.slots.lock().expect("memo poisoned")
    }
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// The value of `key`, and whether the lookup hit: the value stored
    /// under it, or, on the key's first lookup, `compute`'s, stored.
    /// `compute` runs outside the memo's lock, and lookups of the key
    /// that race it wait for its value and hit. A hit takes one lock and
    /// one hash and allocates nothing; a miss stores `key.to_owned()`.
    pub fn get_or_compute<Q>(&self, key: &Q, compute: impl FnOnce() -> V) -> (V, bool)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let (slot, hit) = {
            let mut slots = self.lock();
            match slots.get(key) {
                Some(slot) => (slot.clone(), true),
                None => {
                    let slot = Slot::default();
                    slots.insert(key.to_owned(), slot.clone());
                    (slot, false)
                }
            }
        };
        (slot.get_or_init(compute).clone(), hit)
    }

    /// Like [`get_or_compute`](Self::get_or_compute), except that a key
    /// not stored yet is computed and not stored: for lookups that are
    /// not expected to repeat.
    pub fn get_or_compute_transient<Q>(&self, key: &Q, compute: impl FnOnce() -> V) -> (V, bool)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = self.lock().get(key).cloned();
        match slot {
            Some(slot) => (slot.get_or_init(compute).clone(), true),
            None => (compute(), false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Threads released together on one key: the value is computed once,
    /// one lookup misses and every other one waits and hits.
    #[test]
    fn racing_lookups_compute_a_key_once() {
        const THREADS: usize = 8;
        for _ in 0..20 {
            let memo: Memo<u32, Result<u64, String>> = Memo::new();
            let runs = AtomicUsize::new(0);
            let barrier = Barrier::new(THREADS);
            let lookups: Vec<_> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            memo.get_or_compute(&7, || {
                                runs.fetch_add(1, Ordering::Relaxed);
                                Err("no plan".to_string())
                            })
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("lookup thread"))
                    .collect()
            });
            assert_eq!(runs.load(Ordering::Relaxed), 1, "computed once");
            let misses = lookups.iter().filter(|(_, hit)| !hit).count();
            assert_eq!(misses, 1, "one lookup misses, the rest hit");
            for (value, _) in &lookups {
                assert_eq!(
                    value,
                    &Err("no plan".to_string()),
                    "every waiter sees the error"
                );
            }
            assert_eq!(memo.len(), 1);
            assert_eq!(
                memo.get_or_compute(&7, || unreachable!("the error stays stored")),
                (Err("no plan".to_string()), true)
            );
        }
    }

    #[test]
    fn transient_lookups_read_but_never_store() {
        let memo: Memo<Vec<u64>, u64> = Memo::new();
        assert_eq!(memo.get_or_compute_transient(&[1, 2][..], || 3), (3, false));
        assert!(memo.is_empty());
        assert_eq!(memo.get_or_compute(&[1, 2][..], || 4), (4, false));
        assert_eq!(memo.get_or_compute_transient(&[1, 2][..], || 5), (4, true));
        assert_eq!(memo.count(|&v| v == 4), 1);
        assert_eq!(memo.count(|&v| v == 5), 0);
    }
}
