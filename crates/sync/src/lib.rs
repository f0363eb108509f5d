//! # pbds-sync
//!
//! Instrumented synchronization primitives for the PBDS workspace: every
//! lock in `pbds-core` / `pbds-persist` is a [`TrackedMutex`] or
//! [`TrackedRwLock`] with a **static class name** (`"server.db"`,
//! `"catalog.shard"`, `"catalog.tables"`, …) instead of a bare `std::sync`
//! primitive. The wrappers buy three things:
//!
//! 1. **Poison recovery by construction.** [`TrackedMutex::lock`],
//!    [`TrackedRwLock::read`] and [`TrackedRwLock::write`] recover from a
//!    poisoned lock instead of returning a `Result`: a panic in one thread
//!    is contained by the server's panic fences, and honoring the poison
//!    flag would turn one contained panic into a permanently wedged
//!    subsystem. The workspace `clippy.toml` disallows the bare
//!    `std::sync::{Mutex, RwLock}` types in library crates, so every guard
//!    comes from here and there is no lock `Result` left to unwrap.
//!
//! 2. **Lock-order (would-be-deadlock) detection.** When tracking is on
//!    (any `debug_assertions` build, or a release build with the
//!    `lock-order` cargo feature), every acquisition records an edge
//!    *held-class → acquired-class* in a process-wide acquisition-order
//!    graph, in the style of the kernel's lockdep. Acquiring `"A"` while
//!    holding `"B"` after some thread ever acquired `"B"` while holding
//!    `"A"` panics **immediately and deterministically** — at the moment
//!    the inconsistent *order* is attempted, with both lock names and both
//!    acquisition contexts in the message — rather than leaving an ABBA
//!    deadlock to strike when two threads interleave just so.
//!
//! 3. **Hold-time accounting.** Per class, tracking counts acquisitions
//!    and total/max guard hold times ([`hold_stats`]); `pbds-core` surfaces
//!    them as the `pbds_lock_<class>_*` gauges of its metrics snapshot.
//!
//! There is one implementation; only the recording depends on the build.
//! A lock keeps its class handle and a guard its hold record in arrays of
//! length `TRACKING as usize`, so without tracking both are empty and
//! zero-sized: a guard is the size of its std guard, and taking a lock
//! touches no graph, clock or thread-local. The only cost over a bare
//! `Mutex` is carrying a `&'static str` name.
//!
//! ## Granularity and known blind spots
//!
//! Ordering is tracked per **class** (name), not per instance, like
//! lockdep: the catalog's eight shards, one lock each over the records of
//! the templates hashed to it, share the class `"catalog.shard"`.
//! Consequences:
//!
//! * An order inconsistency between two *instances* of different classes
//!   is caught even when the particular instances could never deadlock —
//!   that is deliberate: the workspace discipline is a global class order.
//! * Acquisitions of a class while already holding the *same* class are
//!   not checked (sharded/sibling locks of one class are acquired in loops
//!   legitimately); same-class ABBA is out of scope.
//! * A `Condvar` wait keeps the waiting class on the thread's held stack
//!   and inside its hold time, which is conservative for ordering and
//!   makes hold times include waits.

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "these are the wrappers every other crate must use instead of the std locks"
)]

use pbds_telemetry::clock;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar as StdCondvar, Mutex as StdMutex, OnceLock, PoisonError, RwLock as StdRwLock,
};
use std::time::{Duration, Instant};

/// Whether this build tracks lock orders and hold times: every
/// `debug_assertions` build, and a release build with `lock-order`.
const TRACKING: bool = cfg!(any(debug_assertions, feature = "lock-order"));

/// Hold-time counters for one lock class, cumulative over the process
/// lifetime. Returned by [`hold_stats`]; all zeros are never reported (a
/// class appears once its first guard is dropped or taken).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockHoldStat {
    /// The lock class name given to `TrackedMutex::new` / `TrackedRwLock::new`.
    pub name: &'static str,
    /// Guards taken (read and write acquisitions both count).
    pub acquisitions: u64,
    /// Total wall-clock time guards of this class were held (including
    /// condvar waits while parked on the class's mutex).
    pub total_held: Duration,
    /// Longest single hold.
    pub max_held: Duration,
}

/// One lock class: identity in the order graph plus hold counters.
struct ClassInfo {
    id: usize,
    name: &'static str,
    acquisitions: AtomicU64,
    total_held_nanos: AtomicU64,
    max_held_nanos: AtomicU64,
}

/// The process-wide acquisition-order graph. `edges[a]` containing `b`
/// means: some thread acquired class `b` while holding class `a`.
/// `contexts[(a, b)]` describes the first time that happened.
#[derive(Default)]
struct Graph {
    edges: HashMap<usize, HashSet<usize>>,
    contexts: HashMap<(usize, usize), String>,
}

struct Registry {
    classes: StdMutex<HashMap<&'static str, Arc<ClassInfo>>>,
    graph: StdMutex<Graph>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        classes: StdMutex::new(HashMap::new()),
        graph: StdMutex::new(Graph::default()),
    })
}

fn class_for(name: &'static str) -> Arc<ClassInfo> {
    let mut classes = registry()
        .classes
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let next_id = classes.len();
    Arc::clone(classes.entry(name).or_insert_with(|| {
        Arc::new(ClassInfo {
            id: next_id,
            name,
            acquisitions: AtomicU64::new(0),
            total_held_nanos: AtomicU64::new(0),
            max_held_nanos: AtomicU64::new(0),
        })
    }))
}

thread_local! {
    /// Class ids of the locks this thread currently holds, in
    /// acquisition order (duplicates possible for same-class guards).
    static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// True iff `to` is reachable from `from` over recorded edges.
fn reachable(graph: &Graph, from: usize, to: usize) -> bool {
    let mut stack = vec![from];
    let mut seen = HashSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = graph.edges.get(&n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// Record `held → acquiring` edges and panic on a would-be cycle.
/// Runs *before* blocking on the real lock, so an inconsistent order is
/// reported even when the other thread is currently parked on ours.
fn check_order(acquiring: &ClassInfo, held_names: &[&'static str], held_ids: &[usize]) {
    let unique: HashSet<usize> = held_ids
        .iter()
        .copied()
        .filter(|&h| h != acquiring.id)
        .collect();
    if unique.is_empty() {
        return;
    }
    let mut graph = registry()
        .graph
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    for h in unique {
        if graph
            .edges
            .get(&h)
            .is_some_and(|next| next.contains(&acquiring.id))
        {
            continue; // edge already known consistent
        }
        // A new edge h → acquiring closes a cycle iff `h` is already
        // reachable *from* `acquiring`.
        if reachable(&graph, acquiring.id, h) {
            let held_name = registry()
                .classes
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .values()
                .find(|c| c.id == h)
                .map(|c| c.name)
                .unwrap_or("?");
            let prior = graph
                .contexts
                .get(&(acquiring.id, h))
                .cloned()
                .unwrap_or_else(|| {
                    format!(
                        "\"{held_name}\" was earlier ordered after \"{}\"",
                        acquiring.name
                    )
                });
            panic!(
                "pbds-sync lock-order violation (would-be deadlock): this \
                 thread is acquiring \"{}\" while holding {:?}, but the \
                 reverse order was established before: {}",
                acquiring.name, held_names, prior
            );
        }
        graph.edges.entry(h).or_default().insert(acquiring.id);
        graph.contexts.insert(
            (h, acquiring.id),
            format!(
                "\"{}\" was acquired while holding {:?}",
                acquiring.name, held_names
            ),
        );
    }
}

/// RAII bookkeeping for one held guard: pops the held stack and records
/// hold time on drop. Declared *after* the inner std guard in every
/// wrapper, so the real lock is released first.
struct Hold {
    class: Arc<ClassInfo>,
    since: Instant,
}

impl Hold {
    fn acquire(class: &Arc<ClassInfo>) -> Hold {
        let (names, ids) = HELD
            .try_with(|held| {
                let held = held.borrow();
                let classes = registry()
                    .classes
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let names: Vec<&'static str> = held
                    .iter()
                    .map(|&id| {
                        classes
                            .values()
                            .find(|c| c.id == id)
                            .map(|c| c.name)
                            .unwrap_or("?")
                    })
                    .collect();
                (names, held.clone())
            })
            .unwrap_or_default();
        check_order(class, &names, &ids);
        class.acquisitions.fetch_add(1, Ordering::Relaxed);
        let _ = HELD.try_with(|held| held.borrow_mut().push(class.id));
        Hold {
            class: Arc::clone(class),
            since: clock::now(),
        }
    }
}

impl Drop for Hold {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.class
            .total_held_nanos
            .fetch_add(nanos, Ordering::Relaxed);
        self.class
            .max_held_nanos
            .fetch_max(nanos, Ordering::Relaxed);
        let id = self.class.id;
        // Guards may drop out of LIFO order; remove *this* class's most
        // recent entry. The thread-local may already be torn down during
        // thread exit — then there is nothing left to pop.
        let _ = HELD.try_with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&h| h == id) {
                held.remove(pos);
            }
        });
    }
}

/// A guard's hold record: one [`Hold`] when tracking; otherwise empty,
/// zero-sized and without drop glue.
type Holds = [Hold; TRACKING as usize];

/// A lock's class: its name and, when tracking, its registry entry,
/// resolved on the first acquisition.
struct LockClass {
    name: &'static str,
    info: [OnceLock<Arc<ClassInfo>>; TRACKING as usize],
}

impl LockClass {
    fn new(name: &'static str) -> Self {
        LockClass {
            name,
            info: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Order-check and start timing one acquisition. Without tracking the
    /// array is empty, so this does nothing.
    #[inline]
    fn hold(&self) -> Holds {
        self.info
            .each_ref()
            .map(|info| Hold::acquire(info.get_or_init(|| class_for(self.name))))
    }
}

/// A named mutex whose acquisitions are lock-order-checked and timed when
/// tracking is on.
pub struct TrackedMutex<T> {
    class: LockClass,
    inner: StdMutex<T>,
}

impl<T> TrackedMutex<T> {
    /// A new mutex belonging to lock class `name`.
    pub fn new(name: &'static str, value: T) -> Self {
        TrackedMutex {
            class: LockClass::new(name),
            inner: StdMutex::new(value),
        }
    }

    /// Acquire, recovering from poisoning. When tracking, panics (instead
    /// of deadlocking later) when the acquisition order is inconsistent
    /// with an order any thread used before.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let hold = self.class.hold();
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _hold: hold }
    }

    /// The lock class name.
    pub fn name(&self) -> &'static str {
        self.class.name
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("name", &self.class.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard of a [`TrackedMutex`]. Field order matters: the inner guard
/// drops (releasing the lock) before the hold bookkeeping runs.
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    _hold: Holds,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A named reader-writer lock; read and write acquisitions share the
/// class for ordering purposes (conservative).
pub struct TrackedRwLock<T> {
    class: LockClass,
    inner: StdRwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// A new rwlock belonging to lock class `name`.
    pub fn new(name: &'static str, value: T) -> Self {
        TrackedRwLock {
            class: LockClass::new(name),
            inner: StdRwLock::new(value),
        }
    }

    /// Acquire shared, recovering from poisoning; order-checked.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let hold = self.class.hold();
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard { inner, _hold: hold }
    }

    /// Acquire exclusive, recovering from poisoning; order-checked.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let hold = self.class.hold();
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard { inner, _hold: hold }
    }

    /// The lock class name.
    pub fn name(&self) -> &'static str {
        self.class.name
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedRwLock")
            .field("name", &self.class.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard of a [`TrackedRwLock`].
pub struct RwLockReadGuard<'a, T> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _hold: Holds,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard of a [`TrackedRwLock`].
pub struct RwLockWriteGuard<'a, T> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _hold: Holds,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Condition variable usable with [`MutexGuard`]. Waiting keeps the
/// class on the held stack (the mutex is reacquired before `wait`
/// returns) and inside the guard's hold time.
#[derive(Debug, Default)]
pub struct TrackedCondvar {
    inner: StdCondvar,
}

impl TrackedCondvar {
    /// A new condition variable.
    pub fn new() -> Self {
        TrackedCondvar::default()
    }

    /// Wait, recovering from poisoning.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { inner, _hold } = guard;
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner, _hold }
    }

    /// Wait until `condition` returns false, recovering from poisoning.
    pub fn wait_while<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        while condition(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Whether this build tracks lock orders and hold times.
pub fn tracking_enabled() -> bool {
    TRACKING
}

/// Per-class hold counters, sorted by class name; always empty without
/// tracking, because no class is ever registered.
pub fn hold_stats() -> Vec<LockHoldStat> {
    let classes = registry()
        .classes
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let mut stats: Vec<LockHoldStat> = classes
        .values()
        .map(|c| LockHoldStat {
            name: c.name,
            acquisitions: c.acquisitions.load(Ordering::Relaxed),
            total_held: Duration::from_nanos(c.total_held_nanos.load(Ordering::Relaxed)),
            max_held: Duration::from_nanos(c.max_held_nanos.load(Ordering::Relaxed)),
        })
        .filter(|s| s.acquisitions > 0)
        .collect();
    stats.sort_by_key(|s| s.name);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_read_write_roundtrip() {
        let m = TrackedMutex::new("test.sync.m", 1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.name(), "test.sync.m");
        let rw = TrackedRwLock::new("test.sync.rw", vec![1, 2]);
        assert_eq!(rw.read().len(), 2);
        rw.write().push(3);
        assert_eq!(rw.read().len(), 3);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(TrackedMutex::new("test.sync.poison", 7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // Must not panic or deadlock: the value is still reachable.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wait_while_works() {
        let pair = Arc::new((
            TrackedMutex::new("test.sync.cv", false),
            TrackedCondvar::new(),
        ));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let g = cv.wait_while(m.lock(), |ready| !*ready);
        assert!(*g);
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn untracked_guards_are_the_size_of_std_guards() {
        use std::mem::size_of;
        if tracking_enabled() {
            return;
        }
        assert_eq!(
            size_of::<MutexGuard<'_, u64>>(),
            size_of::<std::sync::MutexGuard<'_, u64>>()
        );
        assert_eq!(
            size_of::<RwLockReadGuard<'_, u64>>(),
            size_of::<std::sync::RwLockReadGuard<'_, u64>>()
        );
        assert_eq!(
            size_of::<RwLockWriteGuard<'_, u64>>(),
            size_of::<std::sync::RwLockWriteGuard<'_, u64>>()
        );
    }

    #[test]
    fn consistent_order_never_panics() {
        if !tracking_enabled() {
            return;
        }
        let a = TrackedMutex::new("test.sync.ord.a", ());
        let b = TrackedMutex::new("test.sync.ord.b", ());
        for _ in 0..3 {
            let ga = a.lock();
            let gb = b.lock();
            drop(gb);
            drop(ga);
        }
    }

    #[test]
    fn abba_order_is_reported_with_both_names() {
        if !tracking_enabled() {
            return;
        }
        let a = Arc::new(TrackedMutex::new("test.sync.abba.A", ()));
        let b = Arc::new(TrackedMutex::new("test.sync.abba.B", ()));
        // Establish A → B on this thread.
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        // The reverse order on another thread must panic at acquisition
        // time — deterministically, with no interleaving required.
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let err = std::thread::spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock(); // would-be ABBA
        })
        .join()
        .expect_err("reverse order must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("test.sync.abba.A"), "message: {msg}");
        assert!(msg.contains("test.sync.abba.B"), "message: {msg}");
        assert!(msg.contains("lock-order violation"), "message: {msg}");
    }

    #[test]
    fn hold_stats_count_acquisitions() {
        let m = TrackedMutex::new("test.sync.stats", ());
        drop(m.lock());
        drop(m.lock());
        let stats = hold_stats();
        if tracking_enabled() {
            let s = stats
                .iter()
                .find(|s| s.name == "test.sync.stats")
                .expect("class reported");
            assert!(s.acquisitions >= 2);
            assert!(s.total_held >= s.max_held);
        } else {
            assert!(stats.is_empty());
        }
    }
}
