//! Integration tests for the `pbds-sync` lock-order (would-be-deadlock)
//! checker: a deliberate ABBA interleaving must be caught deterministically
//! — with both lock names in the panic — and the lock-ordered re-run of the
//! same workload must pass. Also checks that hold-time counters surface
//! as `pbds_lock_*` gauges in the server's metrics snapshot.
//!
//! The ABBA and gauge tests are gated on `pbds::sync::tracking_enabled()`:
//! in a release build without the `lock-order` feature nothing is tracked
//! and the ABBA scenario would genuinely deadlock, so they skip themselves
//! there; the first test checks that the gate follows the build. CI runs
//! this suite in release with `--features lock-order` to cover the tracked
//! release configuration.

use std::sync::{Arc, Barrier};

use pbds::sync::{tracking_enabled, TrackedMutex};

/// Tracking is on exactly in debug builds and under `--features lock-order`.
/// The other tests here skip themselves when it is off, so without this
/// check a feature that stopped arming tracking would still pass them.
#[test]
fn tracking_follows_the_build_configuration() {
    assert_eq!(
        tracking_enabled(),
        cfg!(any(debug_assertions, feature = "lock-order"))
    );
}

/// The classic ABBA deadlock, forced deterministically with a barrier:
/// thread 1 establishes the order A → B and only then (barrier) does
/// thread 2 attempt B → A. The checker panics at thread 2's second
/// acquisition — before it would block — naming both lock classes.
#[test]
fn abba_interleaving_is_caught_deterministically_with_both_names() {
    if !tracking_enabled() {
        eprintln!("lock-order tracking off (release without feature); skipping");
        return;
    }
    let a = Arc::new(TrackedMutex::new("test.lockorder.abba.A", 0u32));
    let b = Arc::new(TrackedMutex::new("test.lockorder.abba.B", 0u32));
    let barrier = Arc::new(Barrier::new(2));

    let t1 = {
        let (a, b, barrier) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&barrier));
        std::thread::spawn(move || {
            {
                let _ga = a.lock();
                let _gb = b.lock(); // records the edge A → B
            }
            barrier.wait(); // only now may thread 2 try the reverse
        })
    };
    let t2 = {
        let (a, b, barrier) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&barrier));
        std::thread::spawn(move || {
            barrier.wait();
            let _gb = b.lock();
            let _ga = a.lock(); // would-be ABBA: must panic, not deadlock
        })
    };

    t1.join().expect("thread 1 uses the consistent order");
    let err = t2
        .join()
        .expect_err("thread 2's reverse acquisition must panic deterministically");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic payload>".to_string());
    assert!(msg.contains("lock-order violation"), "panic message: {msg}");
    assert!(
        msg.contains("test.lockorder.abba.A") && msg.contains("test.lockorder.abba.B"),
        "panic must name both lock classes: {msg}"
    );
}

/// The lock-ordered re-run of the same two-thread workload: both threads
/// acquire A then B, overlapping (barrier between first and second
/// acquisition), and nothing panics.
#[test]
fn lock_ordered_rerun_passes() {
    let a = Arc::new(TrackedMutex::new("test.lockorder.ordered.A", 0u32));
    let b = Arc::new(TrackedMutex::new("test.lockorder.ordered.B", 0u32));
    let barrier = Arc::new(Barrier::new(2));

    let threads: Vec<_> = (0..2)
        .map(|_| {
            let (a, b, barrier) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&barrier));
            std::thread::spawn(move || {
                for _ in 0..4 {
                    barrier.wait(); // race both threads into the same order
                    let mut ga = a.lock();
                    *ga += 1;
                    let mut gb = b.lock();
                    *gb += 1;
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("consistent A -> B order never panics");
    }
    assert_eq!(*a.lock(), 8);
    assert_eq!(*b.lock(), 8);
}

/// Hold-time counters from the migrated server lock sites surface as the
/// `pbds_lock_<class>_*` gauges of `metrics_snapshot()`.
#[test]
fn server_lock_holds_surface_as_snapshot_gauges() {
    use pbds::core::{Mutation, PbdsServer, ServerConfig};
    use pbds::storage::{DataType, Database, Schema, TableBuilder, Value};

    if !tracking_enabled() {
        eprintln!("lock-order tracking off (release without feature); skipping");
        return;
    }

    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    let mut b = TableBuilder::new("t", schema);
    b.push(vec![Value::Int(1), Value::Int(10)]);
    let mut db = Database::new();
    db.add_table(b.build());
    let server = PbdsServer::new(Arc::new(db), ServerConfig::default());
    server
        .apply_mutation(
            "t",
            Mutation::Append(vec![vec![Value::Int(2), Value::Int(20)]]),
        )
        .unwrap();
    server.drain();

    let snap = server.metrics_snapshot();
    let gauge = |name: String| {
        snap.gauge(&name)
            .unwrap_or_else(|| panic!("{name} missing from {:?}", snap.gauges.keys()))
    };
    for class in ["server_db", "server_mutation", "server_ticket"] {
        assert!(gauge(format!("pbds_lock_{class}_acquisitions")) > 0);
        assert!(
            gauge(format!("pbds_lock_{class}_held_nanos"))
                >= gauge(format!("pbds_lock_{class}_max_held_nanos"))
        );
    }
}
