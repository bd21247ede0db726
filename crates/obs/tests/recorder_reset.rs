//! `reset()` coverage, in a process of its own: it asserts the counting
//! allocator's peak right after a fresh baseline, which an allocation by
//! any other test thread in between would break. So no other test runs
//! here.

// Installed for real, as in `recorder.rs` and the `amrviz` binary.
#[global_allocator]
static ALLOC: amrviz_obs::mem::CountingAlloc = amrviz_obs::mem::CountingAlloc;

#[test]
fn reset_clears_everything() {
    amrviz_obs::reset();
    amrviz_obs::enable();
    {
        let _sp = amrviz_obs::span!("temp");
        amrviz_obs::counter!("temp_counter", 1u64);
        amrviz_obs::histogram!("temp_hist", 42u64);
    }
    assert_eq!(amrviz_obs::histograms_snapshot().len(), 1);
    amrviz_obs::reset();
    amrviz_obs::disable();
    assert!(amrviz_obs::events_snapshot().is_empty());
    assert!(amrviz_obs::counters_snapshot().is_empty());
    assert!(amrviz_obs::histograms_snapshot().is_empty());
    // reset() also collapses the allocator's high-water mark: a fresh
    // baseline taken right after sees no residual peak.
    let base = amrviz_obs::mem::alloc_baseline();
    assert_eq!(amrviz_obs::mem::peak_since(base), 0);
}
