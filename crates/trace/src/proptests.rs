//! Property-based tests over trace generation.

use crate::builder::WorkloadBuilder;
use proptest::prelude::*;

proptest! {
    #[test]
    fn builder_specs_generate_bounded_deterministic_traces(
        tasks in 1u32..5,
        n_spec in 1usize..4,
        iters in 1u32..6,
        seed in any::<u64>(),
    ) {
        let spec = WorkloadBuilder::new("prop")
            .seed(seed)
            .tasks(tasks)
            .segment_blocks(8)
            .txn_type("T", 1.0, n_spec, iters)
            .no_data()
            .build();
        for t in spec.threads() {
            let a: Vec<_> = spec.thread_trace(t).collect();
            let b: Vec<_> = spec.thread_trace(t).collect();
            prop_assert_eq!(&a, &b);
            prop_assert!(!a.is_empty());
            // Upper bound: plan length x blocks x passes x instrs.
            let bound = (2 + 4 * (iters as usize + iters as usize / 3 + 1))
                * 8 * 2 * 12;
            prop_assert!(a.len() <= bound, "{} > {}", a.len(), bound);
        }
    }
}
