//! Property tests: parallel combinators are bitwise identical to
//! serial execution across thread counts.

use proptest::prelude::*;
use rdi_par::{par_map, par_map_indexed, par_reduce, par_run, stream_seed, Threads};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// par_map output equals the serial map, bit for bit, at 1/2/8
    /// threads.
    #[test]
    fn par_map_identical_across_thread_counts(
        items in prop::collection::vec(0u64..1_000_000, 0..300),
        salt in 0u64..1000)
    {
        let serial: Vec<u64> = items
            .iter()
            .map(|x| stream_seed(*x, salt))
            .collect();
        for t in [1usize, 2, 8] {
            let par = par_map(Threads::fixed(t), &items, |x| stream_seed(*x, salt));
            prop_assert_eq!(&par, &serial, "thread count {}", t);
        }
    }

    /// Indexed mapping stays aligned with global positions regardless
    /// of chunking.
    #[test]
    fn par_map_indexed_alignment(len in 0usize..400, t in 1usize..9) {
        let items: Vec<u64> = (0..len as u64).collect();
        let out = par_map_indexed(Threads::fixed(t), &items, |i, x| (i as u64, *x));
        for (i, (idx, val)) in out.iter().enumerate() {
            prop_assert_eq!(*idx, i as u64);
            prop_assert_eq!(*val, i as u64);
        }
    }

    /// Integer reductions agree with the serial fold for every thread
    /// count, and repeated runs are bitwise stable.
    #[test]
    fn par_reduce_matches_serial(
        items in prop::collection::vec(0u64..1_000_000, 0..300))
    {
        let serial: u64 = items.iter().fold(0, |a, x| a ^ x.wrapping_mul(31));
        for t in [1usize, 2, 8] {
            let r = par_reduce(
                Threads::fixed(t),
                &items,
                || 0u64,
                |a, x| a ^ x.wrapping_mul(31),
                |a, b| a ^ b,
            );
            prop_assert_eq!(r, serial, "thread count {}", t);
        }
    }

    /// par_run is a pure function of (n, f) — chunking never reorders
    /// or drops jobs.
    #[test]
    fn par_run_is_ordered(n in 0usize..300, t in 1usize..9) {
        let out = par_run(Threads::fixed(t), n, |i| stream_seed(7, i as u64));
        let serial: Vec<u64> = (0..n).map(|i| stream_seed(7, i as u64)).collect();
        prop_assert_eq!(out, serial);
    }

    /// Stream seeds form distinct streams per block index.
    #[test]
    fn stream_seed_no_collisions_in_window(
        master in any::<u64>(),
        base in 0u64..1_000_000)
    {
        let window: Vec<u64> = (base..base + 64).map(|i| stream_seed(master, i)).collect();
        let mut dedup = window.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), window.len());
    }
}
