//! `par.tasks_dispatched` counts chunks, including the one the caller
//! maps itself. The dispatch counters are process-global, so this check lives in its
//! own test binary with no other test running beside it.

use rdi_par::{par_map, par_reduce, par_run, Threads};

fn count(name: &str) -> u64 {
    rdi_obs::counter(name).get()
}

#[test]
fn every_chunk_is_counted_once_per_parallel_run() {
    let items: Vec<u64> = (0..1000).collect();
    for t in [2usize, 3, 8] {
        let threads = Threads::fixed(t);
        let chunks = threads.chunks_of(items.len()).len() as u64;
        let (runs, tasks, serial) = (
            count("par.parallel_runs"),
            count("par.tasks_dispatched"),
            count("par.serial_runs"),
        );
        par_map(threads, &items, |x| x + 1);
        par_reduce(threads, &items, || 0, |a, x| a + x, |a, b| a + b);
        par_run(threads, items.len(), |i| i);
        assert_eq!(count("par.parallel_runs") - runs, 3, "{t} threads");
        assert_eq!(
            count("par.tasks_dispatched") - tasks,
            3 * chunks,
            "{t} threads"
        );
        assert_eq!(count("par.serial_runs"), serial, "{t} threads");
    }
    // Below the cutoff nothing is dispatched.
    let tasks = count("par.tasks_dispatched");
    par_map(Threads::fixed(8), &items[..3], |x| x + 1);
    assert_eq!(count("par.tasks_dispatched"), tasks);
}
