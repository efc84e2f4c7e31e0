//! Process and machine readings from `/proc`: process CPU time, machine
//! steal time, peak resident memory, and the CPU count.
//!
//! CPU time is `utime + stime` of `/proc/self/stat`. On a kernel built
//! with `CONFIG_PARAVIRT_TIME_ACCOUNTING`, time the hypervisor gives to
//! other guests is charged to the `steal` column of `/proc/stat`, not to
//! the process that was runnable, so process CPU time measures the work
//! done and not the wait for a shared core. Wall time includes that wait.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Clock ticks per second of the `/proc` tick counters (`USER_HZ`, 100
/// on every Linux ABI this benchmark runs on).
const TICKS_PER_S: f64 = 100.0;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// `utime + stime` of this process, in clock ticks.
fn process_cpu_ticks() -> Result<u64, String> {
    let stat = read("/proc/self/stat")?;
    // The command name may hold spaces; fields restart after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is field 3 (state); utime and stime are fields 14 and 15.
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Steal ticks summed over all CPUs, from the `cpu` line of `/proc/stat`.
fn steal_ticks() -> Result<u64, String> {
    let stat = read("/proc/stat")?;
    stat.lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| "malformed /proc/stat".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Accumulates wall time, process CPU time and machine steal time over
/// the timed segments of a run; untimed checks run between segments.
#[derive(Debug, Default)]
pub struct Meter {
    wall: Duration,
    cpu_ticks: u64,
    steal_ticks: u64,
    open: Option<(Instant, u64, u64)>,
}

impl Meter {
    /// Open a timed segment.
    pub fn start(&mut self) -> Result<(), String> {
        let cpu = process_cpu_ticks()?;
        let steal = steal_ticks()?;
        self.open = Some((Instant::now(), cpu, steal));
        Ok(())
    }

    /// Close the open timed segment.
    pub fn stop(&mut self) -> Result<(), String> {
        let (t0, cpu0, steal0) = self.open.take().ok_or("meter stopped twice")?;
        self.wall += t0.elapsed();
        self.cpu_ticks += process_cpu_ticks()?.saturating_sub(cpu0);
        self.steal_ticks += steal_ticks()?.saturating_sub(steal0);
        Ok(())
    }

    /// Wall seconds in timed segments.
    pub fn wall_s(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Process CPU seconds in timed segments.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ticks as f64 / TICKS_PER_S
    }

    /// Share of the CPUs' wall time that the hypervisor stole during the
    /// timed segments (steal summed over CPUs / (CPUs × wall)).
    pub fn steal_frac(&self) -> f64 {
        let wall = self.wall_s() * nproc() as f64;
        if wall > 0.0 {
            self.steal_ticks as f64 / TICKS_PER_S / wall
        } else {
            0.0
        }
    }
}

/// Keys of the reference computation's ordered map.
const REFERENCE_KEYS: u64 = 4_000;

/// Entries of each reference thread's pointer-chasing table (4 MiB, twice
/// a core's L2), and hops per timing.
const CHASE_LEN: usize = 1 << 20;
const CHASE_HOPS: usize = 1 << 13;

/// Per-CPU inputs of the reference computation: an ordered map, a byte
/// buffer, and a single-cycle permutation to chase. Built on first use
/// and kept for the life of the process, so timings allocate nothing and
/// do not depend on the state of the program's heap.
struct ReferenceInput {
    map: BTreeMap<u64, u64>,
    bytes: Vec<u8>,
    cycle: Vec<u32>,
}

fn reference_inputs() -> &'static [ReferenceInput] {
    static INPUTS: OnceLock<Vec<ReferenceInput>> = OnceLock::new();
    INPUTS.get_or_init(|| {
        (0..nproc())
            .map(|t| {
                let mut h = 0xcbf2_9ce4_8422_2325u64 ^ t as u64;
                let mut next = || {
                    h = (h ^ (h >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    h
                };
                let map = (0..REFERENCE_KEYS).map(|i| (next(), i)).collect();
                // Sattolo's shuffle: one cycle through every entry.
                let mut cycle: Vec<u32> = (0..CHASE_LEN as u32).collect();
                for i in (1..CHASE_LEN).rev() {
                    cycle.swap(i, (next() % i as u64) as usize);
                }
                ReferenceInput {
                    map,
                    bytes: (0..1u32 << 18).map(|i| i as u8).collect(),
                    cycle,
                }
            })
            .collect()
    })
}

/// One timing of a fixed reference computation, run on every CPU at
/// once: ordered-map lookups of hashed keys and a hash over a buffer
/// (compute and near caches), then a pointer chase through a table far
/// larger than a core's L2 (the shared cache and memory, which busy
/// neighbours slow most). It uses no code of the program, so its time
/// tracks the host's speed alone. Returns the wall seconds of the
/// slowest thread (thread start-up excluded).
pub fn reference_s() -> f64 {
    fn work(input: &ReferenceInput) -> f64 {
        let t0 = Instant::now();
        let (mut h, mut acc) = (0x1234u64, 0u64);
        for i in 0..REFERENCE_KEYS {
            h = (h ^ i).wrapping_mul(0x0000_0100_0000_01b3);
            acc = acc.wrapping_add(input.map.range(h..).next().map_or(0, |(_, v)| *v));
        }
        for b in &input.bytes {
            acc = (acc ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut at = acc as usize % CHASE_LEN;
        for _ in 0..CHASE_HOPS {
            at = input.cycle[at] as usize;
        }
        std::hint::black_box(at);
        t0.elapsed().as_secs_f64()
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = reference_inputs()
            .iter()
            .map(|input| s.spawn(move || work(input)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(0.0))
            .fold(0.0, f64::max)
    })
}
