//! Host-speed calibration.
//!
//! On a shared host the same unit of simulation can take 1.7 times as
//! long from one minute to the next: other tenants contend for the
//! core's caches, and no per-run median absorbs a slowdown that lasts
//! minutes. The benchmark therefore times a fixed calibration kernel
//! right before and right after every measured unit, and divides the
//! unit's time by the host's speed at that moment.
//!
//! The kernel is a small discrete-event loop written against `std`
//! only: a binary-heap event queue, per-node ordered maps, a packet
//! buffer allocated and queued per event. It exercises the same kinds
//! of work as the simulator, so contention slows it about as much, but
//! it shares no code with the simulator, so a change to the simulator
//! cannot move it. Its inputs are fixed and its checksum is checked on
//! every call.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::time::Instant;

/// Nodes of the kernel's world.
const NODES: usize = 1024;

/// Events the kernel processes per call.
const EVENTS: u32 = 50_000;

/// Keys a node's table draws from, and most it holds.
const KEYS: u64 = 4096;
const TABLE: usize = 64;

/// Packets a node keeps queued.
const QUEUE: usize = 4;

/// The kernel's nominal time, a fixed scale: a calibrated time is the
/// time the unit takes when the kernel takes this long. On a 2-vCPU
/// Xeon host at 2.1 GHz the kernel's median over a 55 s run ranged
/// from 0.019 to 0.030 s over 40 runs.
pub const NOMINAL_S: f64 = 0.030;

/// The checksum every call of the kernel must return.
pub const CHECKSUM: u64 = 5_851_179;

/// Run the kernel once: `(seconds, checksum)`.
pub fn kernel() -> (f64, u64) {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Per node: hit counts by key, and queued packets.
    let mut nodes: Vec<_> = (0..NODES)
        .map(|_| (BTreeMap::<u32, u64>::new(), VecDeque::<Vec<u8>>::new()))
        .collect();
    for (table, _) in &mut nodes {
        for _ in 0..TABLE / 2 {
            table.insert((rnd() % KEYS) as u32, 0);
        }
    }
    let mut queue = BinaryHeap::new();
    for i in 0..2 * NODES {
        queue.push(Reverse((rnd() % 1_000_000, (i % NODES) as u32)));
    }
    let mut sum = 0_u64;
    for _ in 0..EVENTS {
        let Reverse((at, node)) = queue.pop().expect("every event schedules one more");
        let r = rnd();
        let (table, packets) = &mut nodes[node as usize];
        let key = (r % KEYS) as u32;
        if let Some(hits) = table.get_mut(&key) {
            *hits += 1;
            sum = sum.wrapping_add(*hits);
        } else if table.len() < TABLE {
            table.insert(key, 1);
        } else {
            table.pop_first();
        }
        let len = 64 + (r >> 20) as usize % 1000;
        let mut packet = vec![0_u8; len];
        packet[0] = r as u8;
        packet[len - 1] = (r >> 8) as u8;
        packets.push_back(packet);
        if packets.len() > QUEUE {
            let dropped = packets.pop_front().expect("queue is not empty");
            sum = sum.wrapping_add(u64::from(dropped[0]));
        }
        let next = ((r >> 12) % NODES as u64) as u32;
        queue.push(Reverse((at + 1 + (r >> 33) % 5000, next)));
    }
    (t0.elapsed().as_secs_f64(), sum)
}

/// Host-speed factors of a run's units: the kernel runs once before the
/// first unit and once after every unit, and a unit's factor is the
/// mean of the two kernel times around it over [`NOMINAL_S`] (above 1
/// on a slow moment of the host).
#[derive(Debug, Default)]
pub struct Speed {
    kernel: Vec<f64>,
    /// Kernel calls whose checksum was not [`CHECKSUM`].
    pub bad_checksums: u64,
}

impl Speed {
    /// Time the kernel once; call before the first unit and after
    /// every unit.
    pub fn tick(&mut self) {
        let (secs, sum) = kernel();
        if sum != CHECKSUM {
            self.bad_checksums += 1;
        }
        self.kernel.push(secs);
    }

    /// The factor of unit `i` (0-based), once the kernel has run after
    /// it.
    pub fn factor(&self, i: usize) -> f64 {
        (self.kernel[i] + self.kernel[i + 1]) / 2.0 / NOMINAL_S
    }

    /// Kernel times measured so far.
    pub fn kernel_times(&self) -> &[f64] {
        &self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_checksum_is_fixed() {
        assert_eq!(kernel().1, CHECKSUM);
        assert_eq!(kernel().1, CHECKSUM);
    }

    #[test]
    fn a_unit_takes_the_mean_of_the_kernel_times_around_it() {
        let speed = Speed {
            kernel: vec![NOMINAL_S, 3.0 * NOMINAL_S, NOMINAL_S],
            bad_checksums: 0,
        };
        assert!((speed.factor(0) - 2.0).abs() < 1e-12);
        assert!((speed.factor(1) - 2.0).abs() < 1e-12);
    }
}
