//! Open-loop load generation: a seeded arrival schedule, sender threads
//! that fire each request at its due time, and latency measured from the
//! due time so a stall is charged to every request it delays.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// xorshift64* — a small seeded generator, so the schedule depends only
/// on the benchmark's seed and never on the program's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Splitmix the seed so nearby seeds give unrelated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One scheduled request: when it is due (offset from the start of the
/// run) and which kind of operation it is (an index into the mix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    pub due: Duration,
    pub kind: usize,
}

/// Poisson arrivals at `rate` per second over `span`, conditioned on
/// their count: exactly `round(rate * span)` arrivals at sorted uniform
/// times. The kinds are dealt in fixed proportions of `mix` (weights,
/// not necessarily normalised) and shuffled, so every seed offers the
/// same amount of each kind of work and only the timing and order vary.
pub fn poisson_schedule(rate: f64, span: Duration, mix: &[f64], rng: &mut Rng) -> Vec<Slot> {
    let n = (rate * span.as_secs_f64()).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * span.as_secs_f64()).collect();
    times.sort_by(f64::total_cmp);
    let total: f64 = mix.iter().sum();
    let mut kinds = Vec::with_capacity(n);
    for (k, w) in mix.iter().enumerate().skip(1) {
        let count = (w / total * n as f64).round() as usize;
        kinds.extend(std::iter::repeat_n(k, count));
    }
    kinds.truncate(n);
    kinds.resize(n, 0);
    for i in (1..n).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    times
        .into_iter()
        .zip(kinds)
        .map(|(t, kind)| Slot {
            due: Duration::from_secs_f64(t),
            kind,
        })
        .collect()
}

/// What happened to one scheduled request, in offsets from the run start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timing {
    /// Latency as the user sees it: from when the request was due, so
    /// time spent waiting for a free sender counts.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Runs `schedule` open-loop on `senders` threads: each thread claims the
/// next slot, sleeps until it is due (or sends at once when already
/// late), and calls `send(slot_index, slot)`. Returns the timings and the
/// per-slot results in schedule order.
pub fn run_open_loop<T: Send>(
    schedule: &[Slot],
    senders: usize,
    send: impl Fn(usize, Slot) -> T + Sync,
) -> Vec<(Timing, T)> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(Timing, T)>>> =
        Mutex::new((0..schedule.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..senders.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&slot) = schedule.get(i) else {
                    return;
                };
                let now = start.elapsed();
                if slot.due > now {
                    std::thread::sleep(slot.due - now);
                }
                let sent = start.elapsed();
                let out = send(i, slot);
                let done = start.elapsed();
                let timing = Timing {
                    due: slot.due,
                    sent,
                    done,
                };
                results
                    .lock()
                    .expect("results lock poisoned by a sender panic")[i] = Some((timing, out));
            });
        }
    });
    results
        .into_inner()
        .expect("results lock poisoned by a sender panic")
        .into_iter()
        .map(|r| r.expect("every slot is claimed by exactly one sender"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time() {
        let t = Timing {
            due: Duration::from_millis(10),
            sent: Duration::from_millis(15),
            done: Duration::from_millis(22),
        };
        assert!((t.latency_ms() - 12.0).abs() < 1e-9);
        assert!((t.late_ms() - 5.0).abs() < 1e-9);
        // Sent early can't happen, but must not underflow either.
        let early = Timing {
            due: Duration::from_millis(10),
            sent: Duration::from_millis(9),
            done: Duration::from_millis(9),
        };
        assert_eq!(early.late_ms(), 0.0);
        assert_eq!(early.latency_ms(), 0.0);
    }

    #[test]
    fn schedule_is_seeded_and_has_the_offered_rate() {
        let a = poisson_schedule(
            200.0,
            Duration::from_secs(10),
            &[0.9, 0.1],
            &mut Rng::new(7),
        );
        let b = poisson_schedule(
            200.0,
            Duration::from_secs(10),
            &[0.9, 0.1],
            &mut Rng::new(7),
        );
        let c = poisson_schedule(
            200.0,
            Duration::from_secs(10),
            &[0.9, 0.1],
            &mut Rng::new(8),
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 2000);
        assert_eq!(c.len(), 2000);
        assert_eq!(a.iter().filter(|s| s.kind == 1).count(), 200);
        assert_eq!(c.iter().filter(|s| s.kind == 1).count(), 200);
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn a_stalled_sender_makes_later_requests_late() {
        // Two requests due together on one sender: the second waits for
        // the first and its latency includes that wait.
        let schedule = [
            Slot {
                due: Duration::ZERO,
                kind: 0,
            },
            Slot {
                due: Duration::ZERO,
                kind: 0,
            },
        ];
        let out = run_open_loop(&schedule, 1, |_, _| {
            std::thread::sleep(Duration::from_millis(30));
        });
        let (first, second) = (out[0].0, out[1].0);
        assert!(first.late_ms() < 10.0);
        assert!(second.late_ms() >= 30.0, "{:?}", second);
        assert!(second.latency_ms() >= 60.0, "{:?}", second);
        assert!(second.latency_ms() - second.late_ms() >= 30.0);
    }
}
