//! The benchmark's own seeded load generator: keys, op mixes and
//! Poisson arrival offsets, all a pure function of the seed.
//!
//! Deliberately independent of `sl2_bench` (later PRs may edit that
//! crate; a benchmark that moved with it could not compare them).

use sl2::service::{Request, ServiceOp};

/// SplitMix64: one `u64` of state, full period, passes BigCrush — all
/// the generator needs, and trivially reproducible from a seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias < 2^-32 for the sizes
    /// used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// Uniform in `(0, 1]` at 53-bit resolution (never 0, so `ln` is
    /// finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// An independent stream seed for `(seed, round, lane)`: every round of
/// a run and every generating thread draws from its own stream, and the
/// same triple always names the same stream.
pub fn stream(seed: u64, round: u64, lane: u64) -> u64 {
    let mut r = Rng::new(seed ^ round.wrapping_mul(0xa076_1d64_78bd_642f));
    r.next_u64() ^ lane.wrapping_mul(0xe703_7ed1_a0b4_28db)
}

/// Zipf with exponent 1 over `0..keyspace` (rank 0 is the hottest key),
/// sampled by inverse CDF over a precomputed table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(keyspace: u32) -> Self {
        assert!(keyspace > 0, "zipf needs a non-empty keyspace");
        let mut cdf = Vec::with_capacity(keyspace as usize);
        let mut acc = 0.0f64;
        for rank in 1..=keyspace as u64 {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c < u)).min(self.cdf.len() - 1) as u32
    }
}

/// Operation kinds, one per `ServiceOp` variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Inc,
    WriteMax,
    ReadMax,
    ReadCount,
    ReadMaxCached,
    ReadCountCached,
    Update,
    Scan,
}

impl Kind {
    pub const ALL: [Kind; 8] = [
        Kind::Inc,
        Kind::WriteMax,
        Kind::ReadMax,
        Kind::ReadCount,
        Kind::ReadMaxCached,
        Kind::ReadCountCached,
        Kind::Update,
        Kind::Scan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Inc => "inc",
            Kind::WriteMax => "write_max",
            Kind::ReadMax => "read_max",
            Kind::ReadCount => "read_count",
            Kind::ReadMaxCached => "read_max_cached",
            Kind::ReadCountCached => "read_count_cached",
            Kind::Update => "update",
            Kind::Scan => "scan",
        }
    }
}

/// One generated operation, packed to 8 bytes so a round's inputs stay
/// small next to the objects they drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub key: u32,
    pub kind: Kind,
    /// `WriteMax` / `Update` operand; 0 otherwise.
    pub arg: u16,
}

impl Op {
    pub fn request(self) -> Request {
        let op = match self.kind {
            Kind::Inc => ServiceOp::Inc,
            Kind::WriteMax => ServiceOp::WriteMax(self.arg as u64),
            Kind::ReadMax => ServiceOp::ReadMax,
            Kind::ReadCount => ServiceOp::ReadCount,
            Kind::ReadMaxCached => ServiceOp::ReadMaxCached,
            Kind::ReadCountCached => ServiceOp::ReadCountCached,
            Kind::Update => ServiceOp::Update {
                component: 0,
                v: self.arg as u64,
            },
            Kind::Scan => ServiceOp::Scan,
        };
        Request {
            key: self.key as u64,
            op,
        }
    }
}

/// An op mix: `(kind, percent)` pairs summing to 100.
pub type Mix = &'static [(Kind, u32)];

/// Write-heavy: 70% of ops mutate.
pub const W70: Mix = &[
    (Kind::Inc, 40),
    (Kind::WriteMax, 30),
    (Kind::ReadMax, 15),
    (Kind::ReadCount, 15),
];

/// Read-heavy: 89% reads, every op kind present.
pub const R90: Mix = &[
    (Kind::ReadMax, 25),
    (Kind::ReadMaxCached, 25),
    (Kind::ReadCount, 20),
    (Kind::ReadCountCached, 17),
    (Kind::Inc, 5),
    (Kind::WriteMax, 5),
    (Kind::Update, 1),
    (Kind::Scan, 2),
];

/// The cheapest read against the cheapest bounded write, so dispatch
/// dominates each request.
pub const CHEAP: Mix = &[(Kind::ReadMaxCached, 50), (Kind::WriteMax, 50)];

/// `WriteMax` operands stay below this: the `Global` max register is
/// unary, so its width (and cost) is the largest operand it has seen.
pub const OPERAND_LIMIT: u64 = 1024;

/// `n` ops drawn from `mix` over `zipf`-popular keys.
pub fn ops(seed: u64, n: usize, zipf: &Zipf, mix: Mix) -> Vec<Op> {
    debug_assert_eq!(mix.iter().map(|&(_, w)| w).sum::<u32>(), 100);
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let key = zipf.sample(&mut rng);
            let mut pick = rng.below(100) as u32;
            let mut kind = mix[0].0;
            for &(k, w) in mix {
                if pick < w {
                    kind = k;
                    break;
                }
                pick -= w;
            }
            let arg = match kind {
                Kind::WriteMax | Kind::Update => rng.below(OPERAND_LIMIT) as u16,
                _ => 0,
            };
            Op { key, kind, arg }
        })
        .collect()
}

/// Poisson arrivals at `rate_per_s`: non-decreasing offsets in ns from
/// the run's start instant (exponential gaps by inverse CDF).
pub fn poisson_offsets(seed: u64, n: usize, rate_per_s: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mean_ns = 1e9 / rate_per_s as f64;
    let mut clock = 0.0f64;
    (0..n)
        .map(|_| {
            clock += -rng.unit().ln() * mean_ns;
            clock as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_differs() {
        let zipf = Zipf::new(1 << 16);
        let a = ops(stream(7, 0, 0), 5_000, &zipf, R90);
        let b = ops(stream(7, 0, 0), 5_000, &zipf, R90);
        let c = ops(stream(8, 0, 0), 5_000, &zipf, R90);
        assert_eq!(a, b, "keys and ops replay from the seed");
        assert_ne!(a, c, "another seed gives other inputs");
        assert_eq!(
            poisson_offsets(stream(7, 0, 1), 5_000, 50_000),
            poisson_offsets(stream(7, 0, 1), 5_000, 50_000)
        );
        assert_ne!(
            poisson_offsets(stream(7, 0, 1), 5_000, 50_000),
            poisson_offsets(stream(8, 0, 1), 5_000, 50_000)
        );
        assert_ne!(stream(7, 0, 0), stream(7, 1, 0), "rounds draw apart");
        assert_ne!(stream(7, 0, 0), stream(7, 0, 1), "lanes draw apart");
    }

    #[test]
    fn arrivals_are_monotone_at_the_target_rate() {
        let off = poisson_offsets(3, 50_000, 50_000);
        assert!(off.windows(2).all(|w| w[0] <= w[1]));
        let mean = *off.last().unwrap() as f64 / off.len() as f64;
        assert!((mean - 20_000.0).abs() < 600.0, "mean gap {mean} ns");
    }

    #[test]
    fn zipf_is_skewed_and_mixes_hit_their_weights() {
        let zipf = Zipf::new(1 << 16);
        let sample = ops(11, 200_000, &zipf, W70);
        assert!(sample.iter().all(|o| o.key < 1 << 16));
        assert!(sample.iter().all(|o| (o.arg as u64) < OPERAND_LIMIT));
        let hottest = sample.iter().filter(|o| o.key == 0).count() as f64 / 200_000.0;
        // 1 / H(65536) = 0.0857.
        assert!((hottest - 0.0857).abs() < 0.005, "rank-0 share {hottest}");
        for &(kind, w) in W70 {
            let share = sample.iter().filter(|o| o.kind == kind).count() as f64 / 200_000.0;
            assert!((share - w as f64 / 100.0).abs() < 0.01, "{kind:?} {share}");
        }
    }
}
