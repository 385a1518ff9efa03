//! Declarative campaign specs.
//!
//! A spec is a small line-oriented text file describing the full-factorial
//! campaign matrix (benchmarks × lockers × attacks × seeds) plus tuning:
//!
//! ```text
//! # paper Tables I–II shape
//! bench s27 s298 s344
//! locker xor 4
//! locker gk 2
//! attack sat removal
//! seeds 1 2
//! timeout-secs 60
//! max-iters 64
//! samples 512
//! count 0.8 0.2 24 20
//! ```
//!
//! Parsing is strict (unknown directives are errors) and re-rendering is
//! canonical, so [`CampaignSpec::hash`] identifies the matrix: the journal
//! stores it and `--resume` refuses to mix records across specs.

use crate::job::{AttackKind, JobSpec, LockerKind};

/// FNV-1a over a string, the workspace's stock stable hash. Used for the
/// spec fingerprint and for deriving per-job RNG seeds from job ids.
pub fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Tuning for the optional corruptibility-counting pass: the `count
/// <epsilon> <delta> <max-bits> <exact-bits>` directive. Fingerprint
/// relevant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CountDirective {
    /// Estimator multiplicative tolerance.
    pub epsilon: f64,
    /// Estimator failure probability.
    pub delta: f64,
    /// Skip designs wider than this many data+key bits.
    pub max_bits: usize,
    /// Run the exhaustive ground-truth sweep at or below this width.
    pub exact_bits: usize,
}

impl CountDirective {
    /// The directive's spec line, without the newline.
    pub fn render(&self) -> String {
        format!(
            "count {} {} {} {}",
            self.epsilon, self.delta, self.max_bits, self.exact_bits
        )
    }
}

/// A parsed campaign spec: the job matrix plus shared tuning.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Benchmark names (`s27`, `c17`, or any generator profile).
    pub benches: Vec<String>,
    /// Locking schemes with their key width (GKs for `gk`).
    pub lockers: Vec<(LockerKind, usize)>,
    /// Attacks to run against every locked design.
    pub attacks: Vec<AttackKind>,
    /// Campaign seeds; each multiplies the matrix.
    pub seeds: Vec<u64>,
    /// Per-job wall-clock budget in seconds (`None` = unsupervised).
    pub timeout_secs: Option<u64>,
    /// Retry budget per job (re-runs after a transient failure).
    pub retries: usize,
    /// Iteration cap handed to the iterative attacks.
    pub max_iterations: usize,
    /// Sample count for skew scans and key-verification probes.
    pub samples: usize,
    /// When set, the report gains corruptibility columns (err/dip/W)
    /// computed by `glitchlock_count` at render time.
    pub count: Option<CountDirective>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            benches: Vec::new(),
            lockers: Vec::new(),
            attacks: Vec::new(),
            seeds: vec![1],
            timeout_secs: None,
            retries: 1,
            max_iterations: 512,
            samples: 1024,
            count: None,
        }
    }
}

impl CampaignSpec {
    /// Parses the spec format shown in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a line-annotated message on unknown directives, malformed
    /// numbers, or a spec with an empty bench/locker/attack axis.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let mut spec = CampaignSpec::default();
        let mut seeds_set = false;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let directive = words.next().expect("non-empty line has a word");
            let args: Vec<&str> = words.collect();
            let at = |msg: String| format!("spec line {}: {msg}", ln + 1);
            match directive {
                "bench" => {
                    if args.is_empty() {
                        return Err(at("bench needs at least one name".into()));
                    }
                    spec.benches.extend(args.iter().map(|s| s.to_string()));
                }
                "locker" => {
                    let [kind, width] = args[..] else {
                        return Err(at("locker takes exactly `<kind> <width>`".into()));
                    };
                    let kind = LockerKind::parse(kind)
                        .ok_or_else(|| at(format!("unknown locker `{kind}`")))?;
                    let width: usize = width
                        .parse()
                        .map_err(|_| at(format!("bad locker width `{width}`")))?;
                    if width == 0 {
                        return Err(at("locker width must be positive".into()));
                    }
                    spec.lockers.push((kind, width));
                }
                "attack" => {
                    if args.is_empty() {
                        return Err(at("attack needs at least one name".into()));
                    }
                    for name in args {
                        let kind = AttackKind::parse(name)
                            .ok_or_else(|| at(format!("unknown attack `{name}`")))?;
                        spec.attacks.push(kind);
                    }
                }
                "seeds" => {
                    if args.is_empty() {
                        return Err(at("seeds needs at least one value".into()));
                    }
                    if !seeds_set {
                        spec.seeds.clear();
                        seeds_set = true;
                    }
                    for s in args {
                        let seed: u64 = s.parse().map_err(|_| at(format!("bad seed `{s}`")))?;
                        spec.seeds.push(seed);
                    }
                }
                "timeout-secs" => {
                    let [v] = args[..] else {
                        return Err(at("timeout-secs takes one value".into()));
                    };
                    let secs: u64 = v.parse().map_err(|_| at(format!("bad timeout `{v}`")))?;
                    spec.timeout_secs = Some(secs);
                }
                "retries" => {
                    let [v] = args[..] else {
                        return Err(at("retries takes one value".into()));
                    };
                    spec.retries = v.parse().map_err(|_| at(format!("bad retries `{v}`")))?;
                }
                "max-iters" => {
                    let [v] = args[..] else {
                        return Err(at("max-iters takes one value".into()));
                    };
                    spec.max_iterations =
                        v.parse().map_err(|_| at(format!("bad max-iters `{v}`")))?;
                }
                "samples" => {
                    let [v] = args[..] else {
                        return Err(at("samples takes one value".into()));
                    };
                    spec.samples = v.parse().map_err(|_| at(format!("bad samples `{v}`")))?;
                }
                "count" => {
                    let [eps, delta, max_bits, exact_bits] = args[..] else {
                        return Err(at(
                            "count takes `<epsilon> <delta> <max-bits> <exact-bits>`".into(),
                        ));
                    };
                    let epsilon: f64 = eps
                        .parse()
                        .map_err(|_| at(format!("bad count epsilon `{eps}`")))?;
                    let delta: f64 = delta
                        .parse()
                        .map_err(|_| at(format!("bad count delta `{delta}`")))?;
                    if epsilon.is_nan()
                        || epsilon <= 0.0
                        || delta.is_nan()
                        || delta <= 0.0
                        || delta >= 1.0
                    {
                        return Err(at("count needs epsilon > 0 and 0 < delta < 1".into()));
                    }
                    let max_bits: usize = max_bits
                        .parse()
                        .map_err(|_| at(format!("bad count max-bits `{max_bits}`")))?;
                    let exact_bits: usize = exact_bits
                        .parse()
                        .map_err(|_| at(format!("bad count exact-bits `{exact_bits}`")))?;
                    spec.count = Some(CountDirective {
                        epsilon,
                        delta,
                        max_bits,
                        exact_bits,
                    });
                }
                other => return Err(at(format!("unknown directive `{other}`"))),
            }
        }
        if spec.benches.is_empty() {
            return Err("spec lists no benchmarks".to_string());
        }
        if spec.lockers.is_empty() {
            return Err("spec lists no lockers".to_string());
        }
        if spec.attacks.is_empty() {
            return Err("spec lists no attacks".to_string());
        }
        Ok(spec)
    }

    /// Canonical re-rendering: parsing the output reproduces `self`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "bench {}", self.benches.join(" "));
        for (kind, width) in &self.lockers {
            let _ = writeln!(out, "locker {} {width}", kind.tag());
        }
        let attacks: Vec<&str> = self.attacks.iter().map(|a| a.tag()).collect();
        let _ = writeln!(out, "attack {}", attacks.join(" "));
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "seeds {}", seeds.join(" "));
        if let Some(secs) = self.timeout_secs {
            let _ = writeln!(out, "timeout-secs {secs}");
        }
        let _ = writeln!(out, "retries {}", self.retries);
        let _ = writeln!(out, "max-iters {}", self.max_iterations);
        let _ = writeln!(out, "samples {}", self.samples);
        if let Some(c) = &self.count {
            let _ = writeln!(out, "{}", c.render());
        }
        out
    }

    /// Fingerprint of the canonical rendering, as fixed-width hex.
    pub fn hash(&self) -> String {
        format!("{:016x}", fnv1a64(&self.render()))
    }

    /// Expands the matrix into concrete jobs, in the deterministic
    /// bench × locker × attack × seed nesting order the report uses.
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::new();
        for bench in &self.benches {
            for &(locker, width) in &self.lockers {
                for &attack in &self.attacks {
                    for &seed in &self.seeds {
                        jobs.push(JobSpec {
                            bench: bench.clone(),
                            locker,
                            width,
                            attack,
                            seed,
                        });
                    }
                }
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
# comment\n\
bench s27 s298\n\
locker xor 4\n\
locker gk 2   # trailing comment\n\
attack sat removal\n\
seeds 1 2\n\
timeout-secs 30\n\
max-iters 64\n\
samples 512\n";

    #[test]
    fn parses_and_rerenders_canonically() {
        let spec = CampaignSpec::parse(SPEC).expect("parses");
        assert_eq!(spec.benches, ["s27", "s298"]);
        assert_eq!(spec.lockers, [(LockerKind::Xor, 4), (LockerKind::Gk, 2)]);
        assert_eq!(spec.attacks, [AttackKind::Sat, AttackKind::Removal]);
        assert_eq!(spec.seeds, [1, 2]);
        assert_eq!(spec.timeout_secs, Some(30));
        assert_eq!(spec.max_iterations, 64);
        let rendered = spec.render();
        assert_eq!(CampaignSpec::parse(&rendered).expect("reparses"), spec);
        assert_eq!(CampaignSpec::parse(&rendered).unwrap().hash(), spec.hash());
    }

    #[test]
    fn expansion_order_is_the_nesting_order() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2);
        assert_eq!(jobs[0].id(), "s27/xor4/sat/s1");
        assert_eq!(jobs[1].id(), "s27/xor4/sat/s2");
        assert_eq!(jobs[2].id(), "s27/xor4/removal/s1");
        assert_eq!(jobs[8].id(), "s298/xor4/sat/s1");
        assert_eq!(jobs[15].id(), "s298/gk2/removal/s2");
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(CampaignSpec::parse("").is_err());
        assert!(CampaignSpec::parse("bench s27\nattack sat\n").is_err());
        assert!(
            CampaignSpec::parse("bench s27\nlocker xor 4\nattack sat\nfrobnicate 3\n").is_err()
        );
        assert!(CampaignSpec::parse("bench s27\nlocker xor zero\nattack sat\n").is_err());
        assert!(CampaignSpec::parse("bench s27\nlocker warp 4\nattack sat\n").is_err());
        assert!(CampaignSpec::parse("bench s27\nlocker xor 4\nattack psychic\n").is_err());
    }

    #[test]
    fn retired_solver_and_encoder_directives_are_unknown() {
        let base = "bench s27\nlocker xor 4\nattack sat\n";
        for (line, word) in [("solver legacy", "solver"), ("encoder aig", "encoder")] {
            let err = CampaignSpec::parse(&format!("{base}{line}\n")).unwrap_err();
            assert_eq!(err, format!("spec line 4: unknown directive `{word}`"));
        }
        let rendered = CampaignSpec::parse(base).unwrap().render();
        assert!(!rendered.contains("solver") && !rendered.contains("encoder"));
    }

    #[test]
    fn count_directive_enables_corruptibility() {
        let base = "bench s27\nlocker xor 4\nattack sat\n";
        let spec = CampaignSpec::parse(base).unwrap();
        assert_eq!(spec.count, None, "counting is opt-in");
        let counted = CampaignSpec::parse(&format!("{base}count 0.8 0.2 24 20\n")).unwrap();
        assert_eq!(
            counted.count,
            Some(CountDirective {
                epsilon: 0.8,
                delta: 0.2,
                max_bits: 24,
                exact_bits: 20,
            })
        );
        assert_ne!(spec.hash(), counted.hash(), "count is part of the matrix");
        let rendered = counted.render();
        assert!(rendered.contains("count 0.8 0.2 24 20\n"));
        assert_eq!(CampaignSpec::parse(&rendered).unwrap(), counted);
        assert!(CampaignSpec::parse(&format!("{base}count 0.8 0.2 24\n")).is_err());
        assert!(CampaignSpec::parse(&format!("{base}count 0 0.2 24 20\n")).is_err());
        assert!(CampaignSpec::parse(&format!("{base}count 0.8 1.5 24 20\n")).is_err());
        assert!(CampaignSpec::parse(&format!("{base}count 0.8 0.2 x 20\n")).is_err());
    }

    #[test]
    fn hash_distinguishes_specs() {
        let a = CampaignSpec::parse("bench s27\nlocker xor 4\nattack sat\n").unwrap();
        let b = CampaignSpec::parse("bench s27\nlocker xor 5\nattack sat\n").unwrap();
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.hash().len(), 16);
    }
}
