//! Deterministic fault injection for the TCP transport.
//!
//! A [`FaultPolicy`] attaches to [`crate::NetConfig`] (builder knob) or
//! arrives via the `TGS_FAULTS` environment variable and makes
//! [`crate::TcpShard`] misbehave on purpose: drop the connection before
//! a send, delay a call, truncate a request frame mid-write, or answer
//! with a synthetic error reply — each with a per-opcode probability.
//! Every decision is drawn from a seeded counter-based stream keyed by
//! the policy seed and the handle's slot (never its address, whose
//! ephemeral port would change between runs), so a faulted run is
//! exactly reproducible: same seed, same call sequence, same faults.
//!
//! Spec grammar (comma-separated clauses, whitespace ignored):
//!
//! ```text
//! seed=7, delay_ms=5, ingest.truncate=0.25, *.error=0.01
//! ```
//!
//! Each fault clause is `<opcode-name|*>.<drop|delay|truncate|error> =
//! <probability>`; opcode names are the lower-case names of
//! [`crate::wire`]'s opcode table (`ingest`, `flush`, `stats`, …), `*`
//! matches every opcode. Rules are evaluated in clause order and the
//! first hit wins, so a specific clause listed before a wildcard takes
//! precedence for its opcode.

use std::time::Duration;

use crate::wire::opcode_named;

/// What an injected fault does to one transport call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// Close the cached connection before the request is written. The
    /// request provably never left, so the client retries internally.
    Drop,
    /// Sleep for the policy's `delay` before the call proceeds.
    Delay,
    /// Write a partial request frame, then close the connection: bytes
    /// left the socket but can never parse as a request. Non-idempotent
    /// calls surface this as a typed error (replay is not provably
    /// safe), which is exactly what drives the supervised recovery path.
    Truncate,
    /// Answer with a synthetic `STATUS_ERR` reply without any IO.
    ErrorReply,
}

#[derive(Debug, Clone, PartialEq)]
struct FaultRule {
    /// `None` is the `*` wildcard.
    opcode: Option<u8>,
    kind: FaultKind,
    /// Probability in `[0, 1]` that a matching call draws this fault.
    prob: f64,
}

/// A seeded, per-opcode fault schedule (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPolicy {
    /// Base seed of the deterministic decision stream.
    pub(crate) seed: u64,
    /// How long a [`FaultKind::Delay`] fault sleeps.
    pub(crate) delay: Duration,
    rules: Vec<FaultRule>,
}

impl FaultPolicy {
    /// Parses the `TGS_FAULTS` spec grammar.
    pub fn parse(spec: &str) -> Result<FaultPolicy, String> {
        let mut policy = FaultPolicy {
            seed: 0,
            delay: Duration::from_millis(1),
            rules: Vec::new(),
        };
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause '{clause}' is missing '='"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    policy.seed = value
                        .parse()
                        .map_err(|_| format!("bad fault seed '{value}'"))?;
                }
                "delay_ms" => {
                    let ms: u64 = value
                        .parse()
                        .map_err(|_| format!("bad fault delay '{value}'"))?;
                    policy.delay = Duration::from_millis(ms);
                }
                _ => {
                    let (opname, kind) = key
                        .split_once('.')
                        .ok_or_else(|| format!("fault clause '{key}' is not <opcode>.<kind>"))?;
                    let opcode = match opname {
                        "*" => None,
                        name => Some(
                            opcode_named(name)
                                .ok_or_else(|| format!("unknown opcode name '{name}'"))?,
                        ),
                    };
                    let kind = match kind {
                        "drop" => FaultKind::Drop,
                        "delay" => FaultKind::Delay,
                        "truncate" => FaultKind::Truncate,
                        "error" => FaultKind::ErrorReply,
                        other => return Err(format!("unknown fault kind '{other}'")),
                    };
                    let prob: f64 = value
                        .parse()
                        .map_err(|_| format!("bad fault probability '{value}'"))?;
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(format!("fault probability {prob} outside [0, 1]"));
                    }
                    policy.rules.push(FaultRule { opcode, kind, prob });
                }
            }
        }
        Ok(policy)
    }

    /// The policy declared by the `TGS_FAULTS` environment variable, if
    /// any. A malformed spec is reported on stderr and ignored rather
    /// than silently arming a half-parsed schedule.
    pub(crate) fn from_env() -> Option<FaultPolicy> {
        let spec = std::env::var("TGS_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match Self::parse(&spec) {
            Ok(policy) => Some(policy),
            Err(e) => {
                eprintln!("warning: ignoring malformed TGS_FAULTS: {e}");
                None
            }
        }
    }

    /// Decides the fate of one call. `draw` yields the next value of
    /// the caller's deterministic stream; it is consulted exactly once
    /// per matching nonzero rule, so the stream advances identically on
    /// every run regardless of which faults fire.
    pub(crate) fn decide(&self, opcode: u8, mut draw: impl FnMut() -> u64) -> Option<FaultKind> {
        let mut hit = None;
        for rule in &self.rules {
            if rule.prob <= 0.0 || !(rule.opcode.is_none() || rule.opcode == Some(opcode)) {
                continue;
            }
            let unit = (draw() >> 11) as f64 / (1u64 << 53) as f64;
            if hit.is_none() && unit < rule.prob {
                hit = Some(rule.kind);
            }
        }
        hit
    }
}

/// The `splitmix64` finalizer: one multiply-xorshift pipeline turning a
/// counter into a well-mixed 64-bit value. Counter-based so an atomic
/// `fetch_add` is the whole generator state.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::OPCODES;

    const INGEST: u8 = 2;
    const FLUSH: u8 = 3;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let p = FaultPolicy::parse("seed=7, delay_ms=5, ingest.truncate=0.25, *.error=0.01")
            .expect("valid spec");
        assert_eq!(p.seed, 7);
        assert_eq!(p.delay, Duration::from_millis(5));
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].opcode, Some(INGEST));
        assert_eq!(p.rules[0].kind, FaultKind::Truncate);
        assert_eq!(p.rules[1].opcode, None);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPolicy::parse("ingest.truncate").is_err(), "no value");
        assert!(FaultPolicy::parse("warp.drop=0.5").is_err(), "bad opcode");
        assert!(FaultPolicy::parse("ingest.melt=0.5").is_err(), "bad kind");
        assert!(
            FaultPolicy::parse("ingest.drop=1.5").is_err(),
            "probability outside [0, 1]"
        );
        assert!(FaultPolicy::parse("seed=banana").is_err(), "bad seed");
    }

    #[test]
    fn decisions_are_deterministic_and_scoped_to_matching_opcodes() {
        let p = FaultPolicy::parse("seed=42, ingest.truncate=0.5").expect("valid");
        let run = |p: &FaultPolicy| {
            let mut counter = p.seed;
            (0..64)
                .map(|_| {
                    p.decide(INGEST, || {
                        counter = counter.wrapping_add(1);
                        splitmix(counter)
                    })
                })
                .collect::<Vec<_>>()
        };
        let a = run(&p);
        let b = run(&p);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().any(|d| d.is_some()), "p = 0.5 over 64 draws");
        assert!(a.iter().any(|d| d.is_none()));
        // A non-matching opcode never draws and never faults.
        let mut draws = 0;
        assert_eq!(
            p.decide(FLUSH, || {
                draws += 1;
                0
            }),
            None
        );
        assert_eq!(draws, 0, "non-matching rules must not consume the stream");
    }

    #[test]
    fn specific_rules_win_over_wildcards_in_clause_order() {
        let p = FaultPolicy::parse("ingest.drop=1.0, *.error=1.0").expect("valid");
        assert_eq!(p.decide(INGEST, || 0), Some(FaultKind::Drop));
        assert_eq!(p.decide(FLUSH, || 0), Some(FaultKind::ErrorReply));
    }

    #[test]
    fn every_opcode_name_arms_a_fault_for_that_opcode_only() {
        for &(opcode, name) in OPCODES {
            let p = FaultPolicy::parse(&format!("{name}.error=1"))
                .unwrap_or_else(|e| panic!("'{name}' must parse: {e}"));
            for &(other, _) in OPCODES {
                let fired = p.decide(other, || 0).is_some();
                assert_eq!(fired, other == opcode, "'{name}' rule vs opcode {other}");
            }
        }
    }
}
