//! Deterministic fault injection and resilience policy.
//!
//! The methodology flow assumes every ISS measurement succeeds. A
//! production-scale platform must keep characterizing, exploring and
//! selecting even when a kernel diverges, a cache line is poisoned or
//! the simulated hardware misbehaves. This crate supplies the two
//! halves of that robustness story:
//!
//! * **Injection** — a [`FaultPlan`] is a seeded, stream-addressed
//!   source of fault decisions that the XR32 ISS consults at four
//!   architectural sites ([`FaultSite`]): data-memory loads, the
//!   register file, cache tags, and custom-instruction results. Every
//!   decision is a pure function of `(seed, stream, draw index)`, so a
//!   campaign with a fixed seed is byte-identical on any host at any
//!   thread count.
//! * **Policy** — a [`FaultPolicy`] tells the flow layer how to react
//!   to measurement failures: how many reseeded retries to attempt on
//!   a divergence, when to quarantine a kernel, and what cycle budget
//!   bounds a runaway (corrupted) kernel.
//!
//! Like `xobs`, this crate is dependency-free; `xr32` and `secproc`
//! depend on it, never the reverse.

use std::fmt;

/// Architectural sites where a [`FaultPlan`] can inject faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// Bit-flips in values loaded from data memory.
    DataMem,
    /// Bit-flips in a register after an instruction retires.
    RegFile,
    /// Cache-tag corruption: a lookup that should hit is forced to
    /// miss (the tag was corrupted, so the line no longer matches).
    CacheTag,
    /// Stuck-at faults in the result of a custom instruction.
    CustomResult,
}

impl FaultSite {
    /// All sites, in canonical order.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::DataMem,
        FaultSite::RegFile,
        FaultSite::CacheTag,
        FaultSite::CustomResult,
    ];

    /// The short name used in `WSP_FAULTS` specs and campaign reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::DataMem => "data",
            FaultSite::RegFile => "reg",
            FaultSite::CacheTag => "tag",
            FaultSite::CustomResult => "custom",
        }
    }

    /// Parses a short site name (see [`FaultSite::name`]).
    pub fn parse(s: &str) -> Option<FaultSite> {
        match s {
            "data" => Some(FaultSite::DataMem),
            "reg" => Some(FaultSite::RegFile),
            "tag" => Some(FaultSite::CacheTag),
            "custom" => Some(FaultSite::CustomResult),
            _ => None,
        }
    }

    fn bit(self) -> u8 {
        match self {
            FaultSite::DataMem => 1,
            FaultSite::RegFile => 2,
            FaultSite::CacheTag => 4,
            FaultSite::CustomResult => 8,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// sebastiano vigna's splitmix64 — the statelessly seedable generator
/// behind every fault decision. One step per draw keeps decisions a
/// pure function of the draw index.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A reproducible fault-campaign specification: the seed, the injection
/// rate, and the set of sites to attack.
///
/// The spec is the *identity* of a campaign; a [`FaultPlan`] is derived
/// from it per measurement unit via [`PlanSpec::plan`], keyed by a
/// caller-chosen stream id, so concurrent units draw from independent
/// deterministic streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSpec {
    /// Campaign seed. Same seed, same spec, same stream → identical
    /// injections.
    pub seed: u64,
    /// Injection probability per opportunity, in parts per million.
    /// Integer so specs hash/compare exactly.
    pub rate_ppm: u32,
    /// Bitmask of enabled [`FaultSite`]s.
    sites: u8,
}

impl PlanSpec {
    /// A spec attacking `sites` at `rate_ppm` with `seed`.
    pub fn new(seed: u64, rate_ppm: u32, sites: &[FaultSite]) -> Self {
        let mut mask = 0u8;
        for s in sites {
            mask |= s.bit();
        }
        PlanSpec {
            seed,
            rate_ppm,
            sites: mask,
        }
    }

    /// A spec attacking every site.
    pub fn all_sites(seed: u64, rate_ppm: u32) -> Self {
        Self::new(seed, rate_ppm, &FaultSite::ALL)
    }

    /// Whether `site` is enabled.
    pub fn targets(&self, site: FaultSite) -> bool {
        self.sites & site.bit() != 0
    }

    /// The enabled sites, in canonical order.
    pub fn sites(&self) -> Vec<FaultSite> {
        FaultSite::ALL
            .into_iter()
            .filter(|s| self.targets(*s))
            .collect()
    }

    /// Derives the per-unit [`FaultPlan`] for `stream`. Distinct
    /// streams (e.g. one per kernel × size × attempt) yield independent
    /// deterministic decision sequences from the same campaign seed.
    pub fn plan(&self, stream: u64) -> FaultPlan {
        // Mix seed and stream through one splitmix step each so
        // adjacent streams land far apart in the state space.
        let mut s = self.seed;
        let a = splitmix64(&mut s);
        let mut s = stream.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
        let b = splitmix64(&mut s);
        FaultPlan {
            spec: *self,
            state: a ^ b,
            fired: [0; 4],
        }
    }

    /// Parses a `WSP_FAULTS`-style spec: comma-separated
    /// `seed=<u64>`, `rate=<ppm>`, `sites=<name+name+...>` fields, e.g.
    /// `seed=7,rate=20000,sites=data+custom`. Omitted fields default to
    /// seed 1, rate 10000 ppm, all sites; an empty `sites=` enables
    /// none. A rate above 1000000 ppm (certainty) is an error.
    pub fn parse(spec: &str) -> Result<PlanSpec, String> {
        let mut seed = 1u64;
        let mut rate_ppm = 10_000u32;
        let mut sites = FaultSite::ALL.to_vec();
        for field in spec.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| format!("fault spec field `{field}` is not key=value"))?;
            match k.trim() {
                "seed" => {
                    seed = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad fault seed `{v}`"))?;
                }
                "rate" => {
                    rate_ppm = v
                        .trim()
                        .parse()
                        .ok()
                        .filter(|&ppm| ppm <= 1_000_000)
                        .ok_or_else(|| format!("bad fault rate `{v}` (0 to 1000000 ppm)"))?;
                }
                "sites" if v.trim().is_empty() => sites.clear(),
                "sites" => {
                    sites = v
                        .split('+')
                        .map(|s| {
                            FaultSite::parse(s.trim())
                                .ok_or_else(|| format!("unknown fault site `{s}`"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        Ok(PlanSpec::new(seed, rate_ppm, &sites))
    }

    /// Reads a spec from the `WSP_FAULTS` environment variable.
    /// `None` when unset or empty; `Err` when set but malformed.
    pub fn from_env() -> Result<Option<PlanSpec>, String> {
        match std::env::var("WSP_FAULTS") {
            Ok(s) if !s.trim().is_empty() => PlanSpec::parse(&s).map(Some),
            _ => Ok(None),
        }
    }
}

impl fmt::Display for PlanSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sites: Vec<&str> = self.sites().iter().map(|s| s.name()).collect();
        write!(
            f,
            "seed={},rate={},sites={}",
            self.seed,
            self.rate_ppm,
            sites.join("+")
        )
    }
}

/// A live, per-unit fault injector: the decision stream the ISS
/// consults at each opportunity.
///
/// Each hook consumes exactly one deterministic draw per opportunity
/// (two when the fault fires, to pick the corruption), so the decision
/// at opportunity *k* never depends on host, thread count, or what
/// other units are doing.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: PlanSpec,
    state: u64,
    fired: [u64; 4],
}

impl FaultPlan {
    fn site_index(site: FaultSite) -> usize {
        match site {
            FaultSite::DataMem => 0,
            FaultSite::RegFile => 1,
            FaultSite::CacheTag => 2,
            FaultSite::CustomResult => 3,
        }
    }

    /// The spec this plan was derived from.
    pub fn spec(&self) -> &PlanSpec {
        &self.spec
    }

    /// One Bernoulli draw at the campaign rate for `site`; `false`
    /// without consuming a draw when the site is disabled.
    fn fires(&mut self, site: FaultSite) -> bool {
        if !self.spec.targets(site) {
            return false;
        }
        let draw = splitmix64(&mut self.state);
        // Map the draw to [0, 1e6) and compare against the ppm rate.
        let hit = draw % 1_000_000 < u64::from(self.spec.rate_ppm);
        if hit {
            self.fired[Self::site_index(site)] += 1;
        }
        hit
    }

    /// Data-memory load hook: returns `value` possibly with one bit
    /// flipped.
    pub fn data(&mut self, value: u32) -> u32 {
        if self.fires(FaultSite::DataMem) {
            let bit = splitmix64(&mut self.state) % 32;
            value ^ (1u32 << bit)
        } else {
            value
        }
    }

    /// Register-file hook, called once per retired instruction:
    /// `Some((reg, mask))` means XOR register `reg` with `mask`.
    pub fn regfile(&mut self, num_regs: usize) -> Option<(usize, u32)> {
        if self.fires(FaultSite::RegFile) {
            let draw = splitmix64(&mut self.state);
            let reg = (draw as usize) % num_regs.max(1);
            let bit = (draw >> 32) % 32;
            Some((reg, 1u32 << bit))
        } else {
            None
        }
    }

    /// Cache-tag hook, called once per cache access: `true` means the
    /// addressed line's tag has been corrupted and the line must be
    /// invalidated before the lookup (forcing a miss).
    pub fn cache_tag(&mut self) -> bool {
        self.fires(FaultSite::CacheTag)
    }

    /// Custom-instruction result hook: `Some(mask)` means OR the
    /// destination register with `mask` (a stuck-at-one fault on one
    /// result line).
    pub fn custom_result(&mut self) -> Option<u32> {
        if self.fires(FaultSite::CustomResult) {
            let bit = splitmix64(&mut self.state) % 32;
            Some(1u32 << bit)
        } else {
            None
        }
    }

    /// Faults actually injected at `site` so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.fired[Self::site_index(site)]
    }

    /// Total faults injected across all sites.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }
}

/// Default bound on reseeded retries after a divergent measurement.
pub const DEFAULT_MAX_RETRIES: u32 = 2;
/// Default number of failed units before a kernel is quarantined.
const DEFAULT_QUARANTINE_AFTER: u32 = 2;
/// Default cycle budget for a single kernel call under fault injection
/// (a corrupted loop must time out, not hang the pool).
pub const DEFAULT_CYCLE_BUDGET: u64 = 50_000_000;

/// How the flow layer reacts to measurement failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Bounded reseeded-stimulus retries per failed unit.
    pub max_retries: u32,
    /// Failed units before the kernel is quarantined (0 disables
    /// quarantine).
    pub quarantine_after: u32,
    /// Instruction budget per kernel call; exceeding it is a typed
    /// timeout. `u64::MAX` disables the watchdog.
    pub cycle_budget: u64,
    /// The injection campaign, if any. `None` is the production
    /// default: no injection, watchdog still armed.
    pub plan: Option<PlanSpec>,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: DEFAULT_MAX_RETRIES,
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            cycle_budget: DEFAULT_CYCLE_BUDGET,
            plan: None,
        }
    }
}

impl FaultPolicy {
    /// The default policy with an injection campaign attached.
    pub fn with_plan(spec: PlanSpec) -> Self {
        FaultPolicy {
            plan: Some(spec),
            ..FaultPolicy::default()
        }
    }

    /// Builds the policy from the environment: `WSP_FAULTS` supplies
    /// the campaign spec (see [`PlanSpec::parse`]); a malformed spec
    /// falls back to no injection rather than aborting the run.
    pub fn from_env() -> Self {
        match PlanSpec::from_env() {
            Ok(plan) => FaultPolicy {
                plan,
                ..FaultPolicy::default()
            },
            Err(e) => {
                eprintln!("xfault: ignoring malformed WSP_FAULTS: {e}");
                FaultPolicy::default()
            }
        }
    }

    /// Whether any injection campaign is active.
    pub fn injecting(&self) -> bool {
        self.plan.is_some()
    }

    /// The deterministic stimulus seed for retry `attempt` (attempt 0
    /// is the original seed). The backoff sequence is a pure function
    /// of the original seed so reports can record and replay it.
    pub fn retry_seed(&self, original: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            return original;
        }
        let mut s = original ^ (u64::from(attempt)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        splitmix64(&mut s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_round_trip_names() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
        }
        assert_eq!(FaultSite::parse("bogus"), None);
    }

    #[test]
    fn spec_parses_fields_and_defaults() {
        let spec = PlanSpec::parse("seed=7,rate=20000,sites=data+custom").unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.rate_ppm, 20_000);
        assert!(spec.targets(FaultSite::DataMem));
        assert!(spec.targets(FaultSite::CustomResult));
        assert!(!spec.targets(FaultSite::RegFile));
        assert!(!spec.targets(FaultSite::CacheTag));

        let dflt = PlanSpec::parse("").unwrap();
        assert_eq!(dflt.seed, 1);
        assert_eq!(dflt.rate_ppm, 10_000);
        assert_eq!(dflt.sites(), FaultSite::ALL.to_vec());

        assert!(PlanSpec::parse("seed=x").is_err());
        assert!(PlanSpec::parse("sites=warp").is_err());
        assert!(PlanSpec::parse("nonsense").is_err());
    }

    #[test]
    fn spec_display_round_trips() {
        let spec = PlanSpec::new(42, 1234, &[FaultSite::RegFile, FaultSite::CacheTag]);
        let round = PlanSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(round, spec);
    }

    #[test]
    fn same_seed_same_stream_identical_decisions() {
        let spec = PlanSpec::all_sites(99, 500_000);
        let mut a = spec.plan(3);
        let mut b = spec.plan(3);
        for i in 0..1000u32 {
            assert_eq!(a.data(i), b.data(i));
            assert_eq!(a.regfile(16), b.regfile(16));
            assert_eq!(a.cache_tag(), b.cache_tag());
            assert_eq!(a.custom_result(), b.custom_result());
        }
        assert_eq!(a.total_fired(), b.total_fired());
        assert!(a.total_fired() > 0, "a 50% rate must fire in 4000 draws");
    }

    #[test]
    fn distinct_streams_decorrelate() {
        let spec = PlanSpec::all_sites(99, 500_000);
        let mut a = spec.plan(0);
        let mut b = spec.plan(1);
        let mut differs = false;
        for i in 0..200u32 {
            if a.data(i) != b.data(i) {
                differs = true;
            }
        }
        assert!(differs, "independent streams must diverge");
    }

    #[test]
    fn rate_zero_never_fires_rate_max_always_fires() {
        let spec = PlanSpec::all_sites(1, 0);
        let mut p = spec.plan(0);
        for i in 0..100 {
            assert_eq!(p.data(i), i);
        }
        assert_eq!(p.total_fired(), 0);

        let spec = PlanSpec::all_sites(1, 1_000_000);
        let mut p = spec.plan(0);
        for i in 0..100u32 {
            assert_ne!(p.data(i), i, "a certain fault must flip a bit");
        }
        assert_eq!(p.fired(FaultSite::DataMem), 100);
    }

    #[test]
    fn disabled_site_costs_no_draws() {
        // A data-only plan's data decisions must not shift when the
        // other hooks are interleaved (they draw nothing).
        let spec = PlanSpec::new(5, 250_000, &[FaultSite::DataMem]);
        let mut solo = spec.plan(7);
        let solo_vals: Vec<u32> = (0..64).map(|i| solo.data(i)).collect();
        let mut mixed = spec.plan(7);
        let mut mixed_vals = Vec::new();
        for i in 0..64 {
            assert!(mixed.regfile(16).is_none());
            assert!(!mixed.cache_tag());
            mixed_vals.push(mixed.data(i));
            assert!(mixed.custom_result().is_none());
        }
        assert_eq!(solo_vals, mixed_vals);
    }

    #[test]
    fn retry_seeds_are_deterministic_and_distinct() {
        let policy = FaultPolicy::default();
        assert_eq!(policy.retry_seed(42, 0), 42);
        let s1 = policy.retry_seed(42, 1);
        let s2 = policy.retry_seed(42, 2);
        assert_ne!(s1, 42);
        assert_ne!(s1, s2);
        assert_eq!(s1, policy.retry_seed(42, 1), "pure function of inputs");
    }

    #[test]
    fn policy_defaults_are_safe() {
        let p = FaultPolicy::default();
        assert!(!p.injecting());
        assert!(p.max_retries >= 1);
        assert!(p.cycle_budget > 1_000_000);
    }
}
