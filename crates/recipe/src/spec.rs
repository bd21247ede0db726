//! The scenario axes and the concrete [`ScenarioSpec`] a recipe expands
//! into — the unit of experiment across repro, torture, and the property
//! harness.

use crate::sexp::Sexp;
use amrviz_sim::Scale;

/// Field family — what kind of data fills the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Nyx-like: spiky log-normal density (paper §3.2).
    Nyx,
    /// WarpX-like: smooth laser-wakefield pulse (paper §3.2).
    Warpx,
    /// Gaussian-random-field-like mode sum with power spectrum `|k|^alpha`.
    Grf { alpha: f64 },
}

impl Family {
    pub fn label(&self) -> String {
        match self {
            Family::Nyx => "nyx".into(),
            Family::Warpx => "warpx".into(),
            Family::Grf { alpha } => format!("grf{alpha}"),
        }
    }

    fn to_sexp(self) -> Sexp {
        match self {
            Family::Nyx => Sexp::atom("nyx"),
            Family::Warpx => Sexp::atom("warpx"),
            Family::Grf { alpha } => {
                Sexp::list(vec![Sexp::atom("grf"), Sexp::Atom(format!("{alpha}"))])
            }
        }
    }

    fn from_sexp(s: &Sexp) -> Result<Family, String> {
        match s {
            Sexp::Atom(a) if a == "nyx" => Ok(Family::Nyx),
            Sexp::Atom(a) if a == "warpx" => Ok(Family::Warpx),
            Sexp::List(items) if s.head() == Some("grf") && items.len() == 2 => {
                let alpha: f64 = items[1]
                    .as_atom()
                    .ok_or("grf slope must be an atom")?
                    .parse()
                    .map_err(|e| format!("grf slope: {e}"))?;
                if !(-6.0..=0.0).contains(&alpha) {
                    return Err(format!("grf slope {alpha} outside [-6, 0]"));
                }
                Ok(Family::Grf { alpha })
            }
            other => Err(format!("unknown family `{other}`")),
        }
    }
}

/// Refinement topology — how fine boxes tile each refined level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// A single centered sub-box per level (classic nested refinement).
    Nested,
    /// A window along the longest axis (WarpX-style pulse-following).
    Slab,
    /// Several disjoint small boxes per level (fragmented tagging).
    Scattered,
    /// Scattered plus a 1×1×1 unaligned fine box at the finest level —
    /// the minimal box a `blocking_factor 1` regridder can emit.
    Degenerate,
}

impl Topology {
    pub const ALL: [Topology; 4] = [
        Topology::Nested,
        Topology::Slab,
        Topology::Scattered,
        Topology::Degenerate,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Topology::Nested => "nested",
            Topology::Slab => "slab",
            Topology::Scattered => "scattered",
            Topology::Degenerate => "degenerate",
        }
    }

    fn parse(s: &str) -> Option<Topology> {
        Topology::ALL.into_iter().find(|t| t.label() == s)
    }
}

/// Feature anisotropy: isotropic, or elongated along z on a 2× stretched
/// domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aniso {
    Iso,
    Stretched,
}

impl Aniso {
    pub fn label(self) -> &'static str {
        match self {
            Aniso::Iso => "iso",
            Aniso::Stretched => "stretched",
        }
    }
}

/// A fully concrete scenario: every axis pinned, deterministically seeded,
/// carrying its own recipe provenance string.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    pub family: Family,
    pub topology: Topology,
    /// Total level count, 1–4 (level 0 plus up to three refined levels).
    pub levels: usize,
    /// Number of fields generated (field 0 is the evaluation field).
    pub fields: usize,
    pub scale: Scale,
    pub aniso: Aniso,
    /// Whether a planar discontinuity cuts through every field.
    pub shock: bool,
    /// The fork-stream seed every generator draw descends from.
    pub seed: u64,
    /// Canonical recipe string (round-trips through the parser and pins
    /// `seed` explicitly, so this string alone reproduces the scenario).
    pub recipe: String,
}

impl ScenarioSpec {
    /// The canonical paper scenarios: Nyx baryon density / WarpX Ez on the
    /// hard-wired two-level generators.
    pub fn paper(family: Family, scale: Scale, seed: u64) -> ScenarioSpec {
        assert!(
            matches!(family, Family::Nyx | Family::Warpx),
            "paper scenarios are Nyx or WarpX"
        );
        let mut spec = ScenarioSpec {
            family,
            topology: Topology::Nested,
            levels: 2,
            fields: 1,
            scale,
            aniso: Aniso::Iso,
            shock: false,
            seed,
            recipe: String::new(),
        };
        spec.recipe = spec.canonical().to_string();
        spec
    }

    /// Whether this spec is a canonical paper scenario, routed to the
    /// dedicated Nyx/WarpX generators.
    pub fn is_paper(&self) -> bool {
        matches!(self.family, Family::Nyx | Family::Warpx)
            && self.topology == Topology::Nested
            && self.levels == 2
            && self.fields == 1
            && self.aniso == Aniso::Iso
            && !self.shock
    }

    /// Short human label: `Nyx`/`WarpX` for the paper scenarios, an
    /// axis-path otherwise (e.g. `grf-1.5/scattered/L3+shock`).
    pub fn label(&self) -> String {
        if self.is_paper() {
            return match self.family {
                Family::Nyx => "Nyx".into(),
                Family::Warpx => "WarpX".into(),
                Family::Grf { .. } => unreachable!(),
            };
        }
        let mut s = format!(
            "{}/{}/L{}",
            self.family.label(),
            self.topology.label(),
            self.levels
        );
        if self.shock {
            s.push_str("+shock");
        }
        if self.aniso == Aniso::Stretched {
            s.push_str("+aniso");
        }
        if self.fields > 1 {
            s.push_str(&format!("+f{}", self.fields));
        }
        if self.scale != Scale::Tiny {
            s.push('@');
            s.push_str(self.scale.label());
        }
        s
    }

    /// The evaluation field's name (field index 0).
    pub fn eval_field(&self) -> &'static str {
        match self.family {
            Family::Nyx => "baryon_density",
            Family::Warpx => "Ez",
            Family::Grf { .. } => "f0",
        }
    }

    /// Name of the `i`-th generated field.
    pub fn field_name(&self, i: usize) -> String {
        if i == 0 {
            self.eval_field().to_string()
        } else {
            format!("f{i}")
        }
    }

    /// Iso-surface quantile for extraction experiments (matches the seed
    /// apps: high for the smooth pulse, over-density for everything else).
    pub fn iso_quantile(&self) -> f64 {
        match self.family {
            Family::Warpx => 0.97,
            _ => 0.75,
        }
    }

    /// Why this axis combination is excluded from expansion, if it is.
    ///
    /// The two rules (documented in DESIGN.md "Scenario recipes"):
    /// 1. `levels 1` admits only `nested` topology — with no refined level
    ///    the other topologies describe structure that does not exist.
    /// 2. `levels 4` admits only `tiny` scale — the finest uniform
    ///    flattening is 8³ × the base resolution.
    pub fn excluded(&self) -> Option<&'static str> {
        if self.levels == 1 && self.topology != Topology::Nested {
            return Some("levels 1 admits only nested topology");
        }
        if self.levels == 4 && self.scale != Scale::Tiny {
            return Some("levels 4 admits only tiny scale");
        }
        None
    }

    /// Canonical sexp: every clause explicit, fixed order, seed pinned.
    pub fn canonical(&self) -> Sexp {
        let clause = |k: &str, v: Sexp| Sexp::list(vec![Sexp::atom(k), v]);
        Sexp::list(vec![
            Sexp::atom("scenario"),
            clause("family", self.family.to_sexp()),
            clause("topology", Sexp::atom(self.topology.label())),
            clause("levels", Sexp::Atom(self.levels.to_string())),
            clause("fields", Sexp::Atom(self.fields.to_string())),
            clause("scale", Sexp::atom(self.scale.label())),
            clause("aniso", Sexp::atom(self.aniso.label())),
            clause("shock", Sexp::atom(if self.shock { "on" } else { "none" })),
            clause("seed", Sexp::Atom(self.seed.to_string())),
        ])
    }

    /// Like [`Self::canonical`] but without the seed clause — the stable
    /// identity the fork-stream seed derivation hashes.
    pub fn canonical_unseeded(&self) -> Sexp {
        let Sexp::List(mut items) = self.canonical() else {
            unreachable!()
        };
        items.retain(|c| c.head() != Some("seed"));
        Sexp::List(items)
    }

    /// Parses a concrete `(scenario clause*)` term. Unset clauses take
    /// defaults (grf −2 / nested / 2 levels / 1 field / tiny / iso / no
    /// shock). Returns the spec plus whether a `(seed N)` clause pinned
    /// the seed explicitly (if not, the expander derives one).
    pub fn from_scenario_sexp(term: &Sexp) -> Result<(ScenarioSpec, bool), String> {
        if term.head() != Some("scenario") {
            return Err(format!("expected (scenario ...), got `{term}`"));
        }
        let mut spec = ScenarioSpec {
            family: Family::Grf { alpha: -2.0 },
            topology: Topology::Nested,
            levels: 2,
            fields: 1,
            scale: Scale::Tiny,
            aniso: Aniso::Iso,
            shock: false,
            seed: 0,
            recipe: String::new(),
        };
        let mut explicit_seed = false;
        let mut seen: Vec<&str> = Vec::new();
        for clause in &term.as_list().unwrap()[1..] {
            let items = clause
                .as_list()
                .ok_or_else(|| format!("scenario clause must be a list, got `{clause}`"))?;
            let key = clause
                .head()
                .ok_or_else(|| format!("clause head must be an atom in `{clause}`"))?;
            if items.len() != 2 {
                return Err(format!("clause `{clause}` takes exactly one value"));
            }
            if seen.contains(&key) {
                return Err(format!("duplicate clause `{key}`"));
            }
            let val = &items[1];
            let atom = || {
                val.as_atom()
                    .ok_or(format!("`{key}` value must be an atom"))
            };
            match key {
                "family" => spec.family = Family::from_sexp(val)?,
                "topology" => {
                    spec.topology = Topology::parse(atom()?)
                        .ok_or_else(|| format!("unknown topology `{val}`"))?
                }
                "levels" => {
                    spec.levels = atom()?.parse().map_err(|e| format!("levels: {e}"))?;
                    if !(1..=4).contains(&spec.levels) {
                        return Err(format!("levels {} outside 1–4", spec.levels));
                    }
                }
                "fields" => {
                    spec.fields = atom()?.parse().map_err(|e| format!("fields: {e}"))?;
                    if !(1..=4).contains(&spec.fields) {
                        return Err(format!("fields {} outside 1–4", spec.fields));
                    }
                }
                "scale" => {
                    spec.scale =
                        Scale::parse(atom()?).ok_or_else(|| format!("unknown scale `{val}`"))?
                }
                "aniso" => {
                    spec.aniso = match atom()? {
                        "iso" => Aniso::Iso,
                        "stretched" => Aniso::Stretched,
                        other => return Err(format!("unknown aniso `{other}`")),
                    }
                }
                "shock" => {
                    spec.shock = match atom()? {
                        "none" | "off" => false,
                        "on" | "shock" => true,
                        other => return Err(format!("unknown shock `{other}`")),
                    }
                }
                "seed" => {
                    spec.seed = atom()?.parse().map_err(|e| format!("seed: {e}"))?;
                    explicit_seed = true;
                }
                other => return Err(format!("unknown clause `{other}`")),
            }
            seen.push(key);
        }
        Ok((spec, explicit_seed))
    }

    /// Draws one random spec from the recipe space (tiny scale only, so
    /// sampling harnesses stay fast) with exclusions respected. The
    /// spec's `recipe` string pins the drawn seed, so printing it is a
    /// complete reproduction recipe.
    pub fn sample(rng: &mut amrviz_rng::Rng) -> ScenarioSpec {
        let family = match rng.below(4) {
            0 => Family::Nyx,
            1 => Family::Warpx,
            2 => Family::Grf { alpha: -1.5 },
            _ => Family::Grf { alpha: -3.0 },
        };
        let topology = Topology::ALL[rng.below(4) as usize];
        // Levels 2–4: level-1 specs only pair with nested topology and
        // exercise no inter-level machinery worth fuzzing.
        let levels = 2 + rng.below(3) as usize;
        let fields = 1 + rng.below(2) as usize;
        let aniso = if rng.chance(0.25) {
            Aniso::Stretched
        } else {
            Aniso::Iso
        };
        let shock = rng.chance(0.25);
        let mut spec = ScenarioSpec {
            family,
            topology,
            levels,
            fields,
            scale: Scale::Tiny,
            aniso,
            shock,
            seed: rng.next_u64(),
            recipe: String::new(),
        };
        debug_assert!(spec.excluded().is_none());
        spec.recipe = spec.canonical().to_string();
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sexp::parse;

    #[test]
    fn canonical_round_trips() {
        let spec = ScenarioSpec {
            family: Family::Grf { alpha: -1.5 },
            topology: Topology::Scattered,
            levels: 3,
            fields: 2,
            scale: Scale::Tiny,
            aniso: Aniso::Stretched,
            shock: true,
            seed: 0xDEAD,
            recipe: String::new(),
        };
        let printed = spec.canonical().to_string();
        let terms = parse(&printed).unwrap();
        let (back, explicit) = ScenarioSpec::from_scenario_sexp(&terms[0]).unwrap();
        assert!(explicit);
        assert_eq!(back.canonical(), spec.canonical());
    }

    #[test]
    fn defaults_fill_unset_clauses() {
        let terms = parse("(scenario (family warpx))").unwrap();
        let (spec, explicit) = ScenarioSpec::from_scenario_sexp(&terms[0]).unwrap();
        assert!(!explicit);
        assert_eq!(spec.family, Family::Warpx);
        assert_eq!(spec.levels, 2);
        assert_eq!(spec.topology, Topology::Nested);
        assert!(spec.is_paper());
    }

    #[test]
    fn exclusion_rules() {
        let mk = |levels, topology, scale| ScenarioSpec {
            family: Family::Grf { alpha: -2.0 },
            topology,
            levels,
            fields: 1,
            scale,
            aniso: Aniso::Iso,
            shock: false,
            seed: 0,
            recipe: String::new(),
        };
        assert!(mk(1, Topology::Slab, Scale::Tiny).excluded().is_some());
        assert!(mk(1, Topology::Nested, Scale::Tiny).excluded().is_none());
        assert!(mk(4, Topology::Nested, Scale::Small).excluded().is_some());
        assert!(mk(4, Topology::Nested, Scale::Tiny).excluded().is_none());
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "(scenario (family mars))",
            "(scenario (levels 9))",
            "(scenario (levels 2) (levels 3))",
            "(scenario (topology diagonal))",
            "(scenario (family (grf 2.0)))", // positive slope
            "(scenario (wibble 3))",
        ] {
            let terms = parse(bad).unwrap();
            assert!(
                ScenarioSpec::from_scenario_sexp(&terms[0]).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn paper_specs_and_labels() {
        let nyx = ScenarioSpec::paper(Family::Nyx, Scale::Tiny, 42);
        assert!(nyx.is_paper());
        assert_eq!(nyx.label(), "Nyx");
        assert_eq!(nyx.eval_field(), "baryon_density");
        let mut other = nyx.clone();
        other.levels = 3;
        assert!(!other.is_paper());
        assert_eq!(other.label(), "nyx/nested/L3");
    }

    #[test]
    fn sampled_specs_are_valid_and_reproducible() {
        let mut rng = amrviz_rng::Rng::seed(11);
        for _ in 0..50 {
            let spec = ScenarioSpec::sample(&mut rng);
            assert!(spec.excluded().is_none());
            // The recipe string alone reproduces the spec.
            let terms = parse(&spec.recipe).unwrap();
            let (back, explicit) = ScenarioSpec::from_scenario_sexp(&terms[0]).unwrap();
            assert!(explicit);
            assert_eq!(back.seed, spec.seed);
            assert_eq!(back.canonical(), spec.canonical());
        }
    }
}
