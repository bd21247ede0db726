//! Recipe expansion: `plug` substitution and `union` concatenation over
//! concrete `(scenario ...)` terms, in the style of Ruler's enumo
//! workload grammar.
//!
//! ```text
//! recipe   := term+                         ; top level terms concatenate
//! term     := scenario | plug | union
//! scenario := (scenario clause*)
//! plug     := (plug VAR (value+) term+)     ; VAR substituted everywhere
//! union    := (union term+)
//! ```
//!
//! Nested `plug`s form cross-products; combinations violating an
//! exclusion rule ([`ScenarioSpec::excluded`]) are dropped (and counted).
//! Every surviving spec is seeded deterministically: the canonical
//! unseeded recipe string is FNV-1a hashed into a `crates/rng` fork
//! stream of the base seed, so a spec's seed depends only on *what* it
//! is, never on its position in the expansion. An explicit `(seed N)`
//! clause overrides the derivation.

use crate::sexp::{parse, Sexp};
use crate::spec::ScenarioSpec;
use amrviz_rng::Rng;

/// The result of expanding a recipe.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// Concrete, seeded specs, in expansion order.
    pub specs: Vec<ScenarioSpec>,
    /// `(recipe, reason)` per combination dropped by an exclusion rule.
    pub excluded: Vec<(String, &'static str)>,
}

/// Parses and expands a recipe source against a base seed.
pub fn expand(src: &str, base_seed: u64) -> Result<Expansion, String> {
    let terms = parse(src)?;
    let mut concrete = Vec::new();
    for term in &terms {
        expand_term(term, &mut concrete)?;
    }
    let mut specs = Vec::new();
    let mut excluded = Vec::new();
    for term in &concrete {
        let (mut spec, explicit_seed) = ScenarioSpec::from_scenario_sexp(term)?;
        if !explicit_seed {
            spec.seed = derive_seed(base_seed, &spec.canonical_unseeded().to_string());
        }
        spec.recipe = spec.canonical().to_string();
        if let Some(reason) = spec.excluded() {
            excluded.push((spec.recipe, reason));
        } else {
            specs.push(spec);
        }
    }
    Ok(Expansion { specs, excluded })
}

/// Seed for a spec: a fork stream of the base seed keyed by the canonical
/// unseeded recipe string's FNV-1a hash.
fn derive_seed(base_seed: u64, canonical_unseeded: &str) -> u64 {
    Rng::seed(base_seed)
        .fork(amrviz_rng::fnv1a_64(canonical_unseeded.as_bytes()))
        .next_u64()
}

/// Expands one term into concrete scenario sexps.
fn expand_term(term: &Sexp, out: &mut Vec<Sexp>) -> Result<(), String> {
    match term.head() {
        Some("scenario") => {
            out.push(term.clone());
            Ok(())
        }
        Some("union") => {
            for t in &term.as_list().unwrap()[1..] {
                expand_term(t, out)?;
            }
            Ok(())
        }
        Some("plug") => {
            let items = term.as_list().unwrap();
            if items.len() < 4 {
                return Err(format!(
                    "(plug VAR (value+) term+) needs a variable, values, and a body: `{term}`"
                ));
            }
            let var = items[1]
                .as_atom()
                .ok_or_else(|| format!("plug variable must be an atom in `{term}`"))?;
            let values = items[2]
                .as_list()
                .ok_or_else(|| format!("plug values must be a list in `{term}`"))?;
            if values.is_empty() {
                return Err(format!("plug values are empty in `{term}`"));
            }
            for value in values {
                for body in &items[3..] {
                    expand_term(&substitute(body, var, value), out)?;
                }
            }
            Ok(())
        }
        _ => Err(format!(
            "expected (scenario ...), (plug ...), or (union ...), got `{term}`"
        )),
    }
}

/// Replaces every atom equal to `var` with `value`, recursively.
fn substitute(term: &Sexp, var: &str, value: &Sexp) -> Sexp {
    match term {
        Sexp::Atom(a) if a == var => value.clone(),
        Sexp::Atom(_) => term.clone(),
        Sexp::List(items) => Sexp::List(items.iter().map(|t| substitute(t, var, value)).collect()),
    }
}

/// The built-in enumerated suite: 4 families × 4 topologies × 2 level
/// counts = 32 scenarios from four recipe lines (no exclusions fire:
/// every combination has ≥ 2 levels at tiny scale).
pub const ENUMERATED_SUITE: &str = "\
(plug F (nyx warpx (grf -1.5) (grf -3.0))
  (plug T (nested slab scattered degenerate)
    (plug L (2 3)
      (scenario (family F) (topology T) (levels L)))))";

/// The pinned 6-scenario subset golden-locked in `tests/golden/` and run
/// by the `enumerated-smoke` CI job: one representative per topology,
/// plus a shock and an anisotropic variant.
pub const PINNED_SUBSET: &str = "\
(scenario (family nyx) (topology nested) (levels 3))
(scenario (family warpx) (topology slab) (levels 2))
(scenario (family (grf -1.5)) (topology scattered) (levels 3))
(scenario (family (grf -3.0)) (topology degenerate) (levels 2))
(scenario (family (grf -2.0)) (topology nested) (levels 2) (shock on))
(scenario (family warpx) (topology slab) (levels 2) (aniso stretched))";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_suite_expands_to_32_distinct_scenarios() {
        let exp = expand(ENUMERATED_SUITE, 42).unwrap();
        assert_eq!(exp.specs.len(), 32);
        assert!(exp.excluded.is_empty());
        let mut labels: Vec<String> = exp.specs.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 32, "labels collide");
    }

    #[test]
    fn pinned_subset_expands_to_6() {
        let exp = expand(PINNED_SUBSET, 42).unwrap();
        assert_eq!(exp.specs.len(), 6);
        assert!(exp.excluded.is_empty());
    }

    #[test]
    fn exclusions_are_counted_not_errors() {
        let src = "(plug T (nested slab scattered degenerate)
                     (plug L (1 2) (scenario (topology T) (levels L))))";
        let exp = expand(src, 7).unwrap();
        // 4×2 = 8 combinations; levels-1 non-nested drops 3.
        assert_eq!(exp.specs.len(), 5);
        assert_eq!(exp.excluded.len(), 3);
        for (_, reason) in &exp.excluded {
            assert!(reason.contains("nested"));
        }
    }

    #[test]
    fn seeds_depend_on_content_not_position() {
        let a = expand("(scenario (family nyx) (levels 3))", 42).unwrap();
        let b = expand(
            "(scenario (family warpx))\n(scenario (family nyx) (levels 3))",
            42,
        )
        .unwrap();
        assert_eq!(a.specs[0], b.specs[1]);
    }

    #[test]
    fn base_seed_changes_derived_seeds_but_not_explicit_ones() {
        let src = "(scenario (family nyx) (levels 3))";
        let a = expand(src, 1).unwrap();
        let b = expand(src, 2).unwrap();
        assert_ne!(a.specs[0].seed, b.specs[0].seed);
        let src = "(scenario (family nyx) (levels 3) (seed 99))";
        let a = expand(src, 1).unwrap();
        let b = expand(src, 2).unwrap();
        assert_eq!(a.specs[0].seed, 99);
        assert_eq!(a.specs[0], b.specs[0]);
    }

    #[test]
    fn union_concatenates() {
        let exp = expand(
            "(union (scenario (family nyx)) (scenario (family warpx)))",
            3,
        )
        .unwrap();
        assert_eq!(exp.specs.len(), 2);
    }

    #[test]
    fn plug_substitutes_inside_nested_lists() {
        let exp = expand("(plug A (-1.5 -3.0) (scenario (family (grf A))))", 3).unwrap();
        assert_eq!(exp.specs.len(), 2);
        assert!(exp.specs[0].recipe.contains("grf -1.5"));
    }

    #[test]
    fn malformed_recipes_error() {
        assert!(expand("(plug X (scenario))", 1).is_err());
        assert!(expand("(plug X () (scenario (family X)))", 1).is_err());
        assert!(expand("(frobnicate)", 1).is_err());
        assert!(expand("atom-at-top-level", 1).is_err());
    }
}
