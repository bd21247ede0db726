//! Scenario construction: the general [`ScenarioSpec`] (from
//! `amrviz-recipe`) is the unit of experiment; the paper's two
//! applications (§3.2, Table 1) are its canonical instances.

use amrviz_amr::resample::{flatten_to_finest, Upsample};
use amrviz_amr::{AmrHierarchy, UniformField};
use amrviz_recipe::Family;
pub use amrviz_recipe::ScenarioSpec;
use amrviz_sim::Scale;

/// Which AMR application's data to emulate — the paper's original
/// two-point workload sample, kept as a convenience constructor over
/// [`ScenarioSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Application {
    /// Nyx cosmology — irregular, spiky density field.
    Nyx,
    /// WarpX PIC — smooth electromagnetic field.
    Warpx,
}

impl Application {
    pub fn label(self) -> &'static str {
        match self {
            Application::Nyx => "Nyx",
            Application::Warpx => "WarpX",
        }
    }

    /// The field the paper evaluates (Table 2, Figs. 12–13).
    pub fn eval_field(self) -> &'static str {
        match self {
            Application::Nyx => "baryon_density",
            Application::Warpx => "Ez",
        }
    }

    /// The canonical [`ScenarioSpec`] for this application.
    pub fn spec(self, scale: Scale, seed: u64) -> ScenarioSpec {
        let family = match self {
            Application::Nyx => Family::Nyx,
            Application::Warpx => Family::Warpx,
        };
        ScenarioSpec::paper(family, scale, seed)
    }

    pub const ALL: [Application; 2] = [Application::Warpx, Application::Nyx];
}

/// A generated scenario: the hierarchy plus evaluation conveniences.
pub struct BuiltScenario {
    pub spec: ScenarioSpec,
    pub hierarchy: AmrHierarchy,
    /// The evaluation field, merged to finest uniform resolution (redundant
    /// coarse data omitted — the standard post-analysis form, Fig. 3).
    pub uniform: UniformField,
    /// Iso-value for surface extraction, chosen as a fixed quantile of the
    /// uniform data so it is meaningful at every scale and crosses the
    /// coarse/fine interface.
    pub iso: f64,
}

impl BuiltScenario {
    /// Generates any spec — paper app or recipe-expanded — into its
    /// evaluation context.
    pub fn from_spec(spec: ScenarioSpec) -> BuiltScenario {
        let hierarchy = spec.generate();
        let field = spec.eval_field();
        let uniform = flatten_to_finest(&hierarchy, field, Upsample::PiecewiseConstant)
            .expect("scenario always carries its evaluation field");
        // Nyx-like: over-density surface spanning refined and unrefined
        // regions. WarpX-like: low positive Ez level wrapping the pulse
        // (fine) and decaying wake (coarse), crossing the interface.
        let iso = amrviz_sim::quantile(&uniform.data, spec.iso_quantile());
        BuiltScenario {
            spec,
            hierarchy,
            uniform,
            iso,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_viz::{extract_amr_isosurface, IsoMethod};

    #[test]
    fn both_apps_build_at_tiny_scale() {
        for app in Application::ALL {
            let built = BuiltScenario::from_spec(app.spec(Scale::Tiny, 1));
            assert_eq!(built.hierarchy.num_levels(), 2);
            assert!(!built.uniform.data.is_empty());
            let (lo, hi) = built.uniform.min_max();
            assert!(
                lo < built.iso && built.iso < hi,
                "{app:?} iso outside range"
            );
        }
    }

    #[test]
    fn iso_surface_crosses_the_level_interface() {
        // The crack/gap analysis is only meaningful if both levels produce
        // triangles at the chosen iso-value.
        for app in Application::ALL {
            let built = BuiltScenario::from_spec(app.spec(Scale::Tiny, 1));
            let field = built.spec.eval_field();
            let levels = &built.hierarchy.field(field).unwrap().levels;
            let res =
                extract_amr_isosurface(&built.hierarchy, levels, built.iso, IsoMethod::Resampling);
            assert!(
                res.level_meshes[0].num_triangles() > 0,
                "{app:?}: no coarse surface"
            );
            assert!(
                res.level_meshes[1].num_triangles() > 0,
                "{app:?}: no fine surface"
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Application::Nyx.label(), "Nyx");
        assert_eq!(Application::Warpx.eval_field(), "Ez");
        assert_eq!(Application::Nyx.spec(Scale::Tiny, 1).label(), "Nyx");
    }

    #[test]
    fn recipe_specs_build_too() {
        let exp = amrviz_recipe::expand(
            "(scenario (family (grf -2.0)) (topology scattered) (levels 3))",
            42,
        )
        .unwrap();
        let built = BuiltScenario::from_spec(exp.specs[0].clone());
        assert_eq!(built.hierarchy.num_levels(), 3);
        let (lo, hi) = built.uniform.min_max();
        assert!(lo < built.iso && built.iso < hi);
        assert!(built.spec.recipe.contains("(seed "));
    }
}
