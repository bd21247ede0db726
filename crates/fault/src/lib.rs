//! Deterministic fault injection for the compression → visualization
//! pipeline.
//!
//! Decoders in this workspace promise: **any** byte stream either decodes
//! or returns an `Err` — no panics, no unbounded allocation, under a
//! [`amrviz_codec::DecodeBudget`]. The server promises no panic, no data
//! frame after its deadline, and no damaged data served as clean. This
//! crate is the enforcement arm of both promises:
//!
//! * [`Mutation`] / [`mutate_stream`] — seeded corruption of byte streams
//!   (bit flips, truncation, byte swaps, section duplication, varint
//!   length inflation), reproducible from a single `u64` seed;
//! * [`run_torture`] — feeds mutated streams to every public decoder
//!   (varint, bitio, huffman on plain and on run-heavy codes, LZSS, the
//!   three field compressors, zMesh, the hierarchy container, and
//!   degraded-mode hierarchy decode)
//!   and tallies outcomes. Exposed to users as `amrviz torture`;
//! * [`serve_torture::run`] — chaos-tests the serving stack: a real
//!   server behind `amrviz_serve`'s fault-injecting proxy, with damaged
//!   and missing blobs and randomized deadlines. Exposed as `amrviz
//!   torture --serve`.
//!
//! The two loops stay apart; both end in a [`Verdict`], the one exit path
//! of `amrviz torture`. The decoder torture is deterministic: the same
//! (seed, iters) pair replays the exact same corruption sequence, so a
//! violation found in CI reproduces locally byte-for-byte. The serve
//! torture's store fixtures and request sequence are fixed by its seed,
//! but its outcomes move with thread timing.

pub mod mutate;
pub mod serve_torture;
pub mod torture;

pub use mutate::{mutate_stream, Mutation};
pub use serve_torture::{ServeTortureConfig, ServeTortureReport};
pub use torture::{run_torture, TargetTally, TortureConfig, TortureReport};

/// How a torture run ends, in either mode: the one stdout line `amrviz
/// torture` prints, and how it exits.
#[derive(Debug)]
pub struct Verdict {
    /// `TORTURE {...}` or `SERVE_TORTURE {...}`.
    pub line: String,
    /// On a violation: the headline, one indented line per violation and
    /// the command that replays the run.
    pub result: Result<(), String>,
}

impl Verdict {
    /// `failed` is the headline, `None` on a pass; `replay` the arguments
    /// after `amrviz torture`.
    fn new(line: String, failed: Option<String>, violations: &[String], replay: String) -> Self {
        let result = match failed {
            None => Ok(()),
            Some(mut msg) => {
                for v in violations {
                    msg.push_str("\n  ");
                    msg.push_str(v);
                }
                msg.push_str(&format!("\nreproduce with: amrviz torture {replay}"));
                Err(msg)
            }
        };
        Verdict { line, result }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_serve::StatsSnapshot;

    /// One failing report of each mode renders its stdout line and its
    /// whole failure message, reproduce command included, as `amrviz
    /// torture` has printed them since each mode was added.
    #[test]
    fn failing_reports_of_both_modes_render_their_whole_message() {
        let mut decoder = TortureReport {
            seed: 3,
            iters: 40,
            recipes: 2,
            graceful_errors: 30,
            harmless_ok: 8,
            panics: 1,
            over_budget: 1,
            mem_checked: true,
            per_target: Vec::new(),
            violations: vec![
                "panic: target=lzss iter=5 seed=3 trace=00000000000000ab mutations=[\"truncate\"]: boom".into(),
                "over_budget: target=zmesh iter=9 seed=3 trace=00000000000000cd mutations=[\"bit_flip\"] peak=1".into(),
            ],
        };
        let v = decoder.verdict();
        assert_eq!(
            v.line,
            "TORTURE {\"seed\":3,\"iters\":40,\"recipes\":2,\"graceful_errors\":30,\
             \"harmless_ok\":8,\"panics\":1,\"over_budget\":1,\"mem_checked\":true,\
             \"passed\":false,\"targets\":[]}"
        );
        assert_eq!(
            v.result.unwrap_err(),
            "torture run failed: 1 panic(s), 1 over-budget decode(s)\n  \
             panic: target=lzss iter=5 seed=3 trace=00000000000000ab mutations=[\"truncate\"]: boom\n  \
             over_budget: target=zmesh iter=9 seed=3 trace=00000000000000cd mutations=[\"bit_flip\"] peak=1\n\
             reproduce with: amrviz torture --seed 3 --iters 40 --recipes 2"
        );
        decoder.recipes = 0;
        let err = decoder.verdict().result.unwrap_err();
        assert!(
            err.ends_with("\nreproduce with: amrviz torture --seed 3 --iters 40"),
            "{err}"
        );

        let serve = ServeTortureReport {
            seed: 9,
            iters: 12,
            outcomes: vec![("ok", 10), ("timeout", 2)],
            server: StatsSnapshot {
                panics: 1,
                shed: 3,
                ..StatsSnapshot::default()
            },
            late_frames: 0,
            peak_bytes: 4096,
            violations: vec![
                "iter 4: unknown key produced data".into(),
                "1 worker panic(s)".into(),
            ],
        };
        let v = serve.verdict();
        assert_eq!(
            v.line,
            "SERVE_TORTURE {\"iters\":12,\"violations\":2,\"late_frames\":0,\"panics\":1,\
             \"post_deadline_responses\":0,\"deadline_aborts\":0,\"shed\":3,\
             \"peak_bytes\":4096,\"passed\":false,\"outcomes\":{\"ok\":10,\"timeout\":2}}"
        );
        assert_eq!(
            v.result.unwrap_err(),
            "serve torture failed: 2 violation(s)\n  \
             iter 4: unknown key produced data\n  \
             1 worker panic(s)\n\
             reproduce with: amrviz torture --serve --seed 9 --iters 12"
        );
    }

    /// A passing run prints its line and exits `Ok`.
    #[test]
    fn a_passing_report_has_no_failure_message() {
        let report = run_torture(&TortureConfig {
            seed: 1,
            iters: 4,
            recipes: 0,
        });
        let v = report.verdict();
        assert!(
            v.line.starts_with("TORTURE {\"seed\":1,\"iters\":4,"),
            "{}",
            v.line
        );
        assert_eq!(v.result, Ok(()));
    }
}
