//! `rtcg corpus` — mass-generate deterministic spec corpora and run
//! them through the batch analyzer.
//!
//! `generate` renders [`rtcg_bench::generate_corpus`]'s seeded model
//! families (chain / mok / threepart / singleop / random) to one
//! `.rtcg` file each under a target directory, plus a `manifest.txt`
//! of versioned `{"v":1,"spec":"..."}` entries — the same format
//! `rtcg analyze --batch` consumes. `run` is that consumption: it
//! resolves the directory back to its manifest and drives the whole
//! corpus through one shared engine, so the cold-vs-warm fleet flow is
//! two invocations:
//!
//! ```text
//! rtcg corpus generate fleet --count 1000 --seed 5
//! rtcg corpus run fleet --cache-file fleet.snap   # cold: builds the memo
//! rtcg corpus run fleet --cache-file fleet.snap   # warm: replays from it
//! ```

use crate::commands::{flag_value, positive_flag_value};
use crate::CliError;

/// The manifest file `generate` writes and `run` resolves inside a
/// corpus directory.
const MANIFEST: &str = "manifest.txt";

/// `rtcg corpus generate <dir> [--count N] [--seed S]` — write `N`
/// seeded specs and their batch manifest under `<dir>`.
pub fn generate(dir: &str, flags: &[String]) -> Result<(), CliError> {
    let count = positive_flag_value(flags, "--count")?.unwrap_or(100) as usize;
    let seed = flag_value(flags, "--seed")?.unwrap_or(0);
    let base = std::path::Path::new(dir);
    if base.exists() && !base.is_dir() {
        return Err(CliError::Usage(format!(
            "corpus target `{dir}` exists and is not a directory"
        )));
    }
    std::fs::create_dir_all(base)
        .map_err(|e| CliError::Input(format!("cannot create `{dir}`: {e}")))?;
    let specs = rtcg_bench::generate_corpus(count, seed);
    let mut manifest = format!(
        "# rtcg corpus: {count} spec(s), seed {seed}\n\
         # run with: rtcg corpus run {dir} [--cache-file FILE]\n"
    );
    for spec in &specs {
        let file = format!("{}.rtcg", spec.name);
        std::fs::write(
            base.join(&file),
            rtcg_lang::pretty::render_model(&spec.model),
        )
        .map_err(|e| CliError::Input(format!("cannot write `{dir}/{file}`: {e}")))?;
        manifest.push_str(&format!(
            "{{\"v\":{},\"spec\":\"{file}\"}}\n",
            crate::protocol::WIRE_VERSION
        ));
    }
    std::fs::write(base.join(MANIFEST), manifest)
        .map_err(|e| CliError::Input(format!("cannot write `{dir}/{MANIFEST}`: {e}")))?;
    outln!("corpus: wrote {count} spec(s) (seed {seed}) and {MANIFEST} under `{dir}`");
    Ok(())
}

/// `rtcg corpus run <dir|manifest> [batch flags]` — analyze a generated
/// corpus through `analyze --batch`, accepting either the corpus
/// directory (resolved to its `manifest.txt`) or an explicit manifest
/// path. All batch flags apply, most usefully `--cache-file` for the
/// cold-save / warm-load fleet flow.
pub fn run(target: &str, flags: &[String]) -> Result<(), CliError> {
    let path = std::path::Path::new(target);
    let manifest = if path.is_dir() {
        let m = path.join(MANIFEST);
        if !m.is_file() {
            return Err(CliError::Input(format!(
                "`{target}` has no {MANIFEST} — generate the corpus first \
                 (rtcg corpus generate {target})"
            )));
        }
        m.to_str()
            .ok_or_else(|| CliError::Input(format!("non-UTF-8 path under `{target}`")))?
            .to_string()
    } else {
        target.to_string()
    };
    crate::commands::analyze_batch(&manifest, flags)
}
