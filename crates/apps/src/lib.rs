//! MiniHPC analogues of the paper's eight evaluation programs.
//!
//! §6.1 evaluates vSensor on five NPB kernels (BT, CG, FT, LU, SP) and
//! three applications (LULESH, AMG, RAxML). The real codes are tens of
//! thousands of lines of Fortran/C; what Table 1 and Figures 15-22 depend
//! on is their *snippet structure* — which loops and calls repeat with
//! fixed workload, which vary, and which components they stress. Each
//! module here generates a MiniHPC program with the documented structure:
//!
//! | program | structural signature reproduced |
//! |---------|----------------------------------|
//! | BT      | block-tridiagonal sweeps: many fixed compute kernels, comms with stage-varying sizes (instrumentation is all-Comp) |
//! | CG      | fixed SpMV + dot-product allreduce per iteration (Comp+Net) |
//! | FT      | big local FFT phases + `mpi_alltoall` transpose (the network showcase) |
//! | LU      | wavefront pipeline: fixed inner kernels, varying p2p (all-Comp) |
//! | SP      | scalar-pentadiagonal sweeps with fixed-size exchanges (Comp+Net) |
//! | AMG     | adaptive refinement → workload changes at run time → very few fixed snippets, low coverage |
//! | LULESH  | one big non-fixed snippet in the main loop (long sense intervals) plus fixed kernels |
//! | RAxML   | many small fixed kernels called from many sites (largest sensor count) |
//!
//! All programs are parameterized by [`Params`] so tests run in
//! milliseconds and benchmarks can scale to long virtual runs.

pub mod amg;
pub mod bt;
pub mod btio;
pub mod cg;
pub mod ft;
pub mod lu;
pub mod lulesh;
pub mod raxml;
pub mod sp;

/// Scale parameters for an app instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Outer (time-step) iterations.
    pub iters: u32,
    /// Work multiplier for bulk kernels (work units per base unit).
    pub scale: u32,
}

impl Params {
    /// Tiny instance for unit tests (sub-second virtual runs).
    pub fn test() -> Self {
        Params {
            iters: 40,
            scale: 200,
        }
    }

    /// Medium instance for benchmarks (seconds of virtual time).
    pub fn bench() -> Self {
        Params {
            iters: 400,
            scale: 2_000,
        }
    }

    /// Large instance for the case-study reproductions (tens of virtual
    /// seconds).
    pub fn full() -> Self {
        Params {
            iters: 2_000,
            scale: 20_000,
        }
    }

    /// An instance tuned so one outer iteration costs roughly
    /// `target_iter_us` microseconds of virtual time.
    pub fn with_iters(self, iters: u32) -> Self {
        Params { iters, ..self }
    }

    /// Same iteration count, different kernel scale.
    pub fn with_scale(self, scale: u32) -> Self {
        Params { scale, ..self }
    }
}

/// A generated application: name plus MiniHPC source.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// Short name as used in the paper's tables.
    pub name: &'static str,
    /// MiniHPC source text.
    pub source: String,
    /// True if the paper reports instrumented *network* sensors for this
    /// program (Table 1's "Instrumentation number and type").
    pub expect_net_sensors: bool,
}

impl AppSpec {
    /// Compile the source to IR.
    ///
    /// # Panics
    ///
    /// If the source does not compile — a generator bug: the sources are
    /// produced by this crate, so failure is a bug here, not user error.
    pub fn compile(&self) -> vsensor_lang::Program {
        // Proof: `Params` only splices integers into fixed templates, and
        // `all_apps_compile` compiles every generator at every preset.
        vsensor_lang::compile(&self.source)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}\n{}", self.name, self.source))
    }
}

/// All eight programs at the given scale, in Table 1 order.
pub fn all_apps(p: Params) -> Vec<AppSpec> {
    vec![
        bt::generate(p),
        cg::generate(p),
        ft::generate(p),
        lu::generate(p),
        sp::generate(p),
        amg::generate(p),
        lulesh::generate(p),
        raxml::generate(p),
    ]
}

/// Fetch one app by (case-insensitive) name.
pub fn app_by_name(name: &str, p: Params) -> Option<AppSpec> {
    let n = name.to_ascii_lowercase();
    Some(match n.as_str() {
        "bt" => bt::generate(p),
        "btio" => btio::generate(p),
        "cg" => cg::generate(p),
        "ft" => ft::generate(p),
        "lu" => lu::generate(p),
        "sp" => sp::generate(p),
        "amg" => amg::generate(p),
        "lulesh" => lulesh::generate(p),
        "raxml" => raxml::generate(p),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_compile() {
        for p in [Params::test(), Params::bench(), Params::full()] {
            let btio = app_by_name("btio", p).expect("btio is listed");
            for app in all_apps(p).into_iter().chain([btio]) {
                let program = app.compile();
                assert!(
                    program.function("main").is_some(),
                    "{} needs main",
                    app.name
                );
            }
        }
    }

    #[test]
    fn app_lookup_is_case_insensitive() {
        assert!(app_by_name("CG", Params::test()).is_some());
        assert!(app_by_name("LuLeSh", Params::test()).is_some());
        assert!(app_by_name("hpcg", Params::test()).is_none());
    }

    #[test]
    fn params_presets_scale_up() {
        assert!(Params::bench().iters > Params::test().iters);
        assert!(Params::full().scale > Params::bench().scale);
    }
}
