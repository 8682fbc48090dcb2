//! The environment record printed with every result, and the checks
//! that refuse to measure a different program than the one intended.

use crate::json::ObjectWriter;

/// Variables that switch the program into a mode the untraced run must
/// not measure: telemetry, tracing, or injected faults.
pub const REFUSED_VARS: [&str; 3] = [
    "SAFETY_OPT_TELEMETRY",
    "SAFETY_OPT_TRACE",
    "SAFETY_OPT_FAILPOINTS",
];

/// The refused variables that are set, if any.
pub fn refused_vars_set() -> Vec<&'static str> {
    REFUSED_VARS
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads a freshly compiled model actually uses.
///
/// # Errors
///
/// The program's error when the reference model does not compile.
pub fn engine_threads() -> Result<usize, String> {
    let model = safety_opt_elbtunnel::analytic::ElbtunnelModel::paper()
        .build()
        .map_err(|e| e.to_string())?;
    let compiled =
        safety_opt_core::compile::CompiledModel::compile(&model).map_err(|e| e.to_string())?;
    Ok(compiled.threads())
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit of the checkout in the working directory, read from
/// `.git` without leaving it; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Every `SAFETY_OPT_*` variable in the environment, sorted.
pub fn safety_opt_vars() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())))
        .filter(|(k, _)| k.starts_with("SAFETY_OPT_"))
        .collect();
    vars.sort();
    vars
}

/// The environment record as a JSON object.
pub fn record(workload: &str, seed: u64, trace: bool, engine_threads: usize) -> String {
    let vars = safety_opt_vars()
        .into_iter()
        .fold(ObjectWriter::new(), |w, (k, v)| w.str(&k, &v))
        .finish();
    ObjectWriter::new()
        .str("workload", workload)
        .int("seed", seed)
        .bool("trace", trace)
        .int("nproc", nproc() as u64)
        .int("engine_threads", engine_threads as u64)
        .str("rustc", env!("PERFBENCH_RUSTC_VERSION"))
        .str("git_commit", &git_commit())
        .raw("safety_opt_vars", &vars)
        .finish()
}
