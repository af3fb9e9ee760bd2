//! Shared experiment plumbing: CLI scale parsing, table formatting, CSV
//! output, benchmark host tags.

use std::io::Write as _;

/// Experiment scale, parsed from the command line.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Problem dimensions to sweep.
    pub dims: Vec<usize>,
    /// Training iterations per run.
    pub iterations: usize,
    /// Batch size (single-device experiments).
    pub batch_size: usize,
    /// Number of random seeds to average over.
    pub seeds: usize,
    /// Whether `--full` (paper-scale) was requested.
    pub full: bool,
    /// Optional CSV output path.
    pub csv: Option<String>,
}

/// Parses the standard flags.  `default_*` are the scaled-down values;
/// `--full` swaps in the paper's parameters (`full_dims`, 300
/// iterations, batch 1024, 5 seeds).
pub fn parse_scale(default_dims: &[usize], full_dims: &[usize], default_iters: usize) -> Scale {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale {
        dims: default_dims.to_vec(),
        iterations: default_iters,
        batch_size: 256,
        seeds: 3,
        full: false,
        csv: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => {
                scale.full = true;
                scale.dims = full_dims.to_vec();
                scale.iterations = 300;
                scale.batch_size = 1024;
                scale.seeds = 5;
            }
            "--dims" => {
                i += 1;
                scale.dims = args[i]
                    .split(',')
                    .map(|d| d.parse().expect("--dims wants integers"))
                    .collect();
            }
            "--iters" => {
                i += 1;
                scale.iterations = args[i].parse().expect("--iters wants an integer");
            }
            "--batch" => {
                i += 1;
                scale.batch_size = args[i].parse().expect("--batch wants an integer");
            }
            "--seeds" => {
                i += 1;
                scale.seeds = args[i].parse().expect("--seeds wants an integer");
            }
            "--csv" => {
                i += 1;
                scale.csv = Some(args[i].clone());
            }
            other => panic!("unknown flag {other} (see crate docs for usage)"),
        }
        i += 1;
    }
    scale
}

/// A printable result table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Pretty-prints with per-column alignment.
    pub fn print(&self) {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = (0..ncols)
                .map(|c| format!("{:>width$}", cells[c], width = widths[c]))
                .collect();
            println!("{}", line.join("  "));
        };
        print_row(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            print_row(row);
        }
    }
}

/// Writes a table as CSV.
pub fn write_csv(table: &Table, path: &str) {
    let mut f = std::fs::File::create(path).expect("cannot create CSV file");
    writeln!(f, "{}", table.headers.join(",")).expect("CSV write failed");
    for row in &table.rows {
        writeln!(f, "{}", row.join(",")).expect("CSV write failed");
    }
    eprintln!("(wrote {path})");
}

/// Mean and population standard deviation of a slice — the `μ ± σ`
/// the paper reports over seeds.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Formats `μ ± σ` the way the paper's tables do.
pub fn pm(mean: f64, std: f64) -> String {
    format!("{mean:.1} ± {std:.1}")
}

/// `<cores>cpu_<arm>_threads<default pool width>[_<GIT_REV>]`: the host
/// a benchmark row was measured on (cores, SIMD arm, `VQMC_THREADS`
/// else the core count, and the `GIT_REV` environment variable when
/// set), so rows from different hosts and revisions never merge.
pub fn host_tag() -> String {
    use vqmc_tensor::{par, simd};
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let arm = match simd::backend() {
        simd::Backend::Scalar => "scalar",
        simd::Backend::Avx2Fma => "avx2",
        simd::Backend::Avx512 => "avx512",
    };
    let rev = std::env::var("GIT_REV").map_or(String::new(), |r| format!("_{r}"));
    format!("{cores}cpu_{arm}_threads{}{rev}", par::num_threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_known() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m, 2.5);
        assert!((s - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["only-one".into()])
        }));
        assert!(result.is_err());
    }

    #[test]
    fn pm_format() {
        assert_eq!(pm(43.0, 0.0), "43.0 ± 0.0");
    }
}
