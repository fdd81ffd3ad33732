//! Figure 6(c) reproduction: `create_report` wall time vs number of
//! cluster workers, on 100M rows stored in HDFS.
//!
//! Usage: `cargo run -p eda-bench --release --bin figure6c [--calib-rows 500000]`
//!
//! This host is one machine, so physical scale-out is impossible; per
//! DESIGN.md the experiment runs on a **calibrated cost model**
//! ([`ClusterSim`], below — its numbers are simulated, not measured): the
//! per-row compute cost is measured from a real `create_report` run on
//! this machine, the per-node HDFS bandwidth and shuffle terms come from
//! the model defaults, and the curve over 1..8 workers is simulated. The
//! paper's two findings are checked: time falls as workers are added, and
//! 1 HDFS worker is slower than the single-node local-disk setting of
//! Figure 6(b).
//!
//! `time(w) = startup + bytes / (io_bw · w) + rows · cpu_per_row / min(w·cores, parallel_frac ceiling) + shuffle(w)`
//!
//! * the I/O term divides by the worker count (each worker reads its own
//!   HDFS blocks — the effect the paper names);
//! * the compute term scales with workers up to the workload's parallel
//!   fraction (Amdahl);
//! * the shuffle term grows mildly with workers (reduce-side exchange).

use std::time::Duration;

use eda_bench::{arg_f64, fmt_secs, machine_context, measure, print_table};
use eda_core::{create_report, Config};
use eda_datagen::bitcoin::bitcoin_spec;
use eda_datagen::generate;

const PAPER_ROWS: u64 = 100_000_000;
/// 8 numeric columns ≈ 64 bytes/row in CSV-ish storage.
const BYTES_PER_ROW: u64 = 64;

/// Cost-model parameters for a simulated cluster run.
#[derive(Debug, Clone, PartialEq)]
struct ClusterSim {
    /// Per-node HDFS read bandwidth, bytes/second.
    io_bandwidth: f64,
    /// Calibrated compute cost per row, seconds (single-core).
    cpu_per_row: f64,
    /// Cores available to each worker node.
    cores_per_node: usize,
    /// Fraction of compute that parallelizes (Amdahl's law).
    parallel_fraction: f64,
    /// Fixed job startup/scheduling cost, seconds.
    startup: f64,
    /// Per-worker coordination/shuffle cost, seconds.
    shuffle_per_worker: f64,
}

impl Default for ClusterSim {
    fn default() -> Self {
        // Paper cluster: 8 nodes, 16 cores each, HDFS storage. 120 MB/s is
        // a typical per-node HDFS streaming read rate of that hardware era.
        ClusterSim {
            io_bandwidth: 120.0e6,
            cpu_per_row: 1.0e-6,
            cores_per_node: 16,
            parallel_fraction: 0.95,
            startup: 2.0,
            shuffle_per_worker: 0.5,
        }
    }
}

impl ClusterSim {
    /// Calibrate the per-row compute cost from a measured single-node run.
    fn calibrated(measured: Duration, rows: u64) -> ClusterSim {
        let per_row = if rows == 0 {
            1.0e-6
        } else {
            measured.as_secs_f64() / rows as f64
        };
        ClusterSim { cpu_per_row: per_row, ..ClusterSim::default() }
    }

    /// Simulated wall time for `rows` rows / `bytes` bytes on `workers`
    /// nodes.
    fn simulate(&self, rows: u64, bytes: u64, workers: usize) -> Duration {
        let w = workers.max(1) as f64;
        let io = bytes as f64 / (self.io_bandwidth * w);
        let total_cpu = rows as f64 * self.cpu_per_row;
        let cores = w * self.cores_per_node as f64;
        // Amdahl: serial fraction stays serial, the rest divides by cores.
        let compute =
            total_cpu * (1.0 - self.parallel_fraction) + total_cpu * self.parallel_fraction / cores;
        let shuffle = self.shuffle_per_worker * w.log2().max(0.0).mul_add(0.5, 1.0);
        Duration::from_secs_f64(self.startup + io + compute + shuffle)
    }

    /// The full scaling curve for `1..=max_workers`.
    fn curve(&self, rows: u64, bytes: u64, max_workers: usize) -> Vec<(usize, Duration)> {
        (1..=max_workers.max(1))
            .map(|w| (w, self.simulate(rows, bytes, w)))
            .collect()
    }
}

fn main() {
    let calib_rows = arg_f64("--calib-rows", 500_000.0) as usize;
    println!("Figure 6(c): create_report vs #workers (cost-model simulation)");
    println!("{}", machine_context());
    println!("calibrating per-row cost from a real create_report over {calib_rows} rows...");
    println!();

    let df = generate(&bitcoin_spec(calib_rows), 42);
    let cfg = Config::default();
    let (_, measured) = measure(|| create_report(&df, &cfg).expect("report"));
    println!(
        "measured: {} for {calib_rows} rows ({:.0} ns/row)",
        fmt_secs(measured),
        measured.as_secs_f64() / calib_rows as f64 * 1e9
    );
    println!();

    let sim = ClusterSim::calibrated(measured, calib_rows as u64);
    let curve = sim.curve(PAPER_ROWS, PAPER_ROWS * BYTES_PER_ROW, 8);
    let t1 = curve[0].1;
    let rows_out: Vec<Vec<String>> = curve
        .iter()
        .map(|(w, t)| {
            vec![
                w.to_string(),
                fmt_secs(*t),
                format!("{:.2}x", t1.as_secs_f64() / t.as_secs_f64()),
            ]
        })
        .collect();
    print_table(&["Workers", "Time (simulated)", "vs 1 worker"], &rows_out);

    // The paper's caveat: 1 HDFS worker is slower than single-node local
    // disk because of the I/O term.
    let local = sim.simulate(PAPER_ROWS, 0, 1);
    println!();
    println!(
        "1 HDFS worker: {} vs single-node local disk (no HDFS read): {} — paper notes the same gap",
        fmt_secs(curve[0].1),
        fmt_secs(local)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: u64 = 100_000_000;
    const BYTES: u64 = 6_400_000_000; // 8 numeric-ish columns

    #[test]
    fn more_workers_is_faster() {
        let sim = ClusterSim::default();
        let curve = sim.curve(ROWS, BYTES, 8);
        for pair in curve.windows(2) {
            assert!(
                pair[1].1 < pair[0].1,
                "time should fall from {} to {} workers",
                pair[0].0,
                pair[1].0
            );
        }
    }

    #[test]
    fn returns_diminish() {
        let sim = ClusterSim::default();
        let t1 = sim.simulate(ROWS, BYTES, 1).as_secs_f64();
        let t2 = sim.simulate(ROWS, BYTES, 2).as_secs_f64();
        let t7 = sim.simulate(ROWS, BYTES, 7).as_secs_f64();
        let t8 = sim.simulate(ROWS, BYTES, 8).as_secs_f64();
        assert!((t1 - t2) > (t7 - t8), "marginal gain should shrink");
    }

    #[test]
    fn io_dominated_scaling_is_near_linear_early() {
        // With compute tiny, doubling workers should nearly halve the
        // I/O component.
        let sim = ClusterSim { cpu_per_row: 1e-9, startup: 0.0, shuffle_per_worker: 0.0, ..ClusterSim::default() };
        let t1 = sim.simulate(ROWS, BYTES, 1).as_secs_f64();
        let t2 = sim.simulate(ROWS, BYTES, 2).as_secs_f64();
        assert!((t1 / t2 - 2.0).abs() < 0.05);
    }

    #[test]
    fn calibration_anchors_cpu_cost() {
        let sim = ClusterSim::calibrated(Duration::from_secs(50), 10_000_000);
        assert!((sim.cpu_per_row - 5.0e-6).abs() < 1e-12);
        let zero = ClusterSim::calibrated(Duration::from_secs(1), 0);
        assert!(zero.cpu_per_row > 0.0);
    }

    #[test]
    fn single_worker_on_hdfs_slower_than_pure_compute() {
        // Mirrors the paper's note: 1 HDFS worker pays the I/O cost that a
        // local-disk single-node run (bytes = 0 here) does not.
        let sim = ClusterSim::default();
        let with_io = sim.simulate(ROWS, BYTES, 1);
        let no_io = sim.simulate(ROWS, 0, 1);
        assert!(with_io > no_io);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let sim = ClusterSim::default();
        assert_eq!(sim.simulate(ROWS, BYTES, 0), sim.simulate(ROWS, BYTES, 1));
    }
}
