//! On-line monitoring: periodic report updates while the program runs.
//!
//! ```text
//! cargo run --release --example live_monitoring
//! ```
//!
//! §2 of the paper: "the performance report is updated periodically, thus
//! users can notice performance variance without waiting for a program to
//! finish." The streaming engine runs detection passes *while* telemetry
//! arrives, so a monitor thread can drain live [`VarianceAlert`]s and take
//! interim results while the ranks are still running — this example
//! launches the run on a worker thread, routed into a server it holds a
//! handle on, and polls that server, printing each alert the moment the
//! detection stream emits it.
//!
//! [`VarianceAlert`]: vsensor_repro::runtime::VarianceAlert

use std::sync::Arc;
use std::time::Duration as StdDuration;
use vsensor_repro::cluster_sim::{SlowdownWindow, VirtualTime};
use vsensor_repro::interp::RunConfig;
use vsensor_repro::runtime::{AnalysisServer, DirectChannel};
use vsensor_repro::{scenarios, Pipeline};

fn main() {
    let ranks = 32;
    let app =
        vsensor_repro::apps::cg::generate(vsensor_repro::apps::Params::bench().with_iters(4000));
    let prepared = Pipeline::new().prepare(app.compile());

    // Build the server ourselves so we can hold a handle while the run is
    // in flight (the Prepared::run convenience owns it otherwise).
    let config = RunConfig::default();
    let server = Arc::new(
        AnalysisServer::try_new(ranks, prepared.sensors.clone(), config.runtime.clone())
            .expect("valid config"),
    );

    // A noiser window in the middle of the run.
    let cluster = Arc::new(
        scenarios::healthy(ranks)
            .with_ranks_per_node(8)
            .with_injection(SlowdownWindow::on_nodes(
                VirtualTime::from_millis(400),
                VirtualTime::from_millis(800),
                4.0,
                vec![1],
            ))
            .build(),
    );

    let monitor_server = server.clone();
    let worker = std::thread::spawn(move || {
        prepared.run_sink(cluster, &config, Arc::new(DirectChannel::new(server)))
    });

    // Poll the server while the run progresses: live alerts come from the
    // detection stream; interim results show the matrices refining.
    loop {
        std::thread::sleep(StdDuration::from_millis(50));
        for alert in monitor_server.poll_events() {
            let interim = monitor_server.interim(VirtualTime::from_secs(3600));
            println!(
                "[live] alert after {} records received: {alert}",
                interim.records
            );
        }
        if worker.is_finished() {
            break;
        }
    }
    let run = worker.join().expect("run completes");
    let run_end = VirtualTime::ZERO + run.run_time;
    // The run closed the session: its result is the authoritative one.
    let fin = &run.server;
    println!(
        "\nrun finished at {run_end}; final report: {} event(s), {:.2} MB received",
        fin.events.len(),
        fin.bytes_received as f64 / 1e6
    );
    for e in &fin.events {
        println!("  {e}");
    }
}
