//! Regenerates the paper's figures and in-text measurements.
//!
//! Usage:
//!   cargo run -p accelviz-bench --release --bin experiments -- all
//!   cargo run -p accelviz-bench --release --bin experiments -- fig1 fig6

use accelviz_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |name: &str| match name {
        "fig1" => experiments::fig1(100_000),
        "fig2" => experiments::fig2(50_000),
        "fig3" => experiments::fig3(),
        "fig4" => experiments::fig4(30_000),
        "fig5" => experiments::fig5(20_000, 60),
        "prep" => experiments::prep(),
        "size" => experiments::size(100_000),
        "fig6" => experiments::fig6(14, 250),
        "fig7" => experiments::fig7(14, 300),
        "fig8" => experiments::fig8(12),
        "fig9" => experiments::fig9(14),
        "compr" => experiments::compr(14, 250),
        "fig10" => experiments::fig10(14, 250),
        "volsweep" => experiments::volume_resolution_sweep(50_000),
        "ablate" => experiments::ablate(100_000),
        "anim" => experiments::anim(14, 8, 400),
        "all" => experiments::run_all(),
        other => eprintln!(
            "unknown experiment '{other}'; available: fig1 fig2 fig3 fig4 fig5 \
             prep size fig6 fig7 fig8 fig9 compr fig10 volsweep ablate anim all"
        ),
    };
    if args.is_empty() {
        run("all");
    } else {
        for a in &args {
            run(a);
        }
    }
    // With ACCELVIZ_TRACE set, the experiment run leaves a Chrome trace
    // artifact at that path.
    if let Ok(Some(path)) = accelviz_trace::flush() {
        println!("wrote pipeline trace to {}", path.display());
    }
}
