use prescaler_ir::analysis::parallel_safety;
use prescaler_ocl::HostApp;
use prescaler_polybench::{BenchKind, InputSet, PolyApp};
use std::time::Instant;

fn main() {
    let mut kernels = Vec::new();
    for &kind in &BenchKind::ALL {
        let app = PolyApp::new(kind, kind.test_dims(), InputSet::Default, 7);
        kernels.extend(app.program().kernels.clone());
    }
    let mut out = Vec::new();
    for _ in 0..5 {
        let mut a = f64::MAX;
        for _ in 0..400 {
            let t = Instant::now();
            for k in &kernels {
                std::hint::black_box(parallel_safety(std::hint::black_box(k)));
            }
            a = a.min(t.elapsed().as_secs_f64());
        }
        out.push(format!("{:.3}", a * 1e6 / kernels.len() as f64));
    }
    println!("analysis us/kernel: {}", out.join(" "));
}
