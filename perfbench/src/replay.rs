//! The traced replay: the executor's batched lowering re-run from outside
//! the program, one public call at a time, under stopwatches.
//!
//! Each weight layer is split into the phases the executor runs it in:
//! lowering (`forms_tensor::im2col`, or row staging for a linear layer),
//! activation quantization (`FixedSpec::for_max_value` +
//! `QuantizedTensor::quantize_with`), code gather, the engine's
//! `matmul_into` kernel, and the bias/scatter tail. Digital layers (ReLU,
//! pooling, flatten) run through `Layer::forward`. The replay must produce
//! the session's output bit for bit, so its phase times describe the same
//! work the served executor does.

use std::hint::black_box;
use std::time::{Duration, Instant};

use forms_arch::MATMUL_TILE;
use forms_dnn::{Conv2d, Layer, Linear, Network};
use forms_exec::{CrossbarEngine, Executor};
use forms_reram::pack_tile_bit_planes;
use forms_tensor::{im2col, Conv2dGeometry, FixedSpec, QuantizedTensor, Tensor};

use crate::workload::{Counts, Design, PackShape};

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Time spent in each phase of one weight layer, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Phases {
    /// im2col (conv) or row staging (linear).
    pub lower: u64,
    /// Activation quantization.
    pub quantize: u64,
    /// Code gather and buffer staging.
    pub gather: u64,
    /// The engine's `matmul_into`.
    pub kernel: u64,
    /// Bias add and output scatter.
    pub scatter: u64,
    /// Independently timed wall time of the whole layer.
    pub wall: u64,
}

impl Phases {
    /// Sum of the phases (should telescope to `wall`).
    pub fn sum(&self) -> u64 {
        self.lower + self.quantize + self.gather + self.kernel + self.scatter
    }

    fn add(&mut self, o: &Phases) {
        self.lower += o.lower;
        self.quantize += o.quantize;
        self.gather += o.gather;
        self.kernel += o.kernel;
        self.scatter += o.scatter;
        self.wall += o.wall;
    }
}

/// One replayed weight layer.
#[derive(Clone, Debug, Default)]
pub struct LayerPass {
    /// Phase times.
    pub phases: Phases,
    /// Matrix-vector products the layer executed.
    pub mvms: u64,
    /// The engine's counters for this pass.
    pub counts: Counts,
    /// The engine's mean input cycles per activation for this pass.
    pub mean_input_cycles: Option<f64>,
    /// The gathered input codes (`mvms × rows`, sample-major).
    pub codes: Vec<u32>,
    /// One quantization scale per MVM.
    pub scales: Vec<f32>,
}

/// One replayed forward pass.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Per weight layer, in visit order.
    pub layers: Vec<LayerPass>,
    /// Time in digital (non-weight) layers.
    pub digital_ns: u64,
    /// Wall time of the whole pass.
    pub forward_ns: u64,
    /// The network output.
    pub output: Tensor,
}

/// Lap timer: each `lap` returns the time since the previous one, so the
/// laps of a layer telescope to the time between its first and last lap.
struct Laps(Instant);

impl Laps {
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let d = ns(now - self.0);
        self.0 = now;
        d
    }
}

fn kernel<E: CrossbarEngine>(
    engine: &E,
    codes: &[u32],
    scales: &[f32],
    scratch: &mut E::Scratch,
    laps: &mut Laps,
    p: &mut Phases,
) -> (Vec<f32>, E::Stats) {
    let mut out = vec![0.0f32; scales.len() * engine.output_len()];
    p.gather += laps.lap();
    let stats = engine.matmul_into(codes, scales, scratch, &mut out);
    p.kernel += laps.lap();
    (out, stats)
}

fn conv<E: Design>(
    engine: &E,
    bits: u32,
    conv: &Conv2d,
    x: &Tensor,
    scratch: &mut E::Scratch,
) -> (Tensor, LayerPass) {
    let wall = Instant::now();
    let mut laps = Laps(wall);
    let mut p = Phases::default();
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let geom = Conv2dGeometry::new(
        conv.in_channels(),
        h,
        w,
        conv.kernel(),
        conv.kernel(),
        conv.stride(),
        conv.padding(),
    );
    let bias = conv.bias().value.clone();
    let (positions, patch, chw) = (geom.out_positions(), geom.patch_len(), c * h * w);
    let mut codes = Vec::with_capacity(n * positions * patch);
    let mut scales = Vec::with_capacity(n * positions);
    p.gather += laps.lap();
    for s in 0..n {
        let sample = Tensor::from_vec(x.data()[s * chw..(s + 1) * chw].to_vec(), &[c, h, w]);
        let cols = im2col(&sample, &geom);
        p.lower += laps.lap();
        let q = QuantizedTensor::quantize_with(&cols, FixedSpec::for_max_value(bits, cols.max()));
        p.quantize += laps.lap();
        let scale = q.spec().scale();
        for pos in 0..positions {
            codes.extend((0..patch).map(|r| q.codes()[r * positions + pos]));
            scales.push(scale);
        }
        p.gather += laps.lap();
    }
    let (raw, stats) = kernel(engine, &codes, &scales, scratch, &mut laps, &mut p);
    let f = bias.len();
    let mut out = Tensor::zeros(&[n, f, geom.out_h, geom.out_w]);
    for (col, out_col) in raw.chunks_exact(engine.output_len()).enumerate() {
        let (s, pos) = (col / positions, col % positions);
        for (fi, &v) in out_col.iter().enumerate() {
            out.data_mut()[(s * f + fi) * positions + pos] = v + bias.data()[fi];
        }
    }
    p.scatter += laps.lap();
    p.wall = ns(wall.elapsed());
    let pass = LayerPass {
        phases: p,
        mvms: scales.len() as u64,
        counts: E::counts(&stats),
        mean_input_cycles: E::mean_input_cycles(&stats),
        codes,
        scales,
    };
    (out, pass)
}

fn linear<E: Design>(
    engine: &E,
    bits: u32,
    lin: &Linear,
    x: &Tensor,
    scratch: &mut E::Scratch,
) -> (Tensor, LayerPass) {
    let wall = Instant::now();
    let mut laps = Laps(wall);
    let mut p = Phases::default();
    let (n, features) = (x.dims()[0], x.dims()[1]);
    let bias = lin.bias().value.clone();
    let mut codes = Vec::with_capacity(n * features);
    let mut scales = Vec::with_capacity(n);
    p.gather += laps.lap();
    for s in 0..n {
        let row = Tensor::from_vec(
            x.data()[s * features..(s + 1) * features].to_vec(),
            &[features],
        );
        p.lower += laps.lap();
        let q = QuantizedTensor::quantize_with(&row, FixedSpec::for_max_value(bits, row.max()));
        p.quantize += laps.lap();
        codes.extend_from_slice(q.codes());
        scales.push(q.spec().scale());
        p.gather += laps.lap();
    }
    let (raw, stats) = kernel(engine, &codes, &scales, scratch, &mut laps, &mut p);
    let o = bias.len();
    let mut out = Tensor::zeros(&[n, o]);
    for (s, out_row) in raw.chunks_exact(engine.output_len()).enumerate() {
        for (j, &v) in out_row.iter().enumerate() {
            out.data_mut()[s * o + j] = v + bias.data()[j];
        }
    }
    p.scatter += laps.lap();
    p.wall = ns(wall.elapsed());
    let pass = LayerPass {
        phases: p,
        mvms: n as u64,
        counts: E::counts(&stats),
        mean_input_cycles: E::mean_input_cycles(&stats),
        codes,
        scales,
    };
    (out, pass)
}

/// Replays one forward pass of `x` through `exec`'s engines.
///
/// # Errors
///
/// Residual blocks, which the replay does not lower.
pub fn replay<E: Design>(
    exec: &Executor<E>,
    layers: &mut [Layer],
    x: &Tensor,
    scratch: &mut E::Scratch,
) -> Result<Pass, String> {
    let start = Instant::now();
    let (engines, bits) = (exec.engines(), exec.layer_input_bits());
    let mut passes = Vec::with_capacity(engines.len());
    let mut digital_ns = 0;
    let mut y = x.clone();
    for layer in layers.iter_mut() {
        let k = passes.len();
        y = match layer {
            Layer::Conv2d(c) => {
                let (out, pass) = conv(&engines[k], bits[k], c, &y, scratch);
                passes.push(pass);
                out
            }
            Layer::Linear(l) => {
                let (out, pass) = linear(&engines[k], bits[k], l, &y, scratch);
                passes.push(pass);
                out
            }
            Layer::Residual(_) => return Err("the replay does not lower residual blocks".into()),
            other => {
                let t = Instant::now();
                let out = other.forward(&y, false);
                digital_ns += ns(t.elapsed());
                out
            }
        };
    }
    Ok(Pass {
        layers: passes,
        digital_ns,
        forward_ns: ns(start.elapsed()),
        output: y,
    })
}

/// The input cycles a design spends on `codes`, counted from the codes
/// alone (not from the engine): every packed group of every MVM costs its
/// plane count.
pub fn expected_cycles(codes: &[u32], rows: usize, shape: PackShape) -> u64 {
    codes
        .chunks_exact(rows)
        .flat_map(|mvm| mvm.chunks(shape.rows))
        .map(|group| u64::from(shape.planes(group, 1)))
        .sum()
}

/// Nanoseconds `pack_tile_bit_planes` takes to pack every tile the batched
/// kernel packs for `codes` (`rows` codes per MVM), gathered beforehand so
/// only the packing is timed. Assumes no weight row was compacted away
/// (checked by [`dense_rows`]).
pub fn pack_ns(codes: &[u32], rows: usize, shape: PackShape) -> u64 {
    let mvms = codes.len() / rows;
    let mut jobs = Vec::new();
    for tile_lo in (0..mvms).step_by(MATMUL_TILE) {
        let t = (mvms - tile_lo).min(MATMUL_TILE);
        for lo in (0..rows).step_by(shape.rows) {
            let hi = (lo + shape.rows).min(rows);
            let tile: Vec<u32> = (tile_lo..tile_lo + t)
                .flat_map(|s| codes[s * rows + lo..s * rows + hi].iter().copied())
                .collect();
            let planes = shape.planes(&tile, t);
            if planes > 0 {
                jobs.push((tile, t, planes));
            }
        }
    }
    let mut out = Vec::new();
    let start = Instant::now();
    for (tile, t, planes) in &jobs {
        pack_tile_bit_planes(tile, *t, *planes, &mut out);
        black_box(&out);
    }
    ns(start.elapsed())
}

/// Whether every row of every weight matrix holds a non-zero weight, so
/// the engines keep the original row order (they compact all-zero rows
/// away, which [`pack_ns`] does not model).
pub fn dense_rows(net: &Network) -> bool {
    crate::workload::weight_matrices(net).iter().all(|m| {
        let cols = m.dims()[1];
        m.data()
            .chunks_exact(cols)
            .all(|row| row.iter().any(|&v| v != 0.0))
    })
}

/// Summed phase times of many passes of one batch size.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Passes summed.
    pub reps: u64,
    /// Images per pass.
    pub images: u64,
    /// Replay phases per weight layer.
    pub replay: Vec<Phases>,
    /// MVMs per pass per weight layer.
    pub mvms: Vec<u64>,
    /// Counters of one pass per weight layer.
    pub counts: Vec<Counts>,
    /// Replay time in digital layers.
    pub replay_digital: u64,
    /// Replay forward wall time.
    pub replay_forward: u64,
    /// Session `forward_batch` wall time.
    pub session_forward: u64,
    /// Session `layer_wall_ns` per weight layer.
    pub session_layers: Vec<u64>,
    /// The last pass (codes for the kernel and pack timings).
    pub last: Option<Pass>,
}

impl Totals {
    /// Mean per pass of a summed nanosecond total.
    pub fn per_pass(&self, total: u64) -> f64 {
        total as f64 / self.reps as f64
    }

    /// Mean per image of a summed nanosecond total.
    pub fn per_image(&self, total: u64) -> f64 {
        total as f64 / (self.reps * self.images) as f64
    }
}

/// Runs the session and the replay side by side on batch `x` for about
/// `budget`, checking after every pair that the replay reproduced the
/// session's output bit for bit.
///
/// # Errors
///
/// An output mismatch, or a network the replay cannot lower.
pub fn measure<E: Design>(
    exec: &Executor<E>,
    net: &Network,
    x: &Tensor,
    budget: Duration,
) -> Result<Totals, String> {
    let mut session = exec.session();
    let mut layers = net.clone().into_layers();
    let mut scratch = E::Scratch::default();
    let count = exec.engines().len();
    let mut t = Totals {
        images: x.dims()[0] as u64,
        replay: vec![Phases::default(); count],
        session_layers: vec![0; count],
        ..Totals::default()
    };
    // Warm both paths (scratch growth, page faults) before timing.
    session.forward_batch(x);
    replay(exec, &mut layers, x, &mut scratch)?;
    let start = Instant::now();
    while t.reps < 3 || start.elapsed() < budget {
        let before = session.layer_wall_ns().to_vec();
        let t0 = Instant::now();
        let y = session.forward_batch(x);
        t.session_forward += ns(t0.elapsed());
        for ((acc, after), b) in t
            .session_layers
            .iter_mut()
            .zip(session.layer_wall_ns())
            .zip(&before)
        {
            *acc += after - b;
        }
        let pass = replay(exec, &mut layers, x, &mut scratch)?;
        if !bitwise_equal(y.data(), pass.output.data()) {
            return Err(format!(
                "replay output differs from the session's at batch {}",
                t.images
            ));
        }
        for (acc, l) in t.replay.iter_mut().zip(&pass.layers) {
            acc.add(&l.phases);
        }
        t.replay_digital += pass.digital_ns;
        t.replay_forward += pass.forward_ns;
        t.reps += 1;
        t.last = Some(pass);
    }
    let last = t.last.as_ref().expect("at least one pass ran");
    t.mvms = last.layers.iter().map(|l| l.mvms).collect();
    t.counts = last.layers.iter().map(|l| l.counts).collect();
    Ok(t)
}

/// Mean nanoseconds per call of `f` over about `budget` (at least three
/// calls), after one untimed warm-up call.
pub fn mean_ns<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let (mut reps, start) = (0u64, Instant::now());
    while reps < 3 || start.elapsed() < budget {
        black_box(f());
        reps += 1;
    }
    ns(start.elapsed()) as f64 / reps as f64
}

/// Mean nanoseconds of [`pack_ns`] over about `budget`.
pub fn time_pack(codes: &[u32], rows: usize, shape: PackShape, budget: Duration) -> f64 {
    let (mut total, mut reps, start) = (0u64, 0u64, Instant::now());
    while reps < 3 || start.elapsed() < budget {
        total += pack_ns(codes, rows, shape);
        reps += 1;
    }
    total as f64 / reps as f64
}

/// Bitwise equality of two `f32` slices (`NaN`-safe, sign-of-zero-exact).
pub fn bitwise_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
