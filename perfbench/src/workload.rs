//! The benchmark's workloads: network, mapping, request payloads and load
//! shape, plus the per-design glue ([`Design`]) the measurement code needs
//! beyond the `CrossbarEngine` trait.

use std::time::Duration;

use forms_arch::{fragment_eic, FormsActivity, MappedLayer, MappingConfig, MvmStats};
use forms_baselines::{IsaacConfig, IsaacLayer, IsaacStats};
use forms_bench::mvm::polarize_network;
use forms_dnn::{Layer, Network, WeightLayerMut};
use forms_exec::{CrossbarEngine, Executor, PrecisionPlan};
use forms_hwmodel::{per_layer_energy_pj, McuConfig};
use forms_reram::{Adc, CellSpec};
use forms_rng::StdRng;
use forms_serve::ServeConfig;
use forms_workloads::{synth_request, ActivationModel};

/// Weight width of every workload (the paper's w8/a16 point).
pub const WEIGHT_BITS: u32 = 8;
/// Activation width of every workload.
pub const INPUT_BITS: u32 = 16;
/// Replica threads of the serving core, as many as the host has cores.
const REPLICAS: usize = 2;

/// A closed loop: `connections` clients each keep `in_flight` requests
/// outstanding and send the next one as soon as a reply arrives.
#[derive(Clone, Copy, Debug)]
pub struct ClosedLoop {
    /// Concurrent connections.
    pub connections: usize,
    /// Requests each connection keeps in flight.
    pub in_flight: usize,
}

/// How the clients drive the server in the main step.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// Closed loop; `throughput_rps` is its goodput.
    Closed(ClosedLoop),
    /// Open loop: Poisson arrivals at a fixed offered rate from one
    /// connection (a sender thread and a receiver thread). Below capacity
    /// an open loop completes what it is offered, so its goodput is the
    /// offered rate; `throughput_rps` comes from a closed-loop `capacity`
    /// step that keeps the server saturated.
    Open {
        /// Offered rate, in requests per second.
        rps: f64,
        /// Load of the capacity step.
        capacity: ClosedLoop,
    },
}

/// Durations of a run's steps.
#[derive(Clone, Copy, Debug)]
pub struct StepTimes {
    /// The `low` step.
    pub low: Duration,
    /// The main step.
    pub main: Duration,
    /// The capacity step (zero under a closed-loop main step).
    pub capacity: Duration,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name the command line and `BENCHMARK.json` use.
    pub name: &'static str,
    /// Per-request input shape `[channels, height, width]`.
    pub input_dims: [usize; 3],
    /// Builds the (unpolarized) network from the weight stream.
    pub network: fn(&mut StdRng) -> Network,
    /// FORMS mapping; its fragment size also drives polarization.
    pub forms: MappingConfig,
    /// ISAAC mapping at the same crossbar size and widths.
    pub isaac: IsaacConfig,
    /// Distribution of the request payload values.
    pub inputs: ActivationModel,
    /// Largest batch a replica executes.
    pub max_batch: usize,
    /// Load shape of the main step. Every workload also runs a `low`
    /// step: one connection with one request in flight, so every batch
    /// holds a single request and latency is the unloaded service path.
    pub load: Load,
    /// Latency limit of `slo_attainment`, in milliseconds.
    pub slo_ms: f64,
}

impl Workload {
    /// Flattened payload length.
    pub fn input_len(&self) -> usize {
        self.input_dims.iter().product()
    }

    /// The serving-core configuration. The queue is deep enough that the
    /// offered load never sheds: every request is either served or fails
    /// the run.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            replicas: REPLICAS,
            queue_capacity: 4096,
            max_batch: self.max_batch,
            ..ServeConfig::default()
        }
    }

    /// Splits a run of `seconds` between its steps. The low step gets the
    /// smallest share: its median settles on fewer replies than the other
    /// steps' figures, which follow queueing and saturation.
    pub fn steps(&self, seconds: f64) -> StepTimes {
        let (low, capacity) = match self.load {
            Load::Closed(_) => (0.3, 0.0),
            Load::Open { .. } => (0.2, 0.3),
        };
        let of = |share: f64| Duration::from_secs_f64(seconds * share);
        StepTimes {
            low: of(low),
            main: of(1.0 - low - capacity),
            capacity: of(capacity),
        }
    }
}

fn table5_network(rng: &mut StdRng) -> Network {
    Network::new(vec![
        Layer::conv2d(rng, 128, 128, 3, 1, 1),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::flatten(),
        Layer::linear(rng, 128 * 2 * 2, 10),
    ])
}

fn vgg_small_network(rng: &mut StdRng) -> Network {
    Network::new(vec![
        Layer::conv2d(rng, 1, 8, 3, 1, 1),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::conv2d(rng, 8, 16, 3, 1, 1),
        Layer::relu(),
        Layer::max_pool(2),
        Layer::flatten(),
        Layer::linear(rng, 16 * 4 * 4, 10),
    ])
}

/// FORMS on a Table-V-shaped stack: one 3×3 128→128 conv
/// (1152×128 lowered, 16 MVMs per image) and a 512→10 head. The crossbar
/// kernel does nearly all the work.
fn table5() -> Workload {
    Workload {
        name: "table5-forms-closed",
        input_dims: [128, 4, 4],
        network: table5_network,
        forms: MappingConfig {
            crossbar_dim: 128,
            fragment_size: 8,
            weight_bits: WEIGHT_BITS,
            cell: CellSpec::paper_2bit(),
            input_bits: INPUT_BITS,
            zero_skipping: true,
        },
        isaac: IsaacConfig {
            crossbar_dim: 128,
            cell: CellSpec::paper_2bit(),
            weight_bits: WEIGHT_BITS,
            input_bits: INPUT_BITS,
        },
        inputs: ActivationModel::SparseHalfNormal {
            sigma: 1.0,
            zero_fraction: 0.5,
        },
        max_batch: 4,
        // Deep enough that each request waits behind about three batches:
        // shallower loops cluster replies one batch time apart, and the
        // p50 then jumps between clusters from run to run.
        load: Load::Closed(ClosedLoop {
            connections: 2,
            in_flight: 16,
        }),
        slo_ms: 500.0,
    }
}

/// The downscaled Table-V VGG stack of the quant bench: 321 small MVMs
/// per image, so lowering, quantization, digital layers and per-request
/// serving costs take a larger share than on the Table-V stack.
///
/// The open loop offers 150 requests/s, about a seventh of what the
/// capacity step measures on a 2-vCPU host (850–1100 requests/s), so
/// three batches in four hold one request and the open-loop median is
/// service time. Busier loops put the median among batches of two and
/// behind a queue, where it moved with host speed: over runs of the same
/// code its spread was 0.05 at 150 requests/s, 0.18–0.22 at 250 and
/// 0.34 at 400. Batches hold at most two requests: the kernel gains
/// nothing per MVM from larger batches, and with up to eight a host
/// slowdown grew the batches and with them every member's latency (p50
/// 8–15 ms between runs at 400 requests/s, against 5–7 ms at two).
fn vgg_small() -> Workload {
    Workload {
        name: "vgg-small-open",
        input_dims: [1, 16, 16],
        network: vgg_small_network,
        forms: MappingConfig {
            crossbar_dim: 32,
            fragment_size: 4,
            weight_bits: WEIGHT_BITS,
            cell: CellSpec::paper_2bit(),
            input_bits: INPUT_BITS,
            zero_skipping: true,
        },
        isaac: IsaacConfig {
            crossbar_dim: 32,
            cell: CellSpec::paper_2bit(),
            weight_bits: WEIGHT_BITS,
            input_bits: INPUT_BITS,
        },
        inputs: ActivationModel::HalfNormal { sigma: 1.0 },
        max_batch: 2,
        load: Load::Open {
            rps: 150.0,
            capacity: ClosedLoop {
                connections: 2,
                in_flight: 8,
            },
        },
        slo_ms: 50.0,
    }
}

/// Resolves a workload name.
pub fn select(name: &str) -> Option<Workload> {
    [table5(), vgg_small()].into_iter().find(|w| w.name == name)
}

/// Every workload name, in `BENCHMARK.json` order.
pub const NAMES: [&str; 2] = ["table5-forms-closed", "vgg-small-open"];

/// The engine counters every design reports, in common terms.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// Input shift cycles spent.
    pub cycles: u64,
    /// ADC conversions performed.
    pub adc_conversions: u64,
    /// Fragment (FORMS) or row-block (ISAAC) activations.
    pub activations: u64,
    /// Activations skipped outright because every input was zero.
    pub skipped: u64,
}

/// How a design packs input bit planes: rows per packed group, and
/// whether the plane count follows the group's largest code (FORMS
/// zero-skipping) or is always the full input width.
#[derive(Clone, Copy, Debug)]
pub struct PackShape {
    /// Input rows packed together (fragment or crossbar row block).
    pub rows: usize,
    /// Plane count per group, or `None` for the group's effective width.
    pub fixed_planes: Option<u32>,
}

impl PackShape {
    /// Bit planes a tile of sample-major group codes is packed with.
    pub fn planes(&self, tile_codes: &[u32], samples: usize) -> u32 {
        self.fixed_planes.unwrap_or_else(|| {
            tile_codes
                .chunks_exact(tile_codes.len() / samples)
                .map(fragment_eic)
                .max()
                .unwrap_or(0)
        })
    }
}

/// The per-design glue the benchmark needs on top of [`CrossbarEngine`].
pub trait Design: CrossbarEngine<Stats: Sync> {
    /// How this design packs the bit planes of a layer mapped with
    /// `config`.
    fn pack_shape(config: &Self::Config) -> PackShape;
    /// The design's counters in common terms.
    fn counts(stats: &Self::Stats) -> Counts;
}

impl Design for MappedLayer {
    fn pack_shape(config: &MappingConfig) -> PackShape {
        PackShape {
            rows: config.fragment_size,
            fixed_planes: (!config.zero_skipping).then_some(config.input_bits),
        }
    }

    fn counts(stats: &MvmStats) -> Counts {
        Counts {
            cycles: stats.cycles,
            adc_conversions: stats.adc_conversions,
            activations: stats.fragments_total,
            skipped: stats.fragments_skipped,
        }
    }
}

impl Design for IsaacLayer {
    fn pack_shape(config: &IsaacConfig) -> PackShape {
        PackShape {
            rows: config.crossbar_dim,
            fixed_planes: Some(config.input_bits),
        }
    }

    fn counts(stats: &IsaacStats) -> Counts {
        Counts {
            cycles: stats.cycles,
            adc_conversions: stats.adc_conversions,
            activations: stats.row_blocks,
            skipped: 0,
        }
    }
}

/// Simulated dynamic energy per weight layer in pJ, each layer charged
/// against its own fragment-sized ADC, as the quant bench charges it.
pub fn energy_pj(exec: &Executor<MappedLayer>) -> Vec<f64> {
    let configs = exec.layer_configs();
    per_layer_energy_pj(
        &exec
            .layer_stats()
            .iter()
            .zip(configs)
            .map(|(s, c)| FormsActivity {
                stats: *s,
                config: *c,
            })
            .collect::<Vec<_>>(),
        &configs
            .iter()
            .map(|c| {
                McuConfig::forms(c.fragment_size)
                    .with_adc_bits(Adc::for_fragment(c.fragment_size, &c.cell).bits().min(12))
            })
            .collect::<Vec<_>>(),
    )
}

/// Seed of the weight stream. The weights are the same in every run, so
/// the workload seed varies only the request payloads and run-to-run
/// spread measures the system, not a different network.
const WEIGHT_SEED: u64 = 0x5EED_F0E3;

/// Builds the workload's seeded network and polarizes it to a fixed point
/// with the ADMM projection (both designs run the same weights).
pub fn build_network(w: &Workload) -> Network {
    let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
    let mut net = (w.network)(&mut rng);
    polarize_network(&mut net, w.forms.fragment_size);
    net
}

/// Maps a polarized network onto FORMS under the uniform w8/a16 plan.
///
/// # Errors
///
/// The mapping error, rendered.
pub fn map(w: &Workload, net: &Network) -> Result<Executor<MappedLayer>, String> {
    Executor::with_plan(
        net,
        &w.forms,
        PrecisionPlan::uniform(WEIGHT_BITS, INPUT_BITS),
    )
    .map_err(|e| format!("mapping {}: {e}", w.name))
}

/// The lowered weight matrices of a network, in weight-layer order.
pub fn weight_matrices(net: &Network) -> Vec<forms_tensor::Tensor> {
    let mut net = net.clone();
    let mut out = Vec::new();
    net.for_each_weight_layer(&mut |wl| {
        out.push(match wl {
            WeightLayerMut::Conv(c) => c.weight_matrix(),
            WeightLayerMut::Linear(l) => l.weight_matrix(),
        });
    });
    out
}

/// Request payload `index` of a run: every index draws from its own
/// stream, so no request repeats an earlier one and any payload can be
/// regenerated for verification.
pub fn payload(w: &Workload, seed: u64, index: u64) -> Vec<f32> {
    let stream = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    synth_request(&mut StdRng::seed_from_u64(stream), w.inputs, w.input_len())
}
