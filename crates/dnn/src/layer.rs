//! Network layers with forward and backward passes.
//!
//! Layers are a closed enum ([`Layer`]) rather than trait objects so that the
//! ADMM regularizer in `forms-admm` and the crossbar mapper in `forms-arch`
//! can pattern-match on layer structure (filter geometry, weight layout)
//! without downcasting.

use forms_rng::Rng;
use forms_tensor::{col2im, im2col, kaiming_uniform, Conv2dGeometry, Tensor};

use crate::Param;

/// A 2-D convolution layer over `[N, C, H, W]` inputs.
///
/// The weight layout is `[filters, in_channels, k_h, k_w]` — the layout the
/// paper's Fig. 2 reshapes into the 2-D weight matrix whose columns are
/// filters and whose rows are filter-shape positions.
#[derive(Clone, Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    stride: usize,
    padding: usize,
    cache: Option<ConvCache>,
}

#[derive(Clone, Debug)]
struct ConvCache {
    cols: Vec<Tensor>,
    geom: Conv2dGeometry,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `stride` is zero.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        filters: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(
            in_channels > 0 && filters > 0 && kernel > 0,
            "dimensions must be positive"
        );
        assert!(stride > 0, "stride must be positive");
        let fan_in = in_channels * kernel * kernel;
        let weight = kaiming_uniform(rng, &[filters, in_channels, kernel, kernel], fan_in);
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[filters])),
            stride,
            padding,
            cache: None,
        }
    }

    /// Number of output filters.
    pub fn filters(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Kernel height/width.
    pub fn kernel(&self) -> usize {
        self.weight.value.dims()[2]
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// The weight parameter (`[filters, in_channels, k_h, k_w]`).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// The bias parameter (`[filters]`).
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// The lowered 2-D weight matrix `[patch_len, filters]` of paper Fig. 2:
    /// column `f` holds filter `f` flattened channel-major.
    pub fn weight_matrix(&self) -> Tensor {
        let f = self.filters();
        let patch = self.in_channels() * self.kernel() * self.kernel();
        self.weight.value.reshape(&[f, patch]).transpose()
    }

    /// Replaces the weights from a lowered `[patch_len, filters]` matrix
    /// (inverse of [`weight_matrix`](Self::weight_matrix)).
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match this layer.
    pub fn set_weight_matrix(&mut self, m: &Tensor) {
        let f = self.filters();
        let patch = self.in_channels() * self.kernel() * self.kernel();
        assert_eq!(m.dims(), &[patch, f], "weight matrix shape mismatch");
        let dims = self.weight.value.dims().to_vec();
        self.weight.value = m.transpose().reshape(&dims);
    }

    fn geometry(&self, in_h: usize, in_w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(
            self.in_channels(),
            in_h,
            in_w,
            self.kernel(),
            self.kernel(),
            self.stride,
            self.padding,
        )
    }

    /// Forward pass over a `[N, C, H, W]` batch.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank-4 or the channel count mismatches.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        assert_eq!(x.shape().rank(), 4, "Conv2d expects [N, C, H, W] input");
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        assert_eq!(c, self.in_channels(), "Conv2d channel mismatch");
        let geom = self.geometry(h, w);
        let f = self.filters();
        let w2d = self.weight.value.reshape(&[f, geom.patch_len()]);
        let mut out = Tensor::zeros(&[n, f, geom.out_h, geom.out_w]);
        let positions = geom.out_positions();
        let mut cols_cache = Vec::with_capacity(if training { n } else { 0 });
        for s in 0..n {
            let sample = Tensor::from_vec(
                x.data()[s * c * h * w..(s + 1) * c * h * w].to_vec(),
                &[c, h, w],
            );
            let cols = im2col(&sample, &geom);
            let y = w2d.matmul(&cols); // [f, positions]
            let dst = &mut out.data_mut()[s * f * positions..(s + 1) * f * positions];
            for fi in 0..f {
                let b = self.bias.value.data()[fi];
                for p in 0..positions {
                    dst[fi * positions + p] = y.data()[fi * positions + p] + b;
                }
            }
            if training {
                cols_cache.push(cols);
            }
        }
        self.cache = training.then_some(ConvCache {
            cols: cols_cache,
            geom,
        });
        out
    }

    /// Backward pass; returns the input gradient and accumulates weight and
    /// bias gradients.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward pass.
    #[allow(clippy::needless_range_loop)] // several arrays are co-indexed
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("Conv2d::backward without forward");
        let geom = cache.geom;
        let n = grad_out.dims()[0];
        let f = self.filters();
        let positions = geom.out_positions();
        assert_eq!(
            grad_out.dims(),
            &[n, f, geom.out_h, geom.out_w],
            "Conv2d grad shape mismatch"
        );
        let patch = geom.patch_len();
        let w2d_t = self.weight.value.reshape(&[f, patch]).transpose(); // [patch, f]
        let mut grad_x = Tensor::zeros(&[n, geom.in_channels, geom.in_h, geom.in_w]);
        let mut grad_w = Tensor::zeros(&[f, patch]);
        let mut grad_b = vec![0.0f32; f];
        let in_len = geom.in_channels * geom.in_h * geom.in_w;
        for s in 0..n {
            let g = Tensor::from_vec(
                grad_out.data()[s * f * positions..(s + 1) * f * positions].to_vec(),
                &[f, positions],
            );
            // dW += g · colsᵀ
            grad_w.axpy(1.0, &g.matmul(&cache.cols[s].transpose()));
            // db += row sums of g
            for fi in 0..f {
                grad_b[fi] += g.data()[fi * positions..(fi + 1) * positions]
                    .iter()
                    .sum::<f32>();
            }
            // dX = col2im(Wᵀ · g)
            let gx = col2im(&w2d_t.matmul(&g), &geom);
            grad_x.data_mut()[s * in_len..(s + 1) * in_len].copy_from_slice(gx.data());
        }
        let wdims = self.weight.value.dims().to_vec();
        self.weight.grad.axpy(1.0, &grad_w.reshape(&wdims));
        self.bias.grad.axpy(1.0, &Tensor::from_vec(grad_b, &[f]));
        grad_x
    }
}

/// A fully-connected layer over `[N, in]` inputs.
#[derive(Clone, Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
    cache: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-initialized weights of shape
    /// `[out, in]`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "dimensions must be positive"
        );
        let weight = kaiming_uniform(rng, &[out_features, in_features], in_features);
        Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cache: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// The weight parameter (`[out, in]`).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// The bias parameter (`[out]`).
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// The lowered 2-D weight matrix `[in, out]`: column `o` is output
    /// neuron `o`'s weights, matching the conv convention where columns map
    /// to crossbar columns.
    pub fn weight_matrix(&self) -> Tensor {
        self.weight.value.transpose()
    }

    /// Replaces weights from a `[in, out]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match this layer.
    pub fn set_weight_matrix(&mut self, m: &Tensor) {
        assert_eq!(
            m.dims(),
            &[self.in_features(), self.out_features()],
            "weight matrix shape mismatch"
        );
        self.weight.value = m.transpose();
    }

    /// Forward pass over a `[N, in]` batch.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank-2 with matching feature count.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "Linear expects [N, in] input");
        assert_eq!(x.dims()[1], self.in_features(), "Linear feature mismatch");
        let out = x.matmul(&self.weight.value.transpose()); // [N, out]
        let (n, o) = (out.dims()[0], out.dims()[1]);
        let mut out = out;
        for s in 0..n {
            for j in 0..o {
                out.data_mut()[s * o + j] += self.bias.value.data()[j];
            }
        }
        self.cache = training.then(|| x.clone());
        out
    }

    /// Backward pass; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward pass.
    #[allow(clippy::needless_range_loop)] // db is co-indexed with grad_out
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache.take().expect("Linear::backward without forward");
        // dW = gᵀ · x, db = column sums of g, dX = g · W
        self.weight.grad.axpy(1.0, &grad_out.transpose().matmul(&x));
        let (n, o) = (grad_out.dims()[0], grad_out.dims()[1]);
        let mut db = vec![0.0f32; o];
        for s in 0..n {
            for j in 0..o {
                db[j] += grad_out.data()[s * o + j];
            }
        }
        self.bias.grad.axpy(1.0, &Tensor::from_vec(db, &[o]));
        grad_out.matmul(&self.weight.value)
    }
}

/// 2-D max pooling with square kernel and equal stride.
#[derive(Clone, Debug)]
pub struct MaxPool2d {
    kernel: usize,
    argmax: Option<(Vec<usize>, Vec<usize>)>, // (indices, input dims)
}

impl MaxPool2d {
    /// Creates a pool with the given square kernel (stride = kernel).
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is zero.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        Self {
            kernel,
            argmax: None,
        }
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Forward pass over `[N, C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if the spatial size is not a multiple of the kernel.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let k = self.kernel;
        assert!(
            h % k == 0 && w % k == 0,
            "pool kernel {k} does not divide {h}×{w}"
        );
        let (oh, ow) = (h / k, w / k);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0usize; n * c * oh * ow];
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = base + (oy * k + ky) * w + (ox * k + kx);
                                if x.data()[idx] > best {
                                    best = x.data()[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let o = ((s * c + ch) * oh + oy) * ow + ox;
                        out.data_mut()[o] = best;
                        argmax[o] = best_idx;
                    }
                }
            }
        }
        self.argmax = training.then_some((argmax, vec![n, c, h, w]));
        out
    }

    /// Backward pass: routes each output gradient to its argmax input.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (argmax, dims) = self
            .argmax
            .take()
            .expect("MaxPool2d::backward without forward");
        let mut grad_x = Tensor::zeros(&dims);
        for (o, &src) in argmax.iter().enumerate() {
            grad_x.data_mut()[src] += grad_out.data()[o];
        }
        grad_x
    }
}

/// 2-D average pooling with square kernel and equal stride.
///
/// With `kernel == H == W` this is the global average pool used at the end
/// of the ResNet family.
#[derive(Clone, Debug)]
pub struct AvgPool2d {
    kernel: usize,
    dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates a pool with the given square kernel (stride = kernel).
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is zero.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        Self { kernel, dims: None }
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Forward pass over `[N, C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if the spatial size is not a multiple of the kernel.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let k = self.kernel;
        assert!(
            h % k == 0 && w % k == 0,
            "pool kernel {k} does not divide {h}×{w}"
        );
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..k {
                            for kx in 0..k {
                                acc += x.data()[base + (oy * k + ky) * w + (ox * k + kx)];
                            }
                        }
                        out.data_mut()[((s * c + ch) * oh + oy) * ow + ox] = acc * inv;
                    }
                }
            }
        }
        self.dims = training.then(|| vec![n, c, h, w]);
        out
    }

    /// Backward pass: spreads each output gradient uniformly over its window.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .dims
            .take()
            .expect("AvgPool2d::backward without forward");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let k = self.kernel;
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut grad_x = Tensor::zeros(&dims);
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.data()[((s * c + ch) * oh + oy) * ow + ox] * inv;
                        for ky in 0..k {
                            for kx in 0..k {
                                grad_x.data_mut()[base + (oy * k + ky) * w + (ox * k + kx)] += g;
                            }
                        }
                    }
                }
            }
        }
        grad_x
    }
}

/// Batch normalization over the channel dimension of `[N, C, H, W]` inputs.
#[derive(Clone, Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Clone, Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        Self {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    /// The scale parameter γ.
    pub fn gamma(&self) -> &Param {
        &self.gamma
    }

    /// The shift parameter β.
    pub fn beta(&self) -> &Param {
        &self.beta
    }

    /// Forward pass: batch statistics in training, running statistics in
    /// evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank-4 with matching channels.
    #[allow(clippy::needless_range_loop)] // several per-channel arrays are co-indexed
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        assert_eq!(c, self.channels(), "BatchNorm2d channel mismatch");
        let per_channel = n * h * w;
        let mut out = Tensor::zeros(x.dims());
        let mut x_hat = Tensor::zeros(x.dims());
        let mut inv_stds = vec![0.0f32; c];
        for ch in 0..c {
            let (mean, var) = if training {
                let mut mean = 0.0;
                for s in 0..n {
                    let base = (s * c + ch) * h * w;
                    mean += x.data()[base..base + h * w].iter().sum::<f32>();
                }
                mean /= per_channel as f32;
                let mut var = 0.0;
                for s in 0..n {
                    let base = (s * c + ch) * h * w;
                    var += x.data()[base..base + h * w]
                        .iter()
                        .map(|&v| (v - mean) * (v - mean))
                        .sum::<f32>();
                }
                var /= per_channel as f32;
                self.running_mean.data_mut()[ch] =
                    (1.0 - self.momentum) * self.running_mean.data()[ch] + self.momentum * mean;
                self.running_var.data_mut()[ch] =
                    (1.0 - self.momentum) * self.running_var.data()[ch] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean.data()[ch], self.running_var.data()[ch])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds[ch] = inv_std;
            let g = self.gamma.value.data()[ch];
            let b = self.beta.value.data()[ch];
            for s in 0..n {
                let base = (s * c + ch) * h * w;
                for i in base..base + h * w {
                    let xh = (x.data()[i] - mean) * inv_std;
                    x_hat.data_mut()[i] = xh;
                    out.data_mut()[i] = g * xh + b;
                }
            }
        }
        self.cache = training.then(|| BnCache {
            x_hat,
            inv_std: inv_stds,
            dims: x.dims().to_vec(),
        });
        out
    }

    /// Backward pass using the standard batch-norm gradient.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("BatchNorm2d::backward without forward");
        let (n, c, h, w) = (cache.dims[0], cache.dims[1], cache.dims[2], cache.dims[3]);
        let m = (n * h * w) as f32;
        let mut grad_x = Tensor::zeros(&cache.dims);
        for ch in 0..c {
            let mut dgamma = 0.0;
            let mut dbeta = 0.0;
            for s in 0..n {
                let base = (s * c + ch) * h * w;
                for i in base..base + h * w {
                    dgamma += grad_out.data()[i] * cache.x_hat.data()[i];
                    dbeta += grad_out.data()[i];
                }
            }
            self.gamma.grad.data_mut()[ch] += dgamma;
            self.beta.grad.data_mut()[ch] += dbeta;
            let g = self.gamma.value.data()[ch];
            let inv_std = cache.inv_std[ch];
            for s in 0..n {
                let base = (s * c + ch) * h * w;
                for i in base..base + h * w {
                    let dxhat = grad_out.data()[i] * g;
                    grad_x.data_mut()[i] =
                        inv_std / m * (m * dxhat - dbeta * g - cache.x_hat.data()[i] * dgamma * g);
                }
            }
        }
        grad_x
    }
}

/// A ResNet basic block: `relu(body(x) + shortcut(x))`.
///
/// `body` is any layer stack (typically conv→bn→relu→conv→bn) and
/// `projection` is the optional 1×1 strided convolution used when the body
/// changes shape.
#[derive(Clone, Debug)]
pub struct ResidualBlock {
    body: Vec<Layer>,
    projection: Option<Box<Layer>>,
    relu_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Creates a residual block from a body stack and optional projection
    /// shortcut.
    pub fn new(body: Vec<Layer>, projection: Option<Layer>) -> Self {
        Self {
            body,
            projection: projection.map(Box::new),
            relu_mask: None,
        }
    }

    /// The layers of the body stack.
    pub fn body(&self) -> &[Layer] {
        &self.body
    }

    /// Mutable access to the body stack.
    pub fn body_mut(&mut self) -> &mut [Layer] {
        &mut self.body
    }

    /// The projection shortcut, if present.
    pub fn projection(&self) -> Option<&Layer> {
        self.projection.as_deref()
    }

    /// Mutable access to the projection shortcut.
    pub fn projection_mut(&mut self) -> Option<&mut Layer> {
        self.projection.as_deref_mut()
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        let mut y = x.clone();
        for layer in &mut self.body {
            y = layer.forward(&y, training);
        }
        let shortcut = match &mut self.projection {
            Some(p) => p.forward(x, training),
            None => x.clone(),
        };
        let mut out = y.zip(&shortcut, |a, b| a + b);
        let mask: Vec<bool> = out.data().iter().map(|&v| v > 0.0).collect();
        out.map_inplace(|v| v.max(0.0));
        self.relu_mask = training.then_some(mask);
        out
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .relu_mask
            .take()
            .expect("ResidualBlock::backward without forward");
        let mut g = grad_out.clone();
        for (v, &keep) in g.data_mut().iter_mut().zip(&mask) {
            if !keep {
                *v = 0.0;
            }
        }
        let mut body_grad = g.clone();
        for layer in self.body.iter_mut().rev() {
            body_grad = layer.backward(&body_grad);
        }
        let shortcut_grad = match &mut self.projection {
            Some(p) => p.backward(&g),
            None => g,
        };
        body_grad.zip(&shortcut_grad, |a, b| a + b)
    }
}

/// Mutable view of a weight-bearing layer, used by visitors that need layer
/// structure (the ADMM projections, the crossbar mapper).
#[derive(Debug)]
pub enum WeightLayerMut<'a> {
    /// A convolution layer.
    Conv(&'a mut Conv2d),
    /// A fully-connected layer.
    Linear(&'a mut Linear),
}

/// A network layer.
///
/// All layers operate on batched tensors: `[N, C, H, W]` for spatial layers
/// and `[N, features]` after a [`flatten`](Layer::flatten).
#[derive(Clone, Debug)]
pub enum Layer {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Fully-connected layer.
    Linear(Linear),
    /// Rectified linear unit; caches its mask for backward.
    ReLU(Option<Vec<bool>>),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Average pooling.
    AvgPool2d(AvgPool2d),
    /// Batch normalization.
    BatchNorm2d(BatchNorm2d),
    /// Collapses `[N, ...]` to `[N, features]`; caches dims for backward.
    Flatten(Option<Vec<usize>>),
    /// ResNet basic block.
    Residual(ResidualBlock),
}

impl Layer {
    /// Convenience constructor for a convolution layer.
    pub fn conv2d<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        filters: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Layer::Conv2d(Conv2d::new(
            rng,
            in_channels,
            filters,
            kernel,
            stride,
            padding,
        ))
    }

    /// Convenience constructor for a linear layer.
    pub fn linear<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Layer::Linear(Linear::new(rng, in_features, out_features))
    }

    /// Convenience constructor for a ReLU.
    pub fn relu() -> Self {
        Layer::ReLU(None)
    }

    /// Convenience constructor for max pooling.
    pub fn max_pool(kernel: usize) -> Self {
        Layer::MaxPool2d(MaxPool2d::new(kernel))
    }

    /// Convenience constructor for average pooling.
    pub fn avg_pool(kernel: usize) -> Self {
        Layer::AvgPool2d(AvgPool2d::new(kernel))
    }

    /// Convenience constructor for batch normalization.
    pub fn batch_norm(channels: usize) -> Self {
        Layer::BatchNorm2d(BatchNorm2d::new(channels))
    }

    /// Convenience constructor for a flatten layer.
    pub fn flatten() -> Self {
        Layer::Flatten(None)
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        match self {
            Layer::Conv2d(l) => l.forward(x, training),
            Layer::Linear(l) => l.forward(x, training),
            Layer::ReLU(mask) => {
                let out = x.map(|v| v.max(0.0));
                *mask = training.then(|| x.data().iter().map(|&v| v > 0.0).collect());
                out
            }
            Layer::MaxPool2d(l) => l.forward(x, training),
            Layer::AvgPool2d(l) => l.forward(x, training),
            Layer::BatchNorm2d(l) => l.forward(x, training),
            Layer::Flatten(dims) => {
                let n = x.dims()[0];
                let features = x.len() / n.max(1);
                *dims = training.then(|| x.dims().to_vec());
                x.reshape(&[n, features])
            }
            Layer::Residual(l) => l.forward(x, training),
        }
    }

    /// Backward pass; returns the gradient with respect to the layer input.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self {
            Layer::Conv2d(l) => l.backward(grad_out),
            Layer::Linear(l) => l.backward(grad_out),
            Layer::ReLU(mask) => {
                let mask = mask.take().expect("ReLU::backward without forward");
                let mut g = grad_out.clone();
                for (v, &keep) in g.data_mut().iter_mut().zip(&mask) {
                    if !keep {
                        *v = 0.0;
                    }
                }
                g
            }
            Layer::MaxPool2d(l) => l.backward(grad_out),
            Layer::AvgPool2d(l) => l.backward(grad_out),
            Layer::BatchNorm2d(l) => l.backward(grad_out),
            Layer::Flatten(dims) => {
                let dims = dims.take().expect("Flatten::backward without forward");
                grad_out.reshape(&dims)
            }
            Layer::Residual(l) => l.backward(grad_out),
        }
    }

    /// Visits every trainable parameter, depth-first.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            Layer::Conv2d(l) => {
                f(&mut l.weight);
                f(&mut l.bias);
            }
            Layer::Linear(l) => {
                f(&mut l.weight);
                f(&mut l.bias);
            }
            Layer::BatchNorm2d(l) => {
                f(&mut l.gamma);
                f(&mut l.beta);
            }
            Layer::Residual(l) => {
                for layer in &mut l.body {
                    layer.for_each_param(f);
                }
                if let Some(p) = &mut l.projection {
                    p.for_each_param(f);
                }
            }
            _ => {}
        }
    }

    /// Visits every weight-bearing layer (conv and linear), depth-first into
    /// residual blocks.
    pub fn for_each_weight_layer(&mut self, f: &mut dyn FnMut(WeightLayerMut<'_>)) {
        match self {
            Layer::Conv2d(l) => f(WeightLayerMut::Conv(l)),
            Layer::Linear(l) => f(WeightLayerMut::Linear(l)),
            Layer::Residual(l) => {
                for layer in &mut l.body {
                    layer.for_each_weight_layer(f);
                }
                if let Some(p) = &mut l.projection {
                    p.for_each_weight_layer(f);
                }
            }
            _ => {}
        }
    }

    /// Number of weight-bearing (conv/linear) layers in this layer,
    /// depth-first into residual blocks. Unlike
    /// [`for_each_weight_layer`](Self::for_each_weight_layer) this needs no
    /// mutable access, so callers can count without cloning the network.
    pub fn weight_layer_count(&self) -> usize {
        match self {
            Layer::Conv2d(_) | Layer::Linear(_) => 1,
            Layer::Residual(l) => {
                l.body.iter().map(Layer::weight_layer_count).sum::<usize>()
                    + l.projection.as_deref().map_or(0, Layer::weight_layer_count)
            }
            _ => 0,
        }
    }

    /// Number of trainable scalars in this layer.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.for_each_param(&mut |p| n += p.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forms_rng::StdRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    /// Numerical gradient check for a layer on a small input.
    fn grad_check(layer: &mut Layer, x: &Tensor, tol: f32) {
        // Loss = sum(forward(x)); analytic input gradient vs finite diff.
        let y = layer.forward(x, true);
        let grad_out = Tensor::ones(y.dims());
        let grad_x = layer.backward(&grad_out);
        let eps = 1e-2;
        for i in (0..x.len()).step_by((x.len() / 7).max(1)) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = layer.forward(&xp, false).sum();
            let fm = layer.forward(&xm, false).sum();
            let num = (fp - fm) / (2.0 * eps);
            let ana = grad_x.data()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "grad mismatch at {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn conv_forward_shape() {
        let mut l = Conv2d::new(&mut rng(), 3, 8, 3, 1, 1);
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let y = l.forward(&x, false);
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn conv_grad_check() {
        let mut l = Layer::conv2d(&mut rng(), 2, 3, 3, 1, 1);
        let x = forms_tensor::uniform(&mut rng(), &[1, 2, 5, 5], 1.0);
        grad_check(&mut l, &x, 1e-2);
    }

    #[test]
    fn conv_weight_grad_check() {
        let mut rng = rng();
        let mut l = Conv2d::new(&mut rng, 1, 2, 3, 1, 0);
        let x = forms_tensor::uniform(&mut rng, &[1, 1, 4, 4], 1.0);
        let y = l.forward(&x, true);
        l.backward(&Tensor::ones(y.dims()));
        let analytic = l.weight.grad.clone();
        let eps = 1e-2;
        for i in 0..analytic.len() {
            let orig = l.weight.value.data()[i];
            l.weight.value.data_mut()[i] = orig + eps;
            let fp = l.forward(&x, false).sum();
            l.weight.value.data_mut()[i] = orig - eps;
            let fm = l.forward(&x, false).sum();
            l.weight.value.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[i]).abs() < 1e-2 * (1.0 + num.abs()),
                "weight grad mismatch at {i}"
            );
        }
    }

    #[test]
    fn linear_grad_check() {
        let mut l = Layer::linear(&mut rng(), 6, 4);
        let x = forms_tensor::uniform(&mut rng(), &[3, 6], 1.0);
        grad_check(&mut l, &x, 1e-2);
    }

    #[test]
    fn relu_masks_negatives() {
        let mut l = Layer::relu();
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[1, 4]);
        let y = l.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = l.backward(&Tensor::ones(&[1, 4]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_selects_max_and_routes_grad() {
        let mut l = Layer::max_pool(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = l.forward(&x, true);
        assert_eq!(y.data(), &[4.0]);
        let g = l.backward(&Tensor::ones(&[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn avgpool_grad_check() {
        let mut l = Layer::avg_pool(2);
        let x = forms_tensor::uniform(&mut rng(), &[1, 2, 4, 4], 1.0);
        grad_check(&mut l, &x, 1e-3);
    }

    #[test]
    fn batchnorm_normalizes_in_training() {
        let mut l = BatchNorm2d::new(2);
        let x = forms_tensor::uniform(&mut rng(), &[4, 2, 3, 3], 5.0);
        let y = l.forward(&x, true);
        // Per-channel mean ≈ 0, var ≈ 1.
        let (n, c, h, w) = (4, 2, 3, 3);
        for ch in 0..c {
            let mut vals = vec![];
            for s in 0..n {
                let base = (s * c + ch) * h * w;
                vals.extend_from_slice(&y.data()[base..base + h * w]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn flatten_round_trip() {
        let mut l = Layer::flatten();
        let x = Tensor::ones(&[2, 3, 2, 2]);
        let y = l.forward(&x, true);
        assert_eq!(y.dims(), &[2, 12]);
        let g = l.backward(&Tensor::ones(&[2, 12]));
        assert_eq!(g.dims(), &[2, 3, 2, 2]);
    }

    #[test]
    fn residual_identity_shortcut_adds() {
        let mut rng = rng();
        // Body that multiplies by ~0 (zero conv weights) — output is
        // relu(shortcut).
        let mut conv = Conv2d::new(&mut rng, 2, 2, 3, 1, 1);
        conv.weight_mut().value.scale(0.0);
        let mut block = Layer::Residual(ResidualBlock::new(vec![Layer::Conv2d(conv)], None));
        let x = Tensor::from_vec(
            (0..2 * 2 * 3 * 3)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
            &[2, 2, 3, 3],
        );
        let y = block.forward(&x, false);
        assert_eq!(y.data(), x.map(|v| v.max(0.0)).data());
    }

    #[test]
    fn residual_grad_check() {
        let mut rng = rng();
        let body = vec![
            Layer::conv2d(&mut rng, 2, 2, 3, 1, 1),
            Layer::relu(),
            Layer::conv2d(&mut rng, 2, 2, 3, 1, 1),
        ];
        let mut block = Layer::Residual(ResidualBlock::new(body, None));
        let x = forms_tensor::uniform(&mut rng, &[1, 2, 4, 4], 1.0);
        grad_check(&mut block, &x, 2e-2);
    }

    #[test]
    fn weight_matrix_round_trip() {
        let mut l = Conv2d::new(&mut rng(), 3, 4, 3, 1, 1);
        let m = l.weight_matrix();
        assert_eq!(m.dims(), &[27, 4]);
        let orig = l.weight().value.clone();
        l.set_weight_matrix(&m);
        assert_eq!(l.weight().value, orig);
    }

    #[test]
    fn linear_weight_matrix_round_trip() {
        let mut l = Linear::new(&mut rng(), 5, 3);
        let m = l.weight_matrix();
        assert_eq!(m.dims(), &[5, 3]);
        let orig = l.weight().value.clone();
        l.set_weight_matrix(&m);
        assert_eq!(l.weight().value, orig);
    }

    #[test]
    fn param_visit_counts() {
        let mut rng = rng();
        let mut l = Layer::conv2d(&mut rng, 2, 4, 3, 1, 1);
        assert_eq!(l.param_count(), 2 * 4 * 9 + 4);
    }
}
