//! The model-architecture configuration space of the paper's Section III.
//!
//! A [`ModelConfig`] captures everything the paper varies when it sweeps the
//! design space: number of dense features, the set of sparse features (each
//! with a hash size and a mean number of lookups), the shared embedding
//! dimension, the bottom/top MLP stacks, and the feature-interaction type.
//! The geometry helpers (`*_flops_per_example`, `embedding_bytes`, …) are
//! the single source of truth that both the real numerics (`recsim-model`)
//! and the performance simulator (`recsim-sim`) derive their work from.

use recsim_metrics::json::{FromJson, Value};
use recsim_verify::{Code, Diagnostic, Validate};

/// Bytes per FP32 value — the paper's models train in single precision.
pub const F32_BYTES: u64 = 4;

/// Storage precision of embedding-table rows.
///
/// The paper points to "compression for these large embedding tables using
/// quantization" as an optimization opportunity (Section III.A.2, citing
/// mixed-dimension/quantized embeddings). Precision scales both the table
/// footprint and the gather traffic; arithmetic still happens in FP32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EmbeddingPrecision {
    /// 4 bytes per value (the paper's production models).
    #[default]
    Fp32,
    /// 2 bytes per value.
    Fp16,
    /// 1 byte per value (plus negligible per-row scales).
    Int8,
}

impl EmbeddingPrecision {
    /// Bytes per stored embedding value.
    pub fn bytes_per_value(self) -> u64 {
        match self {
            EmbeddingPrecision::Fp32 => 4,
            EmbeddingPrecision::Fp16 => 2,
            EmbeddingPrecision::Int8 => 1,
        }
    }
}

/// How dense and sparse representations are combined (Section III.A.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interaction {
    /// Pooled embeddings are concatenated with the bottom-MLP output.
    Concat,
    /// Pairwise dot products among sparse embeddings and the projected
    /// dense output, concatenated with the bottom-MLP output.
    DotProduct,
}

/// One sparse (categorical) feature and its embedding table (Section III.A).
///
/// # Example
///
/// ```
/// use recsim_data::schema::SparseFeatureSpec;
///
/// let f = SparseFeatureSpec::new("ad_id", 1_000_000, 12.0);
/// assert_eq!(f.hash_size(), 1_000_000);
/// assert_eq!(f.effective_lookups(32), 12.0);
/// assert_eq!(f.effective_lookups(8), 8.0); // truncation caps outliers
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseFeatureSpec {
    name: String,
    /// Number of rows in the embedding table (the hash size `m_i`).
    hash_size: u64,
    /// Mean number of activated indices (lookups) per example.
    mean_lookups: f64,
}

impl SparseFeatureSpec {
    /// Creates a sparse feature spec.
    ///
    /// # Panics
    ///
    /// Panics if `hash_size` is zero or `mean_lookups` is not positive.
    pub fn new(name: impl Into<String>, hash_size: u64, mean_lookups: f64) -> Self {
        assert!(hash_size > 0, "hash size must be positive");
        assert!(
            mean_lookups > 0.0 && mean_lookups.is_finite(),
            "mean lookups must be positive"
        );
        Self {
            name: name.into(),
            hash_size,
            mean_lookups,
        }
    }

    /// Feature name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Embedding-table row count (`m_i` in the paper).
    pub fn hash_size(&self) -> u64 {
        self.hash_size
    }

    /// Mean activated indices per example before truncation.
    pub fn mean_lookups(&self) -> f64 {
        self.mean_lookups
    }

    /// Mean lookups after applying the truncation cap the paper uses to
    /// "limit the outliers" (32 in its test suite).
    pub fn effective_lookups(&self, truncation: u32) -> f64 {
        self.mean_lookups.min(truncation as f64)
    }

    /// Size of this feature's embedding table in bytes for dimension `d`.
    pub fn table_bytes(&self, embedding_dim: usize) -> u64 {
        self.hash_size * embedding_dim as u64 * F32_BYTES
    }
}

/// A complete recommendation-model architecture configuration.
///
/// Mirrors the red-highlighted knobs of the paper's Figure 3: feature
/// counts, embedding tables, interaction type and MLP dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    name: String,
    num_dense: usize,
    sparse: Vec<SparseFeatureSpec>,
    embedding_dim: usize,
    bottom_mlp: Vec<usize>,
    top_mlp: Vec<usize>,
    interaction: Interaction,
    /// Per-feature lookup truncation (the paper's test suite uses 32).
    truncation: u32,
    /// Table index per sparse feature; identity unless features share
    /// tables (`with_shared_tables`).
    table_of: Vec<usize>,
    /// Storage precision of embedding rows.
    precision: EmbeddingPrecision,
}

impl ModelConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if there are no dense features, no MLP layers, a zero
    /// embedding dimension, or zero-width MLP layers.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        num_dense: usize,
        sparse: Vec<SparseFeatureSpec>,
        embedding_dim: usize,
        bottom_mlp: Vec<usize>,
        top_mlp: Vec<usize>,
        interaction: Interaction,
        truncation: u32,
    ) -> Self {
        assert!(num_dense > 0, "need at least one dense feature");
        assert!(embedding_dim > 0, "embedding dimension must be positive");
        assert!(
            !bottom_mlp.is_empty() && !top_mlp.is_empty(),
            "MLP stacks must be non-empty"
        );
        assert!(
            bottom_mlp.iter().chain(top_mlp.iter()).all(|&w| w > 0),
            "MLP layer widths must be positive"
        );
        assert!(truncation > 0, "truncation must be positive");
        let table_of = (0..sparse.len()).collect();
        Self {
            name: name.into(),
            num_dense,
            sparse,
            embedding_dim,
            bottom_mlp,
            top_mlp,
            interaction,
            truncation,
            table_of,
            precision: EmbeddingPrecision::Fp32,
        }
    }

    /// Returns a copy in which each listed group of sparse features shares
    /// one embedding table (Section III.A.2: "sparse features can be
    /// configured to share embedding tables to reduce the overall size of
    /// the model … this requires a shared hash sizing"). Features not
    /// mentioned keep private tables.
    ///
    /// # Panics
    ///
    /// Panics if a group references an out-of-range feature, a feature
    /// appears in two groups, or a group mixes hash sizes.
    pub fn with_shared_tables(&self, groups: &[Vec<usize>]) -> Self {
        let n = self.sparse.len();
        let mut group_of = vec![usize::MAX; n];
        for (g, members) in groups.iter().enumerate() {
            assert!(!members.is_empty(), "empty sharing group");
            let hash = self.sparse[members[0]].hash_size();
            for &f in members {
                assert!(f < n, "feature index {f} out of range");
                assert_eq!(group_of[f], usize::MAX, "feature {f} in two groups");
                assert_eq!(
                    self.sparse[f].hash_size(),
                    hash,
                    "shared tables require a shared hash sizing"
                );
                group_of[f] = g;
            }
        }
        // Assign table ids: one per group, then one per ungrouped feature.
        let mut table_of = vec![usize::MAX; n];
        let mut next = groups.len();
        for f in 0..n {
            if group_of[f] != usize::MAX {
                table_of[f] = group_of[f];
            } else {
                table_of[f] = next;
                next += 1;
            }
        }
        Self {
            name: format!("{} (shared tables)", self.name),
            table_of,
            ..self.clone()
        }
    }

    /// Returns a copy storing embeddings at the given precision.
    pub fn with_embedding_precision(&self, precision: EmbeddingPrecision) -> Self {
        Self {
            precision,
            ..self.clone()
        }
    }

    /// Storage precision of embedding rows.
    pub fn embedding_precision(&self) -> EmbeddingPrecision {
        self.precision
    }

    /// The distinct-table index backing sparse feature `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn table_of(&self, i: usize) -> usize {
        self.table_of[i]
    }

    /// Number of distinct embedding tables (≤ the number of sparse
    /// features when tables are shared).
    pub fn num_tables(&self) -> usize {
        self.table_of.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// The sparse features backed by table `t`, in feature order.
    pub fn table_features(&self, t: usize) -> Vec<usize> {
        (0..self.sparse.len())
            .filter(|&f| self.table_of[f] == t)
            .collect()
    }

    /// Hash size of distinct table `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` has no features (out of range).
    pub fn table_hash_size(&self, t: usize) -> u64 {
        let f = *self
            .table_features(t)
            .first()
            .expect("table index out of range");
        self.sparse[f].hash_size()
    }

    /// The parameterized test-suite model of Section V: `num_sparse`
    /// identical sparse features with a shared `hash_size`, fixed embedding
    /// dimension 32, symmetric `mlp` used for both stacks, dot-product
    /// interaction and lookup truncation 32.
    ///
    /// The paper: "We fix a constant hash size for all sparse features in
    /// our model to remove potential noise … We truncate number of look-ups
    /// per table to 32."
    pub fn test_suite(num_dense: usize, num_sparse: usize, hash_size: u64, mlp: &[usize]) -> Self {
        let sparse = (0..num_sparse)
            .map(|i| SparseFeatureSpec::new(format!("sparse_{i}"), hash_size, 20.0))
            .collect();
        Self::new(
            format!("test_suite(d={num_dense},s={num_sparse},h={hash_size})"),
            num_dense,
            sparse,
            32,
            mlp.to_vec(),
            mlp.to_vec(),
            Interaction::DotProduct,
            32,
        )
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dense (continuous) input features.
    pub fn num_dense(&self) -> usize {
        self.num_dense
    }

    /// The sparse feature specs.
    pub fn sparse_features(&self) -> &[SparseFeatureSpec] {
        &self.sparse
    }

    /// Number of sparse features (= number of embedding tables when tables
    /// are not shared).
    pub fn num_sparse(&self) -> usize {
        self.sparse.len()
    }

    /// Shared embedding dimension `d`.
    pub fn embedding_dim(&self) -> usize {
        self.embedding_dim
    }

    /// Bottom (dense) MLP widths, excluding the input layer.
    pub fn bottom_mlp(&self) -> &[usize] {
        &self.bottom_mlp
    }

    /// Top MLP widths, excluding the input and the final single logit.
    pub fn top_mlp(&self) -> &[usize] {
        &self.top_mlp
    }

    /// Feature-interaction type.
    pub fn interaction(&self) -> Interaction {
        self.interaction
    }

    /// Per-feature lookup truncation cap.
    pub fn truncation(&self) -> u32 {
        self.truncation
    }

    /// Returns a copy with a different truncation cap (an ablation knob).
    pub fn with_truncation(&self, truncation: u32) -> Self {
        assert!(truncation > 0, "truncation must be positive");
        Self {
            truncation,
            ..self.clone()
        }
    }

    /// Returns a copy with every hash size scaled by `factor` (the Figure 12
    /// sweep).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn with_hash_scale(&self, factor: u64) -> Self {
        assert!(factor > 0, "hash scale factor must be positive");
        Self {
            name: format!("{} x{}h", self.name, factor),
            sparse: self
                .sparse
                .iter()
                .map(|f| SparseFeatureSpec::new(f.name(), f.hash_size() * factor, f.mean_lookups()))
                .collect(),
            ..self.clone()
        }
    }

    // ------------------------------------------------------------------
    // Geometry: sizes
    // ------------------------------------------------------------------

    /// Bytes of one stored embedding row (at the configured precision).
    pub fn row_bytes(&self) -> u64 {
        self.embedding_dim as u64 * self.precision.bytes_per_value()
    }

    /// Bytes of feature `i`'s embedding table (shared tables report the
    /// full shared size).
    pub fn table_bytes(&self, i: usize) -> u64 {
        self.sparse[i].hash_size() * self.row_bytes()
    }

    /// Total bytes of all *distinct* embedding tables (weights only);
    /// shared tables count once. Saturates at `u64::MAX`, which RV028
    /// reports as an overflow.
    pub fn total_embedding_bytes(&self) -> u64 {
        (0..self.num_tables())
            .map(|t| self.table_hash_size(t).saturating_mul(self.row_bytes()))
            .fold(0, u64::saturating_add)
    }

    /// Total MLP parameter bytes (both stacks, weights + biases).
    pub fn mlp_parameter_bytes(&self) -> u64 {
        let mut params = 0u64;
        let mut prev = self.num_dense;
        for &w in &self.bottom_mlp {
            params += (prev * w + w) as u64;
            prev = w;
        }
        let mut prev = self.top_input_dim();
        for &w in &self.top_mlp {
            params += (prev * w + w) as u64;
            prev = w;
        }
        params += (prev + 1) as u64; // final logit
        params * F32_BYTES
    }

    /// Mean total embedding lookups per example across all features, after
    /// truncation. (Table II's "Embedding Lookups" row is the per-feature
    /// mean; multiply by `num_sparse` for this total.)
    pub fn lookups_per_example(&self) -> f64 {
        self.sparse
            .iter()
            .map(|f| f.effective_lookups(self.truncation))
            .sum()
    }

    /// Mean lookups per sparse feature (Table II's "Embedding Lookups").
    pub fn mean_lookups_per_feature(&self) -> f64 {
        if self.sparse.is_empty() {
            0.0
        } else {
            self.lookups_per_example() / self.sparse.len() as f64
        }
    }

    /// The width of the vector entering the top MLP.
    pub fn top_input_dim(&self) -> usize {
        let bottom_out = *self.bottom_mlp.last().expect("non-empty bottom MLP");
        match self.interaction {
            Interaction::Concat => bottom_out + self.num_sparse() * self.embedding_dim,
            Interaction::DotProduct => {
                // Dense output is projected to d and dotted pairwise with
                // the S sparse embeddings: (S+1 choose 2) pairs, then
                // concatenated with the original bottom output.
                let n = self.num_sparse() + 1;
                bottom_out + n * (n - 1) / 2
            }
        }
    }

    // ------------------------------------------------------------------
    // Geometry: FLOPs (forward pass, per example)
    // ------------------------------------------------------------------

    /// Forward FLOPs of the bottom MLP per example (2 × MACs).
    pub fn bottom_mlp_flops_per_example(&self) -> u64 {
        let mut flops = 0u64;
        let mut prev = self.num_dense;
        for &w in &self.bottom_mlp {
            flops += 2 * (prev * w) as u64;
            prev = w;
        }
        flops
    }

    /// Forward FLOPs of the top MLP per example, including the final logit.
    pub fn top_mlp_flops_per_example(&self) -> u64 {
        let mut flops = 0u64;
        let mut prev = self.top_input_dim();
        for &w in &self.top_mlp {
            flops += 2 * (prev * w) as u64;
            prev = w;
        }
        flops + 2 * prev as u64
    }

    /// Forward FLOPs of the feature interaction per example.
    pub fn interaction_flops_per_example(&self) -> u64 {
        match self.interaction {
            Interaction::Concat => 0,
            Interaction::DotProduct => {
                let bottom_out = *self.bottom_mlp.last().expect("non-empty bottom MLP");
                let n = self.num_sparse() + 1;
                let pairs = (n * (n - 1) / 2) as u64;
                // dense->d projection + pairwise dots.
                2 * (bottom_out * self.embedding_dim) as u64 + pairs * 2 * self.embedding_dim as u64
            }
        }
    }

    /// Embedding pooling FLOPs per example (summing looked-up rows).
    pub fn pooling_flops_per_example(&self) -> u64 {
        (self.lookups_per_example() * self.embedding_dim as f64) as u64
    }

    /// Total forward FLOPs per example.
    pub fn forward_flops_per_example(&self) -> u64 {
        self.bottom_mlp_flops_per_example()
            + self.top_mlp_flops_per_example()
            + self.interaction_flops_per_example()
            + self.pooling_flops_per_example()
    }

    /// Bytes gathered from embedding tables per example (forward).
    pub fn embedding_read_bytes_per_example(&self) -> u64 {
        (self.lookups_per_example() * self.row_bytes() as f64) as u64
    }

    /// Bytes of pooled embeddings per example (what crosses links when
    /// tables live off-device: one `d`-vector per sparse feature).
    pub fn pooled_bytes_per_example(&self) -> u64 {
        self.num_sparse() as u64 * self.row_bytes()
    }

    /// Bytes of one raw input example (dense values + sparse indices + label).
    pub fn example_bytes(&self) -> u64 {
        let dense = self.num_dense as u64 * F32_BYTES;
        let sparse = (self.lookups_per_example() * 4.0) as u64; // u32 indices
        dense + sparse + F32_BYTES
    }
}

/// Checkpoint form: fields in declaration order, enums as variant names.
impl ModelConfig {
    /// The configuration as a JSON object.
    pub fn to_json(&self) -> Value {
        let sparse = self.sparse.iter().map(|f| {
            Value::object([
                ("name", Value::from(f.name.as_str())),
                ("hash_size", f.hash_size.into()),
                ("mean_lookups", f.mean_lookups.into()),
            ])
        });
        Value::object([
            ("name", Value::from(self.name.as_str())),
            ("num_dense", self.num_dense.into()),
            ("sparse", Value::Array(sparse.collect())),
            ("embedding_dim", self.embedding_dim.into()),
            ("bottom_mlp", Value::array(self.bottom_mlp.iter().copied())),
            ("top_mlp", Value::array(self.top_mlp.iter().copied())),
            ("interaction", format!("{:?}", self.interaction).into()),
            ("truncation", self.truncation.into()),
            ("table_of", Value::array(self.table_of.iter().copied())),
            ("precision", format!("{:?}", self.precision).into()),
        ])
    }
}

impl FromJson for SparseFeatureSpec {
    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(Self {
            name: v.field("name")?,
            hash_size: v.field("hash_size")?,
            mean_lookups: v.field("mean_lookups")?,
        })
    }
}

/// Reads the [`ModelConfig::to_json`] form back, rejecting any config that
/// fails RV028 instead of panicking later.
impl FromJson for ModelConfig {
    fn from_json(v: &Value) -> Result<Self, String> {
        let interaction = match v.field::<String>("interaction")?.as_str() {
            "Concat" => Interaction::Concat,
            "DotProduct" => Interaction::DotProduct,
            other => return Err(format!("unknown interaction `{other}`")),
        };
        let precision = match v.field::<String>("precision")?.as_str() {
            "Fp32" => EmbeddingPrecision::Fp32,
            "Fp16" => EmbeddingPrecision::Fp16,
            "Int8" => EmbeddingPrecision::Int8,
            other => return Err(format!("unknown precision `{other}`")),
        };
        let config = Self {
            name: v.field("name")?,
            num_dense: v.field("num_dense")?,
            sparse: v.field("sparse")?,
            embedding_dim: v.field("embedding_dim")?,
            bottom_mlp: v.field("bottom_mlp")?,
            top_mlp: v.field("top_mlp")?,
            interaction,
            truncation: v.field("truncation")?,
            table_of: v.field("table_of")?,
            precision,
        };
        config.check().map_err(|e| e.to_string())?;
        Ok(config)
    }
}

/// RV028: structural invariants of a model architecture. `ModelConfig::new`
/// upholds most of these, but configs are also read back from checkpoints and
/// the `table_of` sharing map can only go wrong through hand-edited
/// serialized forms — the simulators run this before costing a model.
impl Validate for ModelConfig {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let at = |part: &str| format!("ModelConfig({}).{part}", self.name);
        if self.num_dense == 0 {
            diags.push(Diagnostic::error(
                Code::InvalidModelConfig,
                at("num_dense"),
                "need at least one dense feature",
            ));
        }
        if self.embedding_dim == 0 {
            diags.push(Diagnostic::error(
                Code::InvalidModelConfig,
                at("embedding_dim"),
                "embedding dimension must be positive",
            ));
        }
        if self.truncation == 0 {
            diags.push(Diagnostic::error(
                Code::InvalidModelConfig,
                at("truncation"),
                "lookup truncation must be positive",
            ));
        }
        for (part, mlp) in [("bottom_mlp", &self.bottom_mlp), ("top_mlp", &self.top_mlp)] {
            if mlp.is_empty() {
                diags.push(Diagnostic::error(
                    Code::InvalidModelConfig,
                    at(part),
                    "MLP stack must be non-empty",
                ));
            } else if mlp.contains(&0) {
                diags.push(Diagnostic::error(
                    Code::InvalidModelConfig,
                    at(part),
                    "MLP layer widths must be positive",
                ));
            }
        }
        for (i, f) in self.sparse.iter().enumerate() {
            if f.hash_size == 0 {
                diags.push(Diagnostic::error(
                    Code::InvalidModelConfig,
                    at(&format!("sparse[{i}]")),
                    format!("feature `{}` has a zero hash size", f.name),
                ));
            }
            if !(f.mean_lookups > 0.0 && f.mean_lookups.is_finite()) {
                diags.push(Diagnostic::error(
                    Code::InvalidModelConfig,
                    at(&format!("sparse[{i}]")),
                    format!(
                        "feature `{}` mean lookups {} must be positive and finite",
                        f.name, f.mean_lookups
                    ),
                ));
            }
        }
        // Table-sharing map: one entry per feature, dense table ids, and a
        // consistent hash size within each shared table.
        if self.table_of.len() != self.sparse.len() {
            diags.push(Diagnostic::error(
                Code::InvalidModelConfig,
                at("table_of"),
                format!(
                    "sharing map has {} entries for {} sparse features",
                    self.table_of.len(),
                    self.sparse.len()
                ),
            ));
        } else {
            // `num_tables` is max(table_of)+1, so ids cannot exceed it; the
            // failure mode is a *gap* — a table id nothing references.
            let num_tables = self.num_tables();
            let mut seen = vec![false; num_tables];
            for &t in &self.table_of {
                seen[t] = true;
            }
            for (t, &used) in seen.iter().enumerate() {
                if !used {
                    diags.push(Diagnostic::error(
                        Code::InvalidModelConfig,
                        at("table_of"),
                        format!("table id {t} is referenced by no feature"),
                    ));
                }
            }
            // Checked, so a huge hash size is reported here instead of
            // overflowing the byte arithmetic of placement and costing.
            let mut table_bytes = Some(0u64);
            for t in 0..num_tables {
                let features = self.table_features(t);
                if let Some((&first, rest)) = features.split_first() {
                    let hash = self.sparse[first].hash_size;
                    table_bytes = table_bytes
                        .and_then(|sum| sum.checked_add(hash.checked_mul(self.row_bytes())?));
                    for &f in rest {
                        if self.sparse[f].hash_size != hash {
                            diags.push(Diagnostic::error(
                                Code::InvalidModelConfig,
                                at(&format!("table_of[{f}]")),
                                "shared tables require a shared hash sizing",
                            ));
                        }
                    }
                }
            }
            if table_bytes.is_none() {
                diags.push(Diagnostic::error(
                    Code::InvalidModelConfig,
                    at("sparse"),
                    "embedding table bytes overflow u64",
                ));
            }
        }
        diags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ModelConfig {
        ModelConfig::test_suite(64, 8, 1000, &[128, 64])
    }

    #[test]
    fn test_suite_shape() {
        let m = small();
        assert_eq!(m.num_dense(), 64);
        assert_eq!(m.num_sparse(), 8);
        assert_eq!(m.embedding_dim(), 32);
        assert_eq!(m.truncation(), 32);
        assert_eq!(m.interaction(), Interaction::DotProduct);
    }

    #[test]
    fn table_bytes_scale_with_hash_and_dim() {
        let m = small();
        assert_eq!(m.table_bytes(0), 1000 * 32 * 4);
        assert_eq!(m.total_embedding_bytes(), 8 * 1000 * 32 * 4);
        let scaled = m.with_hash_scale(10);
        assert_eq!(
            scaled.total_embedding_bytes(),
            m.total_embedding_bytes() * 10
        );
    }

    #[test]
    fn rv028_reports_table_byte_overflow() {
        let huge = ModelConfig::test_suite(256, 16, 1_000_000_000_000_000_000, &[512]);
        let diags = huge.validate();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code(), Code::InvalidModelConfig);
        assert!(diags[0].to_string().contains("overflow"), "{}", diags[0]);
        assert!(small().validate().is_empty());
    }

    #[test]
    fn truncation_caps_lookups() {
        let f = SparseFeatureSpec::new("f", 100, 100.0);
        assert_eq!(f.effective_lookups(32), 32.0);
        let m = small().with_truncation(4);
        assert_eq!(m.lookups_per_example(), 8.0 * 4.0);
    }

    #[test]
    fn dot_product_top_input_dim() {
        let m = small();
        // bottom out 64 + C(9,2)=36 pairs
        assert_eq!(m.top_input_dim(), 64 + 36);
    }

    #[test]
    fn concat_top_input_dim() {
        let m = ModelConfig::new(
            "c",
            16,
            vec![SparseFeatureSpec::new("a", 10, 1.0); 3],
            8,
            vec![32],
            vec![16],
            Interaction::Concat,
            32,
        );
        assert_eq!(m.top_input_dim(), 32 + 3 * 8);
        assert_eq!(m.interaction_flops_per_example(), 0);
    }

    #[test]
    fn bottom_mlp_flops() {
        let m = small();
        // 2*(64*128 + 128*64)
        assert_eq!(m.bottom_mlp_flops_per_example(), 2 * (64 * 128 + 128 * 64));
    }

    #[test]
    fn top_mlp_flops_include_logit() {
        let m = small();
        let ti = m.top_input_dim() as u64;
        assert_eq!(
            m.top_mlp_flops_per_example(),
            2 * (ti * 128 + 128 * 64) + 2 * 64
        );
    }

    #[test]
    fn more_sparse_features_more_embedding_bytes() {
        let a = ModelConfig::test_suite(64, 4, 1000, &[64]);
        let b = ModelConfig::test_suite(64, 64, 1000, &[64]);
        assert!(b.embedding_read_bytes_per_example() > a.embedding_read_bytes_per_example());
        assert!(b.pooled_bytes_per_example() > a.pooled_bytes_per_example());
    }

    #[test]
    fn mlp_parameter_bytes_counts_biases() {
        let m = ModelConfig::new(
            "p",
            4,
            vec![SparseFeatureSpec::new("a", 10, 1.0)],
            2,
            vec![3],
            vec![2],
            Interaction::Concat,
            32,
        );
        // bottom: 4*3+3 = 15; top input = 3+2=5: 5*2+2 = 12; logit: 2+1 = 3.
        assert_eq!(m.mlp_parameter_bytes(), (15 + 12 + 3) * 4);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn zero_dense_rejected() {
        ModelConfig::new(
            "bad",
            0,
            vec![],
            8,
            vec![8],
            vec![8],
            Interaction::Concat,
            32,
        );
    }

    #[test]
    fn example_bytes_positive() {
        assert!(small().example_bytes() > 64 * 4);
    }

    #[test]
    fn valid_configs_pass_validate() {
        assert!(small().check().is_ok());
        assert!(small()
            .with_shared_tables(&[vec![0, 1], vec![2, 3]])
            .check()
            .is_ok());
    }

    #[test]
    fn corrupted_sharing_map_is_rv028() {
        let mut m = small();
        // A gap in the table ids, as a hand-edited serialized config could
        // produce: feature 0 points past every other table.
        m.table_of[0] = m.num_tables() + 3;
        let err = m.check().expect_err("gapped sharing map");
        assert!(err.has_code(Code::InvalidModelConfig));
    }
}
