//! The Compute module (paper §4.2.2 and Figure 4).
//!
//! Every plot function follows the same data-processing pipeline:
//!
//! 1. **Precompute stage**: chunk-size metadata is computed up front so the
//!    lazy graph can be built without inspecting delayed data (the paper's
//!    fix for repartitioning, §5.2).
//! 2. **Graph construction**: each statistic becomes a map/tree-reduce
//!    sub-plan over the partitions (or, when its partials would only be
//!    concatenated, one gather task over all of them); structural keys
//!    collapse shared subcomputations across visualizations.
//! 3. **Dask phase**: the engine executes the graph partition-parallel.
//! 4. **Pandas phase**: small-data finishing computations (filtering a
//!    correlation matrix, assembling chart data, insights) run on the
//!    reduced aggregates as one *section node* per call
//!    ([`ctx::ComputeContext::section`]); a small run never leaves the
//!    calling thread ("Dask is slow on tiny data").
//! 5. The [`crate::intermediate::Intermediates`] are returned.

pub mod bivariate;
pub mod cat;
pub mod correlation;
pub mod ctx;
pub mod kernels;
pub mod missing;
pub mod overview;
pub mod timeseries;
pub mod univariate;

pub use ctx::ComputeContext;
