#pragma once
/// \file spmm.hpp
/// Sparse x dense matrix multiplication (the aggregation kernel, eq. 2.1/2.7).
///
/// Row-split CSR kernel, mirroring the GPU row-splitting scheme of Yang et al.
/// that the paper's computation model (section 4.1) reasons about. A row-range
/// variant supports the blocked-aggregation optimisation (section 5.2), where
/// the sparse shard is processed in row blocks with per-block all-reduce.
///
/// All entry points run on the calling thread's intra-rank engine
/// (util/thread_pool.hpp): the row space is cut into nnz-balanced ranges, one
/// per thread. Each output row is owned by exactly one range, so results are
/// bitwise-identical to the serial kernel for any thread count.

#include "dense/matrix.hpp"
#include "sparse/csr.hpp"

namespace plexus::sparse {

/// C = A * B, where A is (m x k) CSR and B is (k x n) dense. C must be (m x n).
void spmm(const Csr& a, const dense::Matrix& b, dense::Matrix& c);

/// Row-range variant: computes rows [r0, r1) of A * B into rows [r0, r1) of C.
void spmm_rows(const Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t r0,
               std::int64_t r1);

/// Single-threaded reference worker shared by all entry points: rows [r0, r1)
/// of A * B into C, zero-filling each output row first. Kept public as the
/// baseline the threaded paths are tested (and benchmarked) against.
void spmm_rows_serial(const Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t r0,
                      std::int64_t r1);

/// Window variant for streamed shards: A is a *block* of some larger matrix
/// (its row 0 corresponds to global row `out_r0`); computes all of A * B into
/// rows [out_r0, out_r0 + A.rows()) of C. Bitwise-identical to spmm_rows over
/// the assembled matrix, since each output row's accumulation order is the
/// row's own nonzero order either way.
void spmm_into_rows(const Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t out_r0);

/// Convenience allocation wrapper.
dense::Matrix spmm(const Csr& a, const dense::Matrix& b);

/// FLOP count of spmm(a, b): 2 * nnz * n.
std::int64_t spmm_flops(const Csr& a, std::int64_t dense_cols);

}  // namespace plexus::sparse
