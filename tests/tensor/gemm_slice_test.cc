/**
 * @file
 * Direct property tests for matmulTransposedBSlice, the one GEMM
 * every projection runs through, in both element types. On random
 * shapes and random [k0, k1) x [j0, j1) slices — including empty
 * k-slices, slice lengths that are not a multiple of the 8-wide
 * float unroll or the 32-byte int8 vector, and slice widths that
 * are not a multiple of the int8 tile's 4 weight rows — every
 * element must equal the scalar dotRow / dotRowI8 reference, the
 * columns past j1 - j0 of each output row must keep their sentinel,
 * and the whole buffer must be bit-identical at 1, 2 and 4 threads
 * (which covers both the row-split and the weight-block-split
 * policies).
 */

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/qtensor.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace {

using specinfer::tensor::QTensor;
using specinfer::tensor::Tensor;
using specinfer::util::Rng;
using specinfer::util::ThreadPool;

constexpr float kSentinel = -7.5f;

/** One slice GEMM case: [m x k] * [n x k]^T over [k0,k1) x [j0,j1),
 *  written at out_stride = (j1 - j0) + gap. */
struct SliceCase
{
    size_t m, k, n, k0, k1, j0, j1, gap;
};

std::string
describe(const SliceCase &c)
{
    std::ostringstream os;
    os << "m=" << c.m << " k=" << c.k << " n=" << c.n << " k-slice ["
       << c.k0 << ", " << c.k1 << ") j-slice [" << c.j0 << ", " << c.j1
       << ") gap=" << c.gap;
    return os.str();
}

/**
 * Fixed edge cases, then random ones. The fixed list pins an empty
 * k-slice, lengths off the 8/32 grid, widths off the 4-row grid,
 * widths spanning several 32-row weight blocks, and the full range.
 */
std::vector<SliceCase>
sliceCases()
{
    std::vector<SliceCase> cases = {
        {3, 40, 9, 17, 17, 0, 9, 2},    // empty k-slice
        {5, 100, 70, 3, 70, 1, 68, 3},  // len 67, width 67
        {1, 64, 37, 0, 64, 5, 10, 0},   // m=1, width 5
        {8, 96, 40, 32, 96, 0, 39, 1},  // len 64, width 39
        {6, 33, 11, 1, 32, 2, 5, 4},    // len 31, width 3
        {4, 72, 90, 0, 72, 0, 90, 0},   // full range, 3 blocks
        {9, 50, 6, 10, 11, 0, 6, 2},    // len 1
    };
    Rng rng(2024);
    for (int t = 0; t < 60; ++t) {
        SliceCase c;
        c.m = static_cast<size_t>(rng.uniformInt(int64_t{1}, 9));
        c.k = static_cast<size_t>(rng.uniformInt(int64_t{1}, 100));
        c.n = static_cast<size_t>(rng.uniformInt(int64_t{1}, 80));
        c.k0 = static_cast<size_t>(rng.uniformInt(int64_t{0},
                                                  int64_t(c.k)));
        c.k1 = static_cast<size_t>(rng.uniformInt(int64_t(c.k0),
                                                  int64_t(c.k)));
        c.j0 = static_cast<size_t>(rng.uniformInt(int64_t{0},
                                                  int64_t(c.n)));
        c.j1 = static_cast<size_t>(rng.uniformInt(int64_t(c.j0),
                                                  int64_t(c.n)));
        c.gap = static_cast<size_t>(rng.uniformInt(int64_t{0}, 4));
        cases.push_back(c);
    }
    return cases;
}

Tensor
randomTensor(size_t rows, size_t cols, uint64_t seed)
{
    Tensor t(rows, cols);
    Rng rng(seed);
    for (size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.normal());
    return t;
}

QTensor
randomQTensor(size_t rows, size_t cols, uint64_t seed)
{
    QTensor q;
    specinfer::tensor::quantizeRows(randomTensor(rows, cols, seed), q);
    return q;
}

/** Runs one case into a sentinel-filled buffer. */
template <typename Operand>
std::vector<float>
runSlice(const Operand &a, const Operand &b, const SliceCase &c)
{
    const size_t stride = (c.j1 - c.j0) + c.gap;
    std::vector<float> buf(c.m * stride, kSentinel);
    specinfer::tensor::matmulTransposedBSlice(a, b, c.k0, c.k1, c.j0,
                                              c.j1, buf.data(), stride);
    return buf;
}

/**
 * Checks every element of buf against want(i, j) for global weight
 * row j, that the gap columns kept the sentinel, and that the same
 * call is bit-identical at 2 and 4 threads.
 */
template <typename Operand, typename Want>
void
checkCase(const Operand &a, const Operand &b, const SliceCase &c,
          Want &&want)
{
    ThreadPool &pool = ThreadPool::global();
    const size_t restore = pool.threads();
    pool.setThreads(1);
    const std::vector<float> ref = runSlice(a, b, c);
    const size_t width = c.j1 - c.j0, stride = width + c.gap;
    for (size_t i = 0; i < c.m; ++i) {
        for (size_t jj = 0; jj < width; ++jj)
            ASSERT_EQ(ref[i * stride + jj], want(i, c.j0 + jj))
                << describe(c) << " at (" << i << ", " << jj << ")";
        for (size_t jj = width; jj < stride; ++jj)
            ASSERT_EQ(ref[i * stride + jj], kSentinel)
                << describe(c) << " gap column clobbered at (" << i
                << ", " << jj << ")";
    }
    for (size_t threads : {2u, 4u}) {
        pool.setThreads(threads);
        const std::vector<float> got = runSlice(a, b, c);
        EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                              ref.size() * sizeof(float)),
                  0)
            << describe(c) << " differs at threads=" << threads;
    }
    pool.setThreads(restore);
}

TEST(SliceGemmTest, Fp32ElementsAreDotRowOverTheSlice)
{
    uint64_t seed = 1;
    for (const SliceCase &c : sliceCases()) {
        const Tensor a = randomTensor(c.m, c.k, seed++);
        const Tensor b = randomTensor(c.n, c.k, seed++);
        checkCase(a, b, c, [&](size_t i, size_t j) {
            return specinfer::tensor::dotRow(a.row(i) + c.k0,
                                             b.row(j) + c.k0,
                                             c.k1 - c.k0);
        });
        if (HasFatalFailure())
            return;
    }
}

TEST(SliceGemmTest, Int8ElementsAreDotRowI8OverTheSlice)
{
    uint64_t seed = 1001;
    for (const SliceCase &c : sliceCases()) {
        const QTensor a = randomQTensor(c.m, c.k, seed++);
        const QTensor b = randomQTensor(c.n, c.k, seed++);
        checkCase(a, b, c, [&](size_t i, size_t j) {
            const int32_t acc = specinfer::tensor::dotRowI8(
                a.row(i) + c.k0, b.row(j) + c.k0, c.k1 - c.k0);
            return static_cast<float>(acc) * (a.scale(i) * b.scale(j));
        });
        if (HasFatalFailure())
            return;
    }
}

} // namespace
