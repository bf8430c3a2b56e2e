/**
 * @file
 * The serving benchmark's own arithmetic, kept free of the program's
 * headers so metrics_test.cc can check it on hand-built inputs:
 * percentiles that carry their sample count, time to first token,
 * time per output token, and the self time of nested spans.
 */

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/** A percentile above the median is reported only when at least this
 *  many samples lie beyond it, so a p90 needs 100 samples. The median
 *  is reported for any non-empty sample. */
constexpr size_t kMinTailSamples = 10;

/** A percentile with the sample count it was taken over; `value` is
 *  empty when the sample is too small to support it. */
struct Percentile
{
    std::optional<double> value;
    size_t samples = 0;
};

/** Nearest-rank percentile q in (0, 1) of `values`. */
inline Percentile
percentile(std::vector<double> values, double q)
{
    Percentile p;
    p.samples = values.size();
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    if (rank == 0 || (q > 0.5 && values.size() - rank < kMinTailSamples))
        return p;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<ptrdiff_t>(rank - 1),
                     values.end());
    p.value = values[rank - 1];
    return p;
}

/** Mean of `values`; empty for an empty sample. */
inline std::optional<double>
mean(const std::vector<double> &values)
{
    if (values.empty())
        return std::nullopt;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

/**
 * Time to first token in milliseconds. `start_s` is when the request
 * was due on an open loop — so a generator that ran late charges its
 * lateness to the request — and when it was submitted on a closed
 * loop.
 */
inline double
ttftMs(double start_s, double first_token_s)
{
    return (first_token_s - start_s) * 1e3;
}

/** Tokens of one request as they were delivered: each step delivers
 *  one burst of one or more tokens at one instant. */
struct TokenBurst
{
    double timeS = 0.0;
    size_t tokens = 0;
};

/**
 * Time per output token after the first, in milliseconds:
 * (t_last - t_first) / (n - 1) over all n tokens of the request.
 * Gaps between consecutive tokens are not used: a speculative step
 * delivers several tokens at one instant, so most gaps are zero.
 * Empty for fewer than two tokens.
 */
inline std::optional<double>
tpotMs(const std::vector<TokenBurst> &bursts)
{
    size_t n = 0;
    for (const TokenBurst &b : bursts)
        n += b.tokens;
    if (n < 2)
        return std::nullopt;
    double first = 0.0, last = 0.0;
    bool seen = false;
    for (const TokenBurst &b : bursts) {
        if (b.tokens == 0)
            continue;
        if (!seen)
            first = b.timeS;
        seen = true;
        last = b.timeS;
    }
    return (last - first) * 1e3 / static_cast<double>(n - 1);
}

/** A half-open time interval [start, end) in nanoseconds. */
struct Interval
{
    uint64_t start = 0;
    uint64_t end = 0;
};

/**
 * Union of child spans, answering "how much of [a, b) do they cover"
 * in O(log n). Children may overlap each other (spans of different
 * requests inside one iteration never do, but nothing relies on it).
 */
class Coverage
{
  public:
    explicit Coverage(std::vector<Interval> spans)
    {
        std::sort(spans.begin(), spans.end(),
                  [](const Interval &x, const Interval &y) {
                      return x.start < y.start;
                  });
        for (const Interval &s : spans) {
            if (s.end <= s.start)
                continue;
            if (!merged_.empty() && s.start <= merged_.back().end)
                merged_.back().end = std::max(merged_.back().end, s.end);
            else
                merged_.push_back(s);
        }
    }

    /** Nanoseconds of [a, b) covered by at least one child. */
    uint64_t covered(uint64_t a, uint64_t b) const
    {
        auto it = std::upper_bound(
            merged_.begin(), merged_.end(), a,
            [](uint64_t t, const Interval &s) { return t < s.end; });
        uint64_t total = 0;
        for (; it != merged_.end() && it->start < b; ++it)
            total += std::min(b, it->end) - std::max(a, it->start);
        return total;
    }

  private:
    std::vector<Interval> merged_; ///< disjoint, sorted by start
};

/** Self time of a span: its duration minus the part of it that its
 *  child spans cover. */
inline uint64_t
selfNanos(const Interval &parent, const Coverage &children)
{
    if (parent.end <= parent.start)
        return 0;
    return (parent.end - parent.start) -
           children.covered(parent.start, parent.end);
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
