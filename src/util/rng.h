/**
 * @file
 * Deterministic pseudo-random number generation for SpecInfer.
 *
 * All randomness in the library flows through Rng so that every
 * experiment is reproducible from a single 64-bit seed. The generator
 * is xoshiro256** seeded via splitmix64, which gives high-quality
 * streams from arbitrary (including small) seeds.
 */

#ifndef SPECINFER_UTIL_RNG_H
#define SPECINFER_UTIL_RNG_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace specinfer {
namespace util {

class ByteReader;
class ByteWriter;

/**
 * Complete serializable state of an Rng stream.
 *
 * Capturing the state mid-stream and restoring it later resumes the
 * stream bit-identically (including the cached Box-Muller pair), so
 * a generator can be checkpointed across a crash and the replayed
 * tail of draws matches the original exactly. This is the "RNG
 * cursor" the serving runtime journals per decode step.
 */
struct RngState
{
    uint64_t s[4] = {0, 0, 0, 0};
    bool hasCachedNormal = false;
    double cachedNormal = 0.0;

    bool operator==(const RngState &o) const
    {
        return s[0] == o.s[0] && s[1] == o.s[1] && s[2] == o.s[2] &&
               s[3] == o.s[3] &&
               hasCachedNormal == o.hasCachedNormal &&
               cachedNormal == o.cachedNormal;
    }
};

/** The one byte encoding of an RngState (journal Step records and
 *  serving snapshots), field by field so padding never leaks. */
void writeRngState(ByteWriter &w, const RngState &state);
RngState readRngState(ByteReader &r);

/**
 * Deterministic random number generator (xoshiro256**).
 *
 * Not thread-safe; use one instance per logical stream. Child streams
 * can be derived with fork() to decorrelate subsystems that share a
 * top-level seed.
 */
class Rng
{
  public:
    /** Construct a generator from a 64-bit seed via splitmix64. */
    explicit Rng(uint64_t seed = 0x5eed5eed5eedULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0 */
    uint64_t uniformInt(uint64_t n);

    /** Uniform integer in [lo, hi]. @pre lo <= hi */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal variate (Box-Muller, cached pair). */
    double normal();

    /** Normal variate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Sample an index from an unnormalized non-negative weight vector.
     *
     * @param weights Unnormalized weights; at least one must be > 0.
     * @return Index in [0, weights.size()).
     */
    size_t categorical(const std::vector<float> &weights);

    /** Derive an independent child generator. */
    Rng fork();

    /** Snapshot the complete generator state (see RngState). */
    RngState state() const;

    /** Resume from a snapshot; subsequent draws replay the original
     *  stream bit-identically. */
    void setState(const RngState &state);

    /** In-place Fisher-Yates shuffle of an index vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i) {
            size_t j = uniformInt(static_cast<uint64_t>(i));
            std::swap(items[i - 1], items[j]);
        }
    }

  private:
    uint64_t state_[4];
    bool hasCachedNormal_ = false;
    double cachedNormal_ = 0.0;
};

/**
 * Seeded-jitter exponential backoff, the one formula behind the
 * preemption re-admission, client reconnect and supervisor restart
 * delays: base = min(unit << min(doublings, 16), cap), plus a
 * uniform jitter in [0, base/2]. Exactly one draw per call, so a
 * schedule replays from the seed. The jitter keeps a cohort that
 * failed together from retrying in lockstep.
 */
uint64_t jitteredBackoff(Rng &rng, uint64_t unit, size_t doublings,
                         uint64_t cap);

/** splitmix64 step; useful for hashing strings/ids into seeds. */
uint64_t splitmix64(uint64_t &state);

/** Stable 64-bit hash of a byte string (FNV-1a), for seeding. */
uint64_t hashString(const char *str);

} // namespace util
} // namespace specinfer

#endif // SPECINFER_UTIL_RNG_H
